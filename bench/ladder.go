package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	sb "repro"
	"repro/internal/core"
	"repro/internal/diffsim"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// The layer ladder drives each layer's public functions directly, on the
// same fixed inputs in every traced run, so each layer has a number no
// matter which workload the run traced. Probes run one call at a time, so
// allocation deltas belong to the call they bracket.

// ladderCells are the table1 cells the core probe drives, by the class of
// behaviour that dominates them.
var ladderCells = []struct{ bench, class string }{
	{"505.mcf", "miss"}, {"520.omnetpp", "miss"},
	{"531.deepsjeng", "squash"}, {"541.leela", "squash"},
	{"525.x264", "compute"}, {"538.imagick", "compute"},
}

const (
	coreRepeats  = 3  // direct drives of each ladder cell
	ladderCases  = 24 // fuzz cases of the core and diffsim probes
	wireRepeats  = 20 // experiment wire encodes and resolves
	farmRepeats  = 5  // streams per transport encoding
	renderPasses = 5  // all-memory-hit table1 renders
	traceRepeats = 3  // recorded and bare runs of the trace probe
)

// ladderOptions are the short windows of the cache, wire and farm probes:
// those layers cost the same per cell whatever the window, so table1's 528
// cells are simulated in a fraction of a second.
func ladderOptions(par int) sb.Options {
	return sb.Options{Scale: 1, WarmupCycles: 1_000, MeasureCycles: 4_000, Parallelism: par}
}

// ladder accumulates the probes' metrics and output checks.
type ladder struct {
	tr             *tracer
	m              map[string]metric
	checks, failed int
}

func (l *ladder) set(name string, v float64) { l.m[name] = metric{Value: v} }

// check counts one output check, reporting a mismatch.
func (l *ladder) check(ok bool, format string, args ...any) {
	l.checks++
	if !ok {
		l.failed++
		fmt.Fprintf(os.Stderr, "shadowbench: ladder check failed: "+format+"\n", args...)
	}
}

// median of the spans named name under probe label, scaled (1e6: µs).
func (l *ladder) spanMedian(label, name string, scale float64) float64 {
	return median(l.tr.spanDurations(label, name)) * scale
}

// runLadder runs every probe, adding its metrics to m, and returns how
// many output checks ran and how many failed.
func runLadder(ctx context.Context, e *env, tr *tracer, m map[string]metric) (checks, failed int, err error) {
	l := &ladder{tr: tr, m: m}
	probes := []struct {
		name string
		run  func(context.Context, *env) error
	}{
		{"ladder.core", l.coreProbe},
		{"ladder.fuzz", l.fuzzProbe},
		{"ladder.cache", l.cacheWireFarmProbe},
		{"ladder.trace", l.traceProbe},
	}
	for _, p := range probes {
		if err := p.run(ctx, e); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return l.checks, l.failed, nil
}

// allocs returns the process's cumulative allocated bytes and objects.
func allocs() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// newCore times one core.New and the kilobytes it allocates.
func (l *ladder) newCore(cfg core.Config, kind core.SchemeKind, prog *isa.Program) (*core.Core, time.Duration, float64, error) {
	var c *core.Core
	b0, _ := allocs()
	start := time.Now()
	err := l.tr.timeCall("core.new", func() (err error) { c, err = core.New(cfg, kind, prog); return err })
	d := time.Since(start)
	b1, _ := allocs()
	return c, d, float64(b1-b0) / 1e3, err
}

// coreProbe drives the ladder cells through workloads.Profile.Build,
// core.New and two core.Run calls (warm-up, then measured window) — the
// steps harness.RunOne takes — and checks each against the session's Run
// for the same cell.
func (l *ladder) coreProbe(ctx context.Context, e *env) error {
	const label = "ladder.core"
	opts := sb.DefaultOptions()
	opts.Parallelism = 1
	session := sb.NewSession(sb.SessionConfig{Options: opts})
	cfg := sb.MegaConfig()

	runNS := map[string]int64{}
	cycles := map[string]uint64{}
	var newNS, newKB []float64
	var totalNew, totalRun int64
	var mallocs, committed, fetched uint64
	l.tr.beginPass(label, label)
	defer l.tr.endPass()
	for _, cell := range ladderCells {
		prof, err := workloads.ByName(cell.bench)
		if err != nil {
			return err
		}
		for _, kind := range []sb.Scheme{sb.Baseline, sb.STTRename} {
			want, err := session.Run(ctx, cfg, kind, prof)
			if err != nil {
				return err
			}
			for range coreRepeats {
				var prog *isa.Program
				l.tr.timeCall("workloads.build", func() error { prog = prof.Build(1); return nil })

				c, d, kb, err := l.newCore(cfg, kind, prog)
				if err != nil {
					return err
				}
				newNS = append(newNS, float64(d))
				newKB = append(newKB, kb)
				totalNew += int64(d)

				_, m1 := allocs()
				start := time.Now()
				var warm, res core.Result
				err = l.tr.timeCall("core.run", func() (err error) {
					if warm, err = c.Run(core.RunLimits{MaxCycles: opts.WarmupCycles}); err != nil {
						return err
					}
					res, err = c.Run(core.RunLimits{MaxCycles: opts.WarmupCycles + opts.MeasureCycles})
					return err
				})
				d = time.Since(start)
				_, m2 := allocs()
				if err != nil {
					return err
				}
				runNS[cell.class] += int64(d)
				cycles[cell.class] += res.Cycles
				totalRun += int64(d)
				mallocs += m2 - m1
				committed += res.Stats.Committed
				fetched += res.Stats.Fetched

				insts, measured := res.Insts-warm.Insts, res.Cycles-warm.Cycles
				l.check(measured == want.Cycles && res.Cycles == want.TotalCycles && insts == want.Insts &&
					float64(insts)/float64(measured) == want.IPC,
					"%s/%s/%s driven directly: %d cycles, IPC %v; session: %d cycles, IPC %v",
					cfg.Name, kind, prof.Name, measured, float64(insts)/float64(measured), want.Cycles, want.IPC)
			}
		}
	}
	var allNS int64
	var allCycles uint64
	for class, ns := range runNS {
		l.set("core.run_ns_per_cycle."+class, float64(ns)/float64(cycles[class]))
		allNS += ns
		allCycles += cycles[class]
	}
	l.set("core.run_ns_per_cycle", float64(allNS)/float64(allCycles))
	l.set("core.run_allocs_per_kcycle", float64(mallocs)/(float64(allCycles)/1e3))
	l.set("core.useful_fetch_ratio", float64(committed)/float64(fetched))
	l.set("workloads.build_us", l.spanMedian(label, "workloads.build", 1e6))
	l.set("core.new_us.table1", median(newNS)/1e3)
	l.set("core.new_kb.table1", median(newKB))
	l.set("core.new_share.table1", float64(totalNew)/float64(totalNew+totalRun))
	return nil
}

// fuzzProbe times the differential oracle's steps on generated programs:
// diffsim.Generate, the in-order isa.ArchSim reference, core.New and
// core.Run under every scheme, and the whole diffsim.CheckCase.
func (l *ladder) fuzzProbe(ctx context.Context, e *env) error {
	const label = "ladder.fuzz"
	l.tr.beginPass(label, label)
	defer l.tr.endPass()
	base := e.seed*seedStride + seedStride/2 // cases no pass uses
	var newNS, newKB []float64
	var totalNew, totalRun int64
	for i := range ladderCases {
		cs := diffsim.CaseForIndex(base, i)
		cfg := diffsim.ConfigForCase(cs)
		var prog *isa.Program
		l.tr.timeCall("diffsim.generate", func() error { prog = diffsim.Generate(cs); return nil })
		err := l.tr.timeCall("isa.archsim", func() error {
			sim := isa.NewArchSim(prog)
			for n := 0; !sim.Halted(); n++ {
				if n == 1_000_000 {
					return fmt.Errorf("case %v: reference did not halt", cs)
				}
				sim.Step()
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, kind := range core.SchemeKinds() {
			c, d, kb, err := l.newCore(cfg, kind, prog)
			if err != nil {
				return err
			}
			newNS = append(newNS, float64(d))
			newKB = append(newKB, kb)
			totalNew += int64(d)
			start := time.Now()
			var res core.Result
			err = l.tr.timeCall("core.run", func() (err error) { res, err = c.Run(core.RunLimits{MaxCycles: 10_000_000}); return err })
			totalRun += int64(time.Since(start))
			if err != nil {
				return err
			}
			l.check(res.Halted, "case %v on %s/%s did not halt", cs, cfg.Name, kind)
		}
		err = l.tr.timeCall("diffsim.check_case", func() error { return diffsim.CheckCase(cfg, core.SchemeKinds(), cs) })
		l.check(err == nil, "%v", err)
	}
	l.set("core.new_us.fuzz", median(newNS)/1e3)
	l.set("core.new_kb.fuzz", median(newKB))
	l.set("core.new_share.fuzz", float64(totalNew)/float64(totalNew+totalRun))
	gen := l.tr.spanDurations(label, "diffsim.generate")
	arch := l.tr.spanDurations(label, "isa.archsim")
	cases := l.tr.spanDurations(label, "diffsim.check_case")
	l.set("diffsim.generate_us", median(gen)*1e6)
	l.set("isa.archsim_us", median(arch)*1e6)
	l.set("diffsim.case_ms", median(cases)*1e3)
	l.set("diffsim.oracle_share", 1-(sum(gen)+sum(arch))/sum(cases))
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// cacheWireFarmProbe fills a disk store with table1 at the ladder windows,
// reads it back warm, renders from memory, then times the wire codec and a
// farm stream over the same cells.
func (l *ladder) cacheWireFarmProbe(ctx context.Context, e *env) error {
	opts := ladderOptions(e.par)
	dir, err := os.MkdirTemp(e.dir, "ladder-")
	if err != nil {
		return err
	}
	disk, err := harness.NewDiskCache(dir)
	if err != nil {
		return err
	}
	experiment := func(label string, cache sb.CellCache) (*sb.Session, error) {
		l.tr.beginPass(label, label)
		defer l.tr.endPass()
		s := sb.NewSession(sb.SessionConfig{Options: opts, Cache: cache})
		_, err := s.Experiment(ctx, "table1")
		return s, err
	}

	// Cold: every cell simulated and written through to disk.
	cold, err := experiment("ladder.cache-cold", harness.NewTieredCache(
		l.tr.timed("cache.mem", harness.NewMemoryCache(0), false), l.tr.timed("cache.disk", disk, true)))
	if err != nil {
		return err
	}
	l.set("engine.max_cell_ms", percentile(l.tr.spanDurations("ladder.cache-cold", "engine.cell"), 100)*1e3)
	l.set("cache.disk.put_us", l.spanMedian("ladder.cache-cold", "cache.disk.put", 1e6))
	bytes, files, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.set("cache.disk.bytes_per_cell", float64(bytes)/float64(files))

	// Warm: a fresh memory layer over the filled store.
	mem := harness.NewMemoryCache(0)
	warm, err := experiment("ladder.cache-warm", harness.NewTieredCache(
		l.tr.timed("cache.mem", mem, false), l.tr.timed("cache.disk", disk, true)))
	if err != nil {
		return err
	}
	gets := l.tr.spanDurations("ladder.cache-warm", "cache.disk.get")
	l.set("cache.disk.get_us.p50", median(gets)*1e6)
	l.set("cache.disk.get_us.p95", percentile(gets, 95)*1e6)
	l.check(warm.Stats().Simulated == 0, "warm ladder pass simulated %d cells", warm.Stats().Simulated)

	// All memory hits: what is left is engine bookkeeping and rendering.
	// The render passes read the memory layer bare; one more pass times
	// its gets.
	var renders []float64
	for i := range renderPasses {
		start := time.Now()
		if _, err := experiment(fmt.Sprintf("ladder.render-%d", i), mem); err != nil {
			return err
		}
		renders = append(renders, time.Since(start).Seconds())
	}
	l.set("render.table1_ms", median(renders)*1e3)
	if _, err := experiment("ladder.cache-mem", l.tr.timed("cache.mem", mem, true)); err != nil {
		return err
	}
	l.set("cache.mem.get_ns", l.spanMedian("ladder.cache-mem", "cache.mem.get", 1e9))

	m, err := cold.Matrix(ctx, sb.BoomSpec())
	if err != nil {
		return err
	}
	spec := sb.BoomSpec()
	spec.Schemes = m.Schemes
	wire := sb.WireExperiment(spec, opts)
	if err := l.wireProbe(wire, m, opts); err != nil {
		return err
	}
	return l.farmProbe(ctx, e, mem, wire, m.NumRuns())
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (bytes int64, files int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, de := range entries {
		info, err := de.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
	}
	return bytes, files, nil
}

// wireProbe times the experiment wire form (JSON encode; decode plus
// Resolve) and the cell envelope codec over every cell of m.
func (l *ladder) wireProbe(wire harness.ExperimentJobWire, m *sb.Matrix, opts sb.Options) error {
	const label = "ladder.wire"
	l.tr.beginPass(label, label)
	defer l.tr.endPass()
	for range wireRepeats {
		var body []byte
		if err := l.tr.timeCall("wire.experiment_encode", func() (err error) { body, err = json.Marshal(wire); return err }); err != nil {
			return err
		}
		err := l.tr.timeCall("wire.experiment_resolve", func() error {
			var back harness.ExperimentJobWire
			if err := json.Unmarshal(body, &back); err != nil {
				return err
			}
			_, _, err := back.Resolve()
			return err
		})
		if err != nil {
			return err
		}
	}
	var envBytes, envs int
	for _, cfg := range m.Configs {
		for _, kind := range m.Schemes {
			c, _ := m.Cell(cfg.Name, kind)
			for i, r := range c.Runs {
				key := sb.CellKey(sb.CellJob{Config: cfg, Scheme: kind, Bench: m.Benches[i]}, opts)
				env := farm.CellEnvelope{Schema: farm.Schema, Key: key, Scheme: kind.String(), Run: r}
				var line []byte
				if err := l.tr.timeCall("wire.envelope_encode", func() (err error) { line, err = json.Marshal(env); return err }); err != nil {
					return err
				}
				var back farm.CellEnvelope
				if err := l.tr.timeCall("wire.envelope_decode", func() error { return json.Unmarshal(line, &back) }); err != nil {
					return err
				}
				l.check(back.Key == key && back.Run == r, "envelope round trip of %s changed the cell", key)
				envBytes += len(line)
				envs++
			}
		}
	}
	l.set("wire.experiment_encode_us", l.spanMedian(label, "wire.experiment_encode", 1e6))
	l.set("wire.experiment_resolve_us", l.spanMedian(label, "wire.experiment_resolve", 1e6))
	l.set("wire.envelope_encode_us", l.spanMedian(label, "wire.envelope_encode", 1e6))
	l.set("wire.envelope_decode_us", l.spanMedian(label, "wire.envelope_decode", 1e6))
	l.set("wire.envelope_bytes", float64(envBytes)/float64(envs))
	return nil
}

// countingTransport counts the response body bytes read off the wire.
// With identity set it asks for an uncompressed body and keeps the
// transport from negotiating gzip on its own.
type countingTransport struct {
	base     http.RoundTripper
	identity bool
	n        int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.identity {
		req = req.Clone(req.Context())
		req.Header.Del("Accept-Encoding")
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// farmProbe streams the experiment from a farm server over the warm
// memory store, with gzip negotiated and with identity bodies.
func (l *ladder) farmProbe(ctx context.Context, e *env, store sb.CellCache, wire harness.ExperimentJobWire, cells int) error {
	f, err := startFarm(store, e.par, l.tr)
	if err != nil {
		return err
	}
	defer f.close()
	for _, identity := range []bool{false, true} {
		suffix := ""
		base := http.DefaultTransport.(*http.Transport).Clone()
		if identity {
			suffix = ".identity"
			base.DisableCompression = true
		}
		label := "ladder.farm" + suffix
		tp := &countingTransport{base: base, identity: identity}
		client := sb.NewStreamClient(f.url, &http.Client{Transport: tp})
		var firsts []float64
		for range farmRepeats {
			l.tr.beginPass(label, label)
			start := time.Now()
			var first time.Duration
			var n int
			err := l.tr.timeCall("farm.stream", func() (err error) {
				n, err = client.Experiment(ctx, wire, func(farm.CellEnvelope) error {
					if first == 0 {
						first = time.Since(start)
					}
					return nil
				})
				return err
			})
			l.tr.endPass()
			if err != nil {
				return err
			}
			l.check(n == cells, "farm stream delivered %d cells, want %d", n, cells)
			firsts = append(firsts, first.Seconds())
		}
		base.CloseIdleConnections()
		l.set("farm.stream_ms"+suffix, l.spanMedian(label, "farm.stream", 1e3))
		if !identity {
			l.set("farm.server_p50_ms", l.spanMedian(label, "farm.server", 1e3))
		}
		l.set("farm.bytes_per_cell"+suffix, float64(tp.n)/float64(farmRepeats*cells))
		if !identity {
			l.set("farm.first_cell_ms", median(firsts)*1e3)
		}
	}
	return nil
}

// lineCounter counts the bytes and lines written to it.
type lineCounter struct{ bytes, lines int64 }

func (w *lineCounter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// traceProbe prices the per-cycle trace recorder: a Mega 505.mcf cell
// recorded to a counting writer against the same cell bare.
func (l *ladder) traceProbe(ctx context.Context, e *env) error {
	const label = "ladder.trace"
	l.tr.beginPass(label, label)
	defer l.tr.endPass()
	opts := sb.DefaultOptions()
	var w lineCounter
	var traced, bare sb.Run
	for range traceRepeats {
		w = lineCounter{}
		if err := l.tr.timeCall("trace.recorded_run", func() (err error) {
			traced, err = sb.RunBenchmarkTraced(sb.MegaConfig(), sb.Baseline, "505.mcf", opts, &w)
			return err
		}); err != nil {
			return err
		}
		if err := l.tr.timeCall("trace.bare_run", func() (err error) {
			bare, err = sb.RunBenchmark(sb.MegaConfig(), sb.Baseline, "505.mcf", opts)
			return err
		}); err != nil {
			return err
		}
	}
	l.check(traced == bare, "recorded run differs from the bare run")
	events := float64(w.lines - 1) // the first line is the trace's meta record
	extra := l.spanMedian(label, "trace.recorded_run", 1e9) - l.spanMedian(label, "trace.bare_run", 1e9)
	l.set("trace.ns_per_event", extra/events)
	l.set("trace.bytes_per_event", float64(w.bytes)/events)
	return nil
}

// profileFuncs maps the CPU-profile metrics to the functions whose
// cumulative share of samples they report.
var profileFuncs = map[string]string{
	"pprof.issueStage":       "repro/internal/core.(*Core).issueStage",
	"pprof.renameStage":      "repro/internal/core.(*Core).renameStage",
	"pprof.writebackStage":   "repro/internal/core.(*Core).writebackStage",
	"pprof.commitStage":      "repro/internal/core.(*Core).commitStage",
	"pprof.vpStage":          "repro/internal/core.(*Core).vpStage",
	"pprof.frontend_step":    "repro/internal/core.(*frontend).step",
	"pprof.nextWake":         "repro/internal/core.(*Core).nextWake",
	"pprof.mem_NewHierarchy": "repro/internal/mem.NewHierarchy",
	"pprof.mallocgc":         "runtime.mallocgc",
	"pprof.gc":               "runtime.gcBgMarkWorker",
}

// profileShares reads the traced passes' CPU profile with
// `go tool pprof -top -cum` and returns each profileFuncs entry's
// cumulative share (0 for a function with no samples).
func profileShares(exe, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=100000", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	cum := make(map[string]float64)
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err != nil {
			continue // the column header
		}
		cum[f[5]] = pct / 100
	}
	shares := make(map[string]float64, len(profileFuncs))
	for metric, fn := range profileFuncs {
		shares[metric] = cum[fn]
	}
	return shares, nil
}
