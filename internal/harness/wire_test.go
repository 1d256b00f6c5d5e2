package harness

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func wireTestJob(t *testing.T) (CellJob, Options) {
	t.Helper()
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WarmupCycles = 500
	opts.MeasureCycles = 1500
	return CellJob{Config: core.MegaConfig(), Scheme: core.KindSTTIssue, Bench: prof}, opts
}

// wireCell is the wire form of a single cell: a one-cell experiment.
func wireCell(job CellJob, opts Options) ExperimentJobWire {
	return WireExperiment(MatrixSpec{
		Name:    "cell",
		Configs: []core.Config{job.Config},
		Schemes: []core.SchemeKind{job.Scheme},
		Benches: []workloads.Profile{job.Bench},
	}, opts)
}

// TestWireJobKeyIdentity: a job that crosses the wire as JSON must resolve
// to the same content-addressed key on the other side — this identity is
// what lets a farm server and its clients agree on cell keys without ever
// exchanging them for the compute path.
func TestWireJobKeyIdentity(t *testing.T) {
	job, opts := wireTestJob(t)
	want := CellKey(job, opts)

	data, err := json.Marshal(wireCell(job, opts))
	if err != nil {
		t.Fatal(err)
	}
	var w ExperimentJobWire
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	jobs, gotOpts, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("one-cell wire resolved to %d cells", len(jobs))
	}
	gotJob := jobs[0]
	if got := CellKey(gotJob, gotOpts); got != want {
		t.Fatalf("wire round trip changed the cell key: %s -> %s", want, got)
	}
	if gotJob.Scheme != job.Scheme || gotJob.Bench.Name != job.Bench.Name {
		t.Fatalf("wire round trip changed the job: %+v", gotJob)
	}
	if gotOpts.WarmupCycles != opts.WarmupCycles || gotOpts.MeasureCycles != opts.MeasureCycles {
		t.Fatalf("wire round trip changed the options: %+v", gotOpts)
	}
}

// TestWireJobValidation: corrupted or incompatible wire jobs must be
// rejected at Resolve, not crash inside the simulator.
func TestWireJobValidation(t *testing.T) {
	job, opts := wireTestJob(t)
	good := wireCell(job, opts)

	cases := []struct {
		name   string
		mutate func(*ExperimentJobWire)
	}{
		{"unknown scheme", func(w *ExperimentJobWire) { w.Schemes = []string{"no-such-scheme"} }},
		{"invalid config", func(w *ExperimentJobWire) { w.Configs[0].Width = 99 }},
		{"empty profile", func(w *ExperimentJobWire) { w.Benches = []workloads.Profile{{}} }},
		{"zero window", func(w *ExperimentJobWire) { w.Measure = 0 }},
		{"oversized scale", func(w *ExperimentJobWire) { w.Scale = maxWireScale + 1 }},
		{"oversized warmup", func(w *ExperimentJobWire) { w.Warmup = maxWireWindow }},
		{"oversized measure", func(w *ExperimentJobWire) { w.Warmup, w.Measure = 0, maxWireWindow+1 }},
		{"hostile warmup", func(w *ExperimentJobWire) { w.Warmup = math.MaxUint64 }},
		{"window sum wraps", func(w *ExperimentJobWire) { w.Warmup, w.Measure = 1<<63, 1<<63 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := good
			w.Configs = append([]core.Config(nil), good.Configs...)
			tc.mutate(&w)
			if _, _, err := w.Resolve(); err == nil {
				t.Fatalf("%s: Resolve accepted a bad wire job", tc.name)
			}
		})
	}
	if _, _, err := good.Resolve(); err != nil {
		t.Fatalf("unmutated wire job rejected: %v", err)
	}
}

// resolverCache wraps a CellCache and records ResolveCell traffic — a
// stand-in for the farm HTTPCache in compute mode.
type resolverCache struct {
	inner    CellCache
	resolves int
	serve    func(key string, job CellJob, opts Options) (Run, bool, error)
}

func (c *resolverCache) Get(key string) (Run, bool, error) { return c.inner.Get(key) }
func (c *resolverCache) Put(key string, r Run) error       { return c.inner.Put(key, r) }
func (c *resolverCache) ResolveCell(key string, job CellJob, opts Options) (Run, bool, error) {
	c.resolves++
	return c.serve(key, job, opts)
}

// TestEngineUsesCellResolver: the engine must route lookups through
// ResolveCell when the cache implements it, count a successful resolution
// as a cache hit, and degrade a resolver error to local simulation.
func TestEngineUsesCellResolver(t *testing.T) {
	job, opts := wireTestJob(t)

	// First: a resolver that serves the cell (as a remote farm would).
	ref, err := RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	served := &resolverCache{
		inner: NewMemoryCache(0),
		serve: func(string, CellJob, Options) (Run, bool, error) { return ref, true, nil },
	}
	e := NewEngine(served, "")
	if _, err := e.RunCells(context.Background(), []CellJob{job}, opts, nil); err != nil {
		t.Fatal(err)
	}
	if served.resolves != 1 {
		t.Fatalf("resolver not used: resolves=%d", served.resolves)
	}
	if st := e.Stats(); st.Hits != 1 || st.Simulated != 0 {
		t.Fatalf("resolved cell not counted as a hit: %+v", st)
	}

	// Second: a failing resolver must degrade to local simulation.
	failing := &resolverCache{
		inner: NewMemoryCache(0),
		serve: func(string, CellJob, Options) (Run, bool, error) {
			return Run{}, false, errTestUnwritable
		},
	}
	e2 := NewEngine(failing, "")
	runs, err := e2.RunCells(context.Background(), []CellJob{job}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.Simulated != 1 || st.Hits != 0 {
		t.Fatalf("failed resolution did not simulate locally: %+v", st)
	}
	if runs[0].IPC != ref.IPC || runs[0].Cycles != ref.Cycles {
		t.Fatalf("local re-simulation diverged: %+v vs %+v", runs[0], ref)
	}
}

// TestTieredCacheResolveCellBackfill: a tiered stack must thread the job
// through to resolver layers and backfill faster layers with the result —
// the path a remote-computed cell takes into the local memory layer.
func TestTieredCacheResolveCellBackfill(t *testing.T) {
	job, opts := wireTestJob(t)
	ref, err := RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemoryCache(0)
	remote := &resolverCache{
		inner: NewMemoryCache(0),
		serve: func(string, CellJob, Options) (Run, bool, error) { return ref, true, nil },
	}
	tiered := NewTieredCache(mem, remote)

	r, ok, err := tiered.ResolveCell("k1", job, opts)
	if err != nil || !ok {
		t.Fatalf("ResolveCell: ok=%v err=%v", ok, err)
	}
	if r.IPC != ref.IPC {
		t.Fatalf("ResolveCell returned wrong run: %+v", r)
	}
	if remote.resolves != 1 {
		t.Fatalf("remote layer resolves = %d, want 1", remote.resolves)
	}
	// The hit must have been promoted into the memory layer: a second
	// lookup never reaches the resolver.
	if _, ok, _ := mem.Get("k1"); !ok {
		t.Fatal("hit not backfilled into the faster layer")
	}
	if _, ok, _ := tiered.ResolveCell("k1", job, opts); !ok {
		t.Fatal("second lookup missed")
	}
	if remote.resolves != 1 {
		t.Fatalf("second lookup reached the resolver (resolves=%d)", remote.resolves)
	}
}

// TestWireExperimentKeyIdentity: an experiment that crosses the wire must
// enumerate to exactly the per-cell key set the sender derives — the
// identity that lets streamed cells be validated against locally computed
// keys without ever sending keys in the request.
func TestWireExperimentKeyIdentity(t *testing.T) {
	_, opts := wireTestJob(t)
	spec := MatrixSpec{
		Name:    "wire-identity",
		Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
		Schemes: []core.SchemeKind{core.KindBaseline, core.KindSTTIssue, core.KindNDA},
	}
	for _, name := range []string{"505.mcf", "520.omnetpp"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Benches = append(spec.Benches, p)
	}
	want := map[string]bool{}
	for _, j := range enumerateJobs(spec.Configs, spec.Schemes, spec.Benches) {
		want[CellKey(j, opts)] = true
	}

	data, err := json.Marshal(WireExperiment(spec, opts))
	if err != nil {
		t.Fatal(err)
	}
	var w ExperimentJobWire
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	jobs, wopts, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(want) {
		t.Fatalf("wire round trip enumerated %d cells, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		if !want[CellKey(j, wopts)] {
			t.Fatalf("wire round trip invented cell key for %s/%s/%s", j.Config.Name, j.Scheme, j.Bench.Name)
		}
	}
	// Spec is the same validation without the job list: its cell i is
	// Resolve's job i, and its keys are the same.
	ws, sopts, err := w.Spec()
	if err != nil || !reflect.DeepEqual(sopts, wopts) {
		t.Fatalf("Spec: %v, options %+v, want %+v", err, sopts, wopts)
	}
	for i, j := range jobs {
		if ws.cell(i) != j {
			t.Fatalf("spec cell %d is %s/%s/%s, want %s/%s/%s", i, ws.cell(i).Config.Name, ws.cell(i).Scheme,
				ws.cell(i).Bench.Name, j.Config.Name, j.Scheme, j.Bench.Name)
		}
	}
	if keys := SpecKeys(ws, sopts); len(keys) != len(want) {
		t.Fatalf("Spec keys %d cells, want %d", len(keys), len(want))
	}
}

// TestWireExperimentValidation: corrupted or oversized experiment requests
// are rejected at Resolve, never enumerated or simulated.
func TestWireExperimentValidation(t *testing.T) {
	_, opts := wireTestJob(t)
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	good := WireExperiment(MatrixSpec{
		Name:    "validate",
		Configs: []core.Config{core.SmallConfig()},
		Schemes: []core.SchemeKind{core.KindBaseline},
		Benches: []workloads.Profile{prof},
	}, opts)

	cases := []struct {
		name   string
		mutate func(*ExperimentJobWire)
	}{
		{"empty configs", func(w *ExperimentJobWire) { w.Configs = nil }},
		{"empty schemes", func(w *ExperimentJobWire) { w.Schemes = nil }},
		{"empty benches", func(w *ExperimentJobWire) { w.Benches = nil }},
		{"unknown scheme", func(w *ExperimentJobWire) { w.Schemes = []string{"no-such-scheme"} }},
		{"invalid config", func(w *ExperimentJobWire) { w.Configs[0].Width = 99 }},
		{"empty profile", func(w *ExperimentJobWire) { w.Benches = []workloads.Profile{{}} }},
		{"zero window", func(w *ExperimentJobWire) { w.Measure = 0 }},
		{"oversized scale", func(w *ExperimentJobWire) { w.Scale = maxWireScale + 1 }},
		{"oversized warmup", func(w *ExperimentJobWire) { w.Warmup = maxWireWindow }},
		{"oversized measure", func(w *ExperimentJobWire) { w.Warmup, w.Measure = 0, maxWireWindow+1 }},
		{"hostile warmup", func(w *ExperimentJobWire) { w.Warmup = math.MaxUint64 }},
		{"window sum wraps", func(w *ExperimentJobWire) { w.Warmup, w.Measure = 1<<63, 1<<63 }},
		{"oversized product", func(w *ExperimentJobWire) {
			w.Benches = make([]workloads.Profile, maxWireCells+1)
			for i := range w.Benches {
				w.Benches[i] = prof
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := good
			w.Configs = append([]core.Config(nil), good.Configs...)
			tc.mutate(&w)
			if _, _, err := w.Resolve(); err == nil {
				t.Fatalf("%s: Resolve accepted a bad wire experiment", tc.name)
			}
		})
	}
	if jobs, _, err := good.Resolve(); err != nil || len(jobs) != 1 {
		t.Fatalf("unmutated wire experiment rejected: jobs=%d err=%v", len(jobs), err)
	}
	// The bounds themselves are admitted.
	edge := good
	edge.Scale, edge.Warmup, edge.Measure = maxWireScale, maxWireWindow-1, 1
	if _, _, err := edge.Resolve(); err != nil {
		t.Fatalf("wire experiment at the run bounds rejected: %v", err)
	}
}

// FuzzExperimentJobWireResolve: the decoder behind every compute request
// must never panic on hostile bytes; a wire form it accepts must re-marshal
// to a wire form that resolves to the same cell key set, and every
// profile and configuration it carries must build a program and a core
// (nothing is simulated).
func FuzzExperimentJobWireResolve(f *testing.F) {
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		f.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WarmupCycles, opts.MeasureCycles = 500, 1500
	for _, spec := range []MatrixSpec{
		{Name: "cell", Configs: []core.Config{core.MegaConfig()},
			Schemes: []core.SchemeKind{core.KindSTTIssue}, Benches: []workloads.Profile{prof}},
		{Name: "pair", Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
			Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA}, Benches: []workloads.Profile{prof}},
	} {
		data, err := json.Marshal(WireExperiment(spec, opts))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The largest configuration and profile the bounds admit.
	edge := prof
	edge.Name, edge.Iters, edge.Unroll = "edge", 1<<24, 16
	edge.GateWords, edge.StreamArrays, edge.StreamWords = 1<<20, 2, 1<<20
	edge.ChaseNodes, edge.ChaseStride = 1<<14, 512
	edge.ALUPerLoad, edge.IndirectLoads, edge.ChasePerIter, edge.IndepALU = 32, 32, 32, 32
	data, err := json.Marshal(WireExperiment(MatrixSpec{Name: "edge",
		Configs: []core.Config{{Name: "edge", Width: 8, MemPorts: 8, ROBSize: 512, MaxBranches: 64}, core.Gem5STTConfig()},
		Schemes: core.SchemeKinds(), Benches: []workloads.Profile{edge}}, opts))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"name":"x","configs":[],"schemes":["baseline"],"benches":[]}`))
	f.Add([]byte(`{not json`))

	keySet := func(w ExperimentJobWire) (map[string]bool, error) {
		jobs, wopts, err := w.Resolve()
		if err != nil {
			return nil, err
		}
		keys := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			keys[CellKey(j, wopts)] = true
		}
		return keys, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ExperimentJobWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		want, err := keySet(w)
		if err != nil {
			return
		}
		again, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("accepted wire does not re-marshal: %v", err)
		}
		var w2 ExperimentJobWire
		if err := json.Unmarshal(again, &w2); err != nil {
			t.Fatalf("re-marshalled wire does not decode: %v", err)
		}
		got, err := keySet(w2)
		if err != nil {
			t.Fatalf("re-marshalled wire rejected: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("re-marshal changed the key set: %d -> %d keys", len(want), len(got))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("re-marshal lost key %s", k)
			}
		}
		buildsCores(t, w)
	})
}

// buildsCores builds every distinct profile of an accepted wire form, a
// core for every distinct configuration and scheme on the first program,
// and a core for every program on the first configuration.
func buildsCores(t *testing.T, w ExperimentJobWire) {
	t.Helper()
	jobs, opts, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[workloads.Profile]*isa.Program{}
	var first *isa.Program
	for _, p := range w.Benches {
		if progs[p] == nil {
			progs[p] = p.Build(opts.Scale)
			if first == nil {
				first = progs[p]
			}
		}
	}
	built := map[string]bool{}
	for _, j := range jobs {
		key := j.Config.Fingerprint() + j.Scheme.String()
		if built[key] {
			continue
		}
		built[key] = true
		if _, err := core.New(j.Config, j.Scheme, first); err != nil {
			t.Fatalf("accepted config %+v does not build a %s core: %v", j.Config, j.Scheme, err)
		}
	}
	for _, prog := range progs {
		if _, err := core.New(jobs[0].Config, jobs[0].Scheme, prog); err != nil {
			t.Fatalf("accepted profile %s does not build a core: %v", prog.Name, err)
		}
	}
}
