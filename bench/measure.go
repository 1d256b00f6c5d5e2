package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a process resource snapshot.
type usage struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), totalAlloc: ms.TotalAlloc}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set, so each pass gets its own peak.
// The process-lifetime peak is set by where the garbage collector happens
// to run during allocation bursts and varies by a third between identical
// runs; the median of per-pass peaks does not.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns VmHWM in bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// passes is what runPasses measured. Only passes that succeeded are
// samples: a pass that fails early would otherwise read as a fast one.
type passes struct {
	seconds   []float64 // wall time per succeeded pass
	rssMB     []float64 // resident-set peak per succeeded pass
	attempted int
	failed    int
}

// runPasses runs passes until window has elapsed (at least one), limit
// passes ran (limit 0: no limit) or ctx is done. It fails when no pass
// succeeded, since there is then nothing to measure.
func runPasses(ctx context.Context, w workload, window time.Duration, limit int, tr *tracer) (passes, error) {
	var p passes
	start := time.Now()
	for i := 0; ; i++ {
		if err := resetPeakRSS(); err != nil {
			return p, fmt.Errorf("reset peak RSS: %w", err)
		}
		d, err := w.pass(ctx, i, tr)
		if ctx.Err() != nil {
			return p, ctx.Err()
		}
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "shadowbench: pass %d failed: %v\n", i, err)
		} else {
			rss, err := peakRSS()
			if err != nil {
				return p, err
			}
			p.seconds = append(p.seconds, d.Seconds())
			p.rssMB = append(p.rssMB, float64(rss)/1e6)
		}
		if time.Since(start) >= window || (limit > 0 && p.attempted >= limit) {
			break
		}
	}
	if len(p.seconds) == 0 {
		return p, fmt.Errorf("all %d passes failed", p.attempted)
	}
	return p, nil
}

// measureRun is the untraced run: set up repeatedly (see setupRepeats),
// then run passes for window, and report the end-to-end metrics.
func measureRun(ctx context.Context, w workload, window time.Duration) (result, error) {
	var setups []float64
	var spent time.Duration
	for len(setups) < setupRepeats || spent < setupMinTime {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		spent += d
	}
	runtime.GC()
	before := snapshot()
	p, err := runPasses(ctx, w, window, 0, nil)
	if err != nil {
		return result{}, err
	}
	after := snapshot()

	// CPU and allocation are charged to the passes that succeeded, so
	// failing passes can only make them read worse.
	n := float64(len(p.seconds))
	summarize("setup", setups)
	summarize("pass", p.seconds)
	return result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":           {Value: median(setups)},
			"pass_p50_s":        {Value: median(p.seconds)},
			"cpu_s_per_pass":    {Value: (after.cpu - before.cpu).Seconds() / n},
			"alloc_mb_per_pass": {Value: float64(after.totalAlloc-before.totalAlloc) / 1e6 / n},
			"peak_rss_mb":       {Value: median(p.rssMB)},
		},
	}, nil
}

// summarize prints a timing's median and tail with its sample count.
func summarize(name string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(os.Stderr, "shadowbench: %s n=%d p25=%.6fs p50=%.6fs p75=%.6fs", name, len(xs), q1, q2, q3)
	if p, v, ok := tailPercentile(xs); ok {
		fmt.Fprintf(os.Stderr, " p%g=%.6fs", p, v)
	}
	fmt.Fprintln(os.Stderr)
}

// traceRun is the traced run: one set-up, untraced passes, the same
// passes traced (with a CPU profile), then the layer ladder. It reports
// the per-layer metrics and writes the spans to out/<workload>.spans.jsonl.
func traceRun(ctx context.Context, e *env, name string, w workload, window time.Duration) (result, error) {
	if err := w.setup(ctx); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	// Each phase gets three tenths of the window, and at most 20 passes so
	// the span file stays small; the ladder takes the rest.
	phase := window * 3 / 10
	const maxPasses = 20
	plain, err := runPasses(ctx, w, phase, maxPasses, nil)
	if err != nil {
		return result{}, err
	}

	profPath := filepath.Join(e.dir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	tr := newTracer()
	traced, err := runPasses(ctx, w, phase, maxPasses, tr)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	summarize("untraced pass", plain.seconds)
	summarize("traced pass", traced.seconds)

	m := tr.workloadMetrics(e.par)
	m["bench.trace_overhead"] = metric{Value: median(traced.seconds)/median(plain.seconds) - 1}
	shares, err := profileShares(e.exe, profPath)
	if err != nil {
		return result{}, err
	}
	for k, v := range shares {
		m[k] = metric{Value: v}
	}
	checks, failedChecks, err := runLadder(ctx, e, tr, m)
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}

	out := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	spans := filepath.Join(out, name+".spans.jsonl")
	if err := tr.writeSpans(spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "shadowbench: spans written to %s\n", spans)
	tr.printSelfTimes(os.Stderr)

	failed := plain.failed + traced.failed + failedChecks
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted + checks,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// workloadMetrics derives the per-layer metrics of the traced passes: the
// engine's per-pass accounting and the shares of pass time each layer
// took. It runs before the ladder, so only pass spans count.
func (t *tracer) workloadMetrics(par int) map[string]metric {
	t.mu.Lock()
	st, passes, wall := t.stats, float64(t.passes), float64(t.passWallNS)
	getErrs, streamErrs := t.getErrors, t.streamErrs
	t.mu.Unlock()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]metric{
		"engine.cells":     {Value: ratio(float64(st.Cells), passes)},
		"engine.hits":      {Value: ratio(float64(st.Hits), passes)},
		"engine.simulated": {Value: ratio(float64(st.Simulated), passes)},
		"engine.pool_util": {Value: ratio(float64(t.spanTotal("engine.cell")), float64(par)*wall)},
		"cache.hit_ratio":  {Value: ratio(float64(st.Hits), float64(st.Cells))},
		"cache.disk.get_share": {
			Value: ratio(float64(t.spanTotal("cache.disk.get")), float64(par)*wall),
		},
		"farm.stream_share":  {Value: ratio(float64(t.spanTotal("cache.remote.stream")), wall)},
		"cache.get_errors":   {Value: float64(getErrs)},
		"farm.stream_errors": {Value: float64(streamErrs)},
	}
}
