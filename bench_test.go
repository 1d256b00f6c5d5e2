package shadowbinding

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// The benchmark harness regenerates every table and figure in the paper's
// evaluation section. The expensive part — the full (configuration ×
// scheme × benchmark) simulation sweep — runs once and is shared by all
// table/figure benchmarks; each benchmark then re-renders its experiment
// and logs it, reporting its headline numbers as metrics.
//
// Run everything with:
//
//	go test -bench=. -benchmem
var (
	evalOnce sync.Once
	evalSess *Session
	evalBoom *Matrix
	evalErr  error
)

func benchOptions() Options {
	o := DefaultOptions()
	o.WarmupCycles = 5_000
	o.MeasureCycles = 20_000
	return o
}

// sharedEval returns the shared session with the paper's two matrices
// (Boom and gem5) already materialized, plus its Boom matrix.
func sharedEval(b *testing.B) (*Session, *Matrix) {
	b.Helper()
	if testing.Short() {
		b.Skip("full matrix sweep skipped with -short")
	}
	evalOnce.Do(func() {
		ctx := context.Background()
		evalSess = NewSession(SessionConfig{Options: benchOptions()})
		if evalBoom, evalErr = evalSess.Matrix(ctx, BoomSpec()); evalErr == nil {
			_, evalErr = evalSess.Matrix(ctx, Gem5Spec())
		}
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return evalSess, evalBoom
}

// sweep materializes one (configs × schemes × benches) matrix through a
// fresh session, so every call simulates every cell.
func sweep(configs []Config, schemes []Scheme, benches []Benchmark, opts Options) (*Matrix, error) {
	s := NewSession(SessionConfig{Options: opts, Schemes: schemes})
	return s.Matrix(context.Background(), MatrixSpec{Name: "sweep", Configs: configs, Benches: benches})
}

func benchExperiment(b *testing.B, id string) string {
	s, _ := sharedEval(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = s.Experiment(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
	return out
}

// BenchmarkTable1_Configs regenerates Table 1: the four BOOM
// configurations and their measured baseline SPEC2017-proxy IPC.
func BenchmarkTable1_Configs(b *testing.B) {
	benchExperiment(b, "table1")
	_, boom := sharedEval(b)
	for _, cfg := range boom.Configs {
		b.ReportMetric(boom.MeanIPC(cfg.Name, Baseline), "baseIPC_"+cfg.Name)
	}
}

// BenchmarkFigure6_NormalizedIPC regenerates Figure 6: per-benchmark IPC
// normalized to baseline on the Mega configuration.
func BenchmarkFigure6_NormalizedIPC(b *testing.B) {
	benchExperiment(b, "fig6")
	_, boom := sharedEval(b)
	b.ReportMetric(boom.NormIPC("mega", STTRename), "relIPC_sttRename")
	b.ReportMetric(boom.NormIPC("mega", STTIssue), "relIPC_sttIssue")
	b.ReportMetric(boom.NormIPC("mega", NDA), "relIPC_nda")
}

// BenchmarkFigure7_IPCByWidth regenerates Figure 7: normalized IPC across
// all four configurations, per scheme.
func BenchmarkFigure7_IPCByWidth(b *testing.B) {
	benchExperiment(b, "fig7")
}

// BenchmarkFigure8_IPCTrend regenerates Figure 8: the relative-IPC trend
// against absolute baseline IPC with the Redwood Cove extrapolation.
func BenchmarkFigure8_IPCTrend(b *testing.B) {
	benchExperiment(b, "fig8")
}

// BenchmarkFigure9_Timing regenerates Figure 9: achieved frequencies from
// the synthesis model.
func BenchmarkFigure9_Timing(b *testing.B) {
	benchExperiment(b, "fig9")
	mega := MegaConfig()
	b.ReportMetric(synth.RelativeTiming(mega, STTRename), "relTiming_sttRename_mega")
	b.ReportMetric(synth.RelativeTiming(mega, NDA), "relTiming_nda_mega")
}

// BenchmarkFigure10_TimingTrend regenerates Figure 10: relative timing
// against absolute baseline IPC.
func BenchmarkFigure10_TimingTrend(b *testing.B) {
	benchExperiment(b, "fig10")
}

// BenchmarkTable3_Performance regenerates Figure 1 / Table 3: normalized
// performance (IPC × timing) with the halved-slope Intel-class estimate.
func BenchmarkTable3_Performance(b *testing.B) {
	benchExperiment(b, "table3")
	_, boom := sharedEval(b)
	b.ReportMetric(boom.Performance("mega", STTRename), "perf_sttRename_mega")
	b.ReportMetric(boom.Performance("mega", STTIssue), "perf_sttIssue_mega")
	b.ReportMetric(boom.Performance("mega", NDA), "perf_nda_mega")
}

// BenchmarkTable4_AreaPower regenerates Table 4: LUT/FF/power ratios at
// the Mega configuration.
func BenchmarkTable4_AreaPower(b *testing.B) {
	benchExperiment(b, "table4")
	mega := MegaConfig()
	lut, ff := synth.RelativeArea(mega, STTRename)
	b.ReportMetric(lut, "LUT_sttRename")
	b.ReportMetric(ff, "FF_sttRename")
	b.ReportMetric(synth.RelativePower(mega, NDA), "power_nda")
}

// BenchmarkTable5_Gem5 regenerates Table 5: IPC loss per configuration
// plus the gem5-style-configuration comparison.
func BenchmarkTable5_Gem5(b *testing.B) {
	benchExperiment(b, "table5")
}

// BenchmarkSecurity_SpectreV1 runs the Section 7 security check: the
// Spectre v1 gadget under all four schemes.
func BenchmarkSecurity_SpectreV1(b *testing.B) {
	if testing.Short() {
		b.Skip("attack matrix skipped with -short")
	}
	var report string
	for i := 0; i < b.N; i++ {
		var err error
		report, err = SecurityReport()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + report)
	if !strings.Contains(report, "true") {
		b.Fatal("baseline did not leak")
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: the design choices DESIGN.md calls out.

// BenchmarkAblation_RenameChain reports the synthesis model's view of the
// STT-Rename same-cycle YRoT chain across widths (Section 4.1/8.3): the
// chain's added critical-path delay and the resulting relative frequency.
func BenchmarkAblation_RenameChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range Configs() {
			_ = synth.AddedDelayPs(cfg, STTRename)
		}
	}
	for _, cfg := range Configs() {
		b.Logf("%-7s chain depth %d, added delay %6.0f ps, relative timing %.3f",
			cfg.Name, synth.ChainDepth(cfg), synth.AddedDelayPs(cfg, STTRename),
			synth.RelativeTiming(cfg, STTRename))
	}
}

// BenchmarkAblation_SplitStoreTaints measures the Section 9.2 store-taint
// optimization on the exchange2 proxy: STT-Rename with unified versus
// split store address/data taints.
func BenchmarkAblation_SplitStoreTaints(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation sweep skipped with -short")
	}
	prof, err := workloads.ByName("548.exchange2")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	run := func(split bool) Run {
		cfg := MegaConfig()
		cfg.SplitStoreTaints = split
		r, err := RunBenchmark(cfg, STTRename, prof.Name, opts)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	var unified, split Run
	for i := 0; i < b.N; i++ {
		unified = run(false)
		split = run(true)
	}
	b.ReportMetric(unified.IPC, "IPC_unified")
	b.ReportMetric(split.IPC, "IPC_split")
	b.Logf("exchange2 STT-Rename: unified taints IPC %.3f (fwd errors %d), split taints IPC %.3f (fwd errors %d)",
		unified.IPC, unified.Stats.MemOrderViolations, split.IPC, split.Stats.MemOrderViolations)
}

// BenchmarkAblation_NDASpecWakeup measures NDA with and without the
// speculative L1-hit wakeup logic it removes (Section 5.1): re-enabling it
// cannot help NDA (dependents still wait for the delayed broadcast), which
// is why removing it is a free timing win.
func BenchmarkAblation_NDASpecWakeup(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation sweep skipped with -short")
	}
	prof, err := workloads.ByName("538.imagick")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	run := func(spec bool) Run {
		cfg := MegaConfig()
		cfg.SpecWakeup = spec
		r, err := RunBenchmark(cfg, NDA, prof.Name, opts)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	var with, without Run
	for i := 0; i < b.N; i++ {
		without = run(false) // the paper's NDA design
		with = run(true)
	}
	b.ReportMetric(without.IPC, "IPC_noSpecWakeup")
	b.ReportMetric(with.IPC, "IPC_specWakeup")
	b.Logf("imagick NDA: without spec wakeup IPC %.3f, with %.3f", without.IPC, with.IPC)
}

// BenchmarkAblation_BroadcastBandwidth sweeps the non-speculative-load
// broadcast bandwidth (= memory ports, Section 5.1) on the Mega core under
// NDA, showing the delayed-broadcast drain bottleneck.
func BenchmarkAblation_BroadcastBandwidth(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation sweep skipped with -short")
	}
	prof, err := workloads.ByName("507.cactuBSSN")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	ipcs := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, ports := range []int{1, 2, 4} {
			cfg := MegaConfig()
			cfg.MemPorts = ports
			r, err := RunBenchmark(cfg, NDA, prof.Name, opts)
			if err != nil {
				b.Fatal(err)
			}
			ipcs[ports] = r.IPC
		}
	}
	for _, ports := range []int{1, 2, 4} {
		b.Logf("cactuBSSN NDA, %d broadcast ports: IPC %.3f", ports, ipcs[ports])
	}
}

// BenchmarkCoreMatrixThroughput measures end-to-end simulator throughput
// — simulated cycles per wall-clock second — on the default full matrix
// at -j 1 (single worker, so the number isolates core-model speed from
// pool scaling) and emits the measurement as BENCH_core.json for the
// performance trajectory. With -short a 2-benchmark slice of the matrix
// is measured instead, so the CI bench smoke step stays fast while still
// producing the artifact.
func BenchmarkCoreMatrixThroughput(b *testing.B) {
	benches := Benchmarks()
	label := "default-matrix-j1"
	if testing.Short() {
		var slice []Benchmark
		for _, p := range benches {
			if p.Name == "505.mcf" || p.Name == "525.x264" {
				slice = append(slice, p)
			}
		}
		benches = slice
		label = "short-matrix-j1"
	}
	opts := DefaultOptions()
	opts.Parallelism = 1

	var simCycles uint64
	var cells int
	b.ResetTimer()
	m0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		m, err := sweep(Configs(), Schemes(), benches, opts)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += m.TotalSimCycles()
		cells += m.NumRuns()
	}
	rep := harness.NewBenchReport(label, cells, simCycles, b.Elapsed(), 1).WithAllocs(mallocsNow() - m0)
	b.ReportMetric(rep.SimCyclesPerSec, "simCycles/s")
	b.ReportMetric(rep.AllocsPerCycle, "allocs/simCycle")
	if err := harness.WriteBenchReport("BENCH_core.json", rep); err != nil {
		b.Fatal(err)
	}
	b.Log(rep)
}

// BenchmarkLongMissMatrixThroughput measures simulator throughput on the
// miss-dominated corner of the matrix: the DRAM-bound pointer-chase and
// indirect-load proxies under the two schemes that serialize on misses
// (Delay-on-Miss parks speculative misses until the visibility point;
// InvisiSpec stalls commit on exposure re-accesses). These cells spend most
// of their simulated cycles with no stage able to make progress, which is
// exactly where the core's idle-cycle skipping pays — the label exists to
// keep that win ratcheted. Runs under -short too: the CI bench gate checks
// it alongside short-matrix-j1.
func BenchmarkLongMissMatrixThroughput(b *testing.B) {
	var benches []Benchmark
	for _, p := range Benchmarks() {
		if p.Name == "505.mcf" || p.Name == "520.omnetpp" {
			benches = append(benches, p)
		}
	}
	schemes := []Scheme{DoM, InvisiSpec}
	opts := DefaultOptions()
	opts.Parallelism = 1

	var simCycles uint64
	var cells int
	b.ResetTimer()
	m0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		m, err := sweep(Configs(), schemes, benches, opts)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += m.TotalSimCycles()
		cells += m.NumRuns()
	}
	rep := harness.NewBenchReport("long-miss-matrix-j1", cells, simCycles, b.Elapsed(), 1).WithAllocs(mallocsNow() - m0)
	b.ReportMetric(rep.SimCyclesPerSec, "simCycles/s")
	b.ReportMetric(rep.AllocsPerCycle, "allocs/simCycle")
	appendBenchReport(b, "BENCH_core.json", rep)
	b.Log(rep)
}

// BenchmarkSquashMatrixThroughput measures simulator throughput on the
// squash-dominated corner of the matrix: the mispredict-heavy game-tree
// proxies under every scheme. Wrong-path recovery — the ROB walk, arena
// slot recycling, IQ filtering, LSU truncation, checkpoint restore —
// dominates these cells, which is exactly the path the arena's
// generation-counted handles keep allocation-free; the label exists to
// keep that win ratcheted alongside the miss-dominated one. Runs under
// -short too: the CI bench gate checks it alongside short-matrix-j1 and
// long-miss-matrix-j1.
func BenchmarkSquashMatrixThroughput(b *testing.B) {
	var benches []Benchmark
	for _, p := range Benchmarks() {
		if p.Name == "531.deepsjeng" || p.Name == "541.leela" {
			benches = append(benches, p)
		}
	}
	opts := DefaultOptions()
	opts.Parallelism = 1

	var simCycles uint64
	var cells int
	b.ResetTimer()
	m0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		m, err := sweep(Configs(), Schemes(), benches, opts)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += m.TotalSimCycles()
		cells += m.NumRuns()
	}
	rep := harness.NewBenchReport("squash-matrix-j1", cells, simCycles, b.Elapsed(), 1).WithAllocs(mallocsNow() - m0)
	b.ReportMetric(rep.SimCyclesPerSec, "simCycles/s")
	b.ReportMetric(rep.AllocsPerCycle, "allocs/simCycle")
	appendBenchReport(b, "BENCH_core.json", rep)
	b.Log(rep)
}

// mallocsNow reads the process-wide cumulative heap-allocation count; the
// delta across a measured window, amortized over simulated cycles, is the
// allocs/simCycle metric the bench gate holds flat.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkSessionCacheHit measures warm-cache Session throughput: how
// fast already-simulated cells are delivered (cells/s) — the serving path
// behind a warm `-cache` re-run, where the simulator never runs. The
// measurement is appended to BENCH_core.json alongside the cold-path
// simulator-throughput entry, so the performance trajectory tracks both.
func BenchmarkSessionCacheHit(b *testing.B) {
	var benches []Benchmark
	for _, p := range Benchmarks() {
		if p.Name == "505.mcf" || p.Name == "525.x264" {
			benches = append(benches, p)
		}
	}
	opts := benchOptions()
	opts.Parallelism = 1
	spec := MatrixSpec{Name: "cache-hit", Configs: Configs(), Benches: benches}
	cache, err := OpenCache(CacheOptions{})
	if err != nil {
		b.Fatal(err)
	}

	// Cold pass (untimed): populate the shared cache.
	warmup := NewSession(SessionConfig{Options: opts, Cache: cache})
	if _, err := warmup.Matrix(context.Background(), spec); err != nil {
		b.Fatal(err)
	}

	// A single warm render takes well under a millisecond — far too short
	// to gate at a 25% regression threshold under -benchtime=1x (CI).
	// Repeat it a fixed number of times per iteration so the measured
	// window is tens of milliseconds; the reported numbers are rates, so
	// the repetition only stabilizes them.
	const reps = 200
	b.ResetTimer()
	var cells int
	var delivered uint64
	for i := 0; i < b.N; i++ {
		for r := 0; r < reps; r++ {
			s := NewSession(SessionConfig{Options: opts, Cache: cache})
			m, err := s.Matrix(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			st := s.Stats()
			if st.Simulated != 0 {
				b.Fatalf("warm session simulated %d cells, want 0", st.Simulated)
			}
			cells += st.Cells
			delivered += m.TotalSimCycles()
		}
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	rep := harness.NewBenchReport("session-cache-hit", cells, delivered, b.Elapsed(), 1)
	appendBenchReport(b, "BENCH_core.json", rep)
	b.Log(rep)
}

// appendBenchReport merges rep into an existing BENCH_core.json (written
// by BenchmarkCoreMatrixThroughput earlier in the run), replacing any
// prior entry with the same label.
func appendBenchReport(b *testing.B, path string, rep harness.BenchReport) {
	b.Helper()
	var runs []harness.BenchReport
	if f, err := harness.ReadBenchReport(path); err == nil {
		for _, r := range f.Runs {
			if r.Label != rep.Label {
				runs = append(runs, r)
			}
		}
	}
	runs = append(runs, rep)
	if err := harness.WriteBenchReport(path, runs...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatorThroughput measures raw model speed (simulated cycles
// per second) — the practical budget behind every experiment above.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := workloads.ByName("525.x264")
	if err != nil {
		b.Fatal(err)
	}
	prog := prof.Build(4)
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		c := core.MustNew(core.MegaConfig(), core.KindBaseline, prog)
		res, err := c.Run(core.RunLimits{MaxCycles: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simCycles/s")
}
