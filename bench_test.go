package shadowbinding

import (
	"context"
	"strings"
	"sync"
	"testing"

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
