package shadowbinding

import (
	"testing"

	"repro/internal/synth"
	"repro/internal/workloads"
)

// Ablation benchmarks: the design choices the paper argues for. The
// tables and figures themselves render through `-experiment`, are pinned
// by the harness goldens, and are timed by the repository benchmark in
// bench/.
//
// Run them with:
//
//	go test -run '^$' -bench=Ablation

func benchOptions() Options {
	o := DefaultOptions()
	o.WarmupCycles = 5_000
	o.MeasureCycles = 20_000
	return o
}

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
