package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// probeSuite is a representative 6-benchmark slice (one per behavioural
// class) so shape tests run in seconds; the full 22-benchmark matrix runs
// in the benchmark harness and cmd/shadowbinding.
func probeSuite(t *testing.T) []workloads.Profile {
	t.Helper()
	var out []workloads.Profile
	for _, name := range []string{
		"503.bwaves",    // streams well, no shadows
		"531.deepsjeng", // indirect gates + random branches
		"538.imagick",   // compute chains, NDA-sensitive
		"548.exchange2", // forwarding-error anomaly
		"505.mcf",       // memory-bound pointer code
		"525.x264",      // high ILP
	} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func probeOptions() Options {
	o := DefaultOptions()
	o.WarmupCycles = 5_000
	o.MeasureCycles = 20_000
	return o
}

func probeMatrix(t *testing.T, configs []core.Config) *Matrix {
	t.Helper()
	m, err := sweep(context.Background(), configs, core.SchemeKinds(), probeSuite(t), probeOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatrixShapeMega(t *testing.T) {
	m := probeMatrix(t, []core.Config{core.MegaConfig()})
	base := m.MeanIPC("mega", core.KindBaseline)
	if base < 0.8 || base > 2.0 {
		t.Errorf("mega baseline IPC %.3f implausible", base)
	}
	for _, kind := range core.SecureSchemeKinds() {
		rel := m.NormIPC("mega", kind)
		if rel <= 0 || rel > 1.001 {
			t.Errorf("%s: relative IPC %.3f out of range", kind, rel)
		}
	}
	// The paper's ordering on the Mega configuration: NDA loses the most
	// IPC; STT-Issue is at least as good as STT-Rename.
	if m.NormIPC("mega", core.KindNDA) >= m.NormIPC("mega", core.KindSTTIssue) {
		t.Errorf("NDA (%.3f) must lose more IPC than STT-Issue (%.3f)",
			m.NormIPC("mega", core.KindNDA), m.NormIPC("mega", core.KindSTTIssue))
	}
	if m.NormIPC("mega", core.KindSTTIssue)+0.01 < m.NormIPC("mega", core.KindSTTRename) {
		t.Errorf("STT-Issue (%.3f) must not be clearly worse than STT-Rename (%.3f)",
			m.NormIPC("mega", core.KindSTTIssue), m.NormIPC("mega", core.KindSTTRename))
	}
}

func TestMatrixWidthTrend(t *testing.T) {
	m := probeMatrix(t, []core.Config{core.SmallConfig(), core.MegaConfig()})
	// Baseline IPC grows with width.
	if m.MeanIPC("mega", core.KindBaseline) <= m.MeanIPC("small", core.KindBaseline) {
		t.Errorf("mega baseline IPC (%.3f) must exceed small (%.3f)",
			m.MeanIPC("mega", core.KindBaseline), m.MeanIPC("small", core.KindBaseline))
	}
	// Section 8.2: relative IPC of STT worsens on the wider core.
	for _, kind := range []core.SchemeKind{core.KindSTTRename, core.KindSTTIssue} {
		if m.NormIPC("mega", kind) > m.NormIPC("small", kind)+0.02 {
			t.Errorf("%s: relative IPC improved with width (small %.3f, mega %.3f)",
				kind, m.NormIPC("small", kind), m.NormIPC("mega", kind))
		}
	}
}

func TestPerformanceFoldsTiming(t *testing.T) {
	m := probeMatrix(t, []core.Config{core.MegaConfig()})
	// STT-Rename's performance on Mega must be dragged below its IPC by
	// the ~80% timing factor.
	perf := m.Performance("mega", core.KindSTTRename)
	ipc := m.NormIPC("mega", core.KindSTTRename)
	if perf >= ipc {
		t.Errorf("performance (%.3f) must be below relative IPC (%.3f) for STT-Rename", perf, ipc)
	}
	// NDA's timing is ~1.0, so performance ≈ relative IPC.
	dn := m.Performance("mega", core.KindNDA) - m.NormIPC("mega", core.KindNDA)
	if dn < -0.02 || dn > 0.02 {
		t.Errorf("NDA performance (%.3f) should track its relative IPC (%.3f)",
			m.Performance("mega", core.KindNDA), m.NormIPC("mega", core.KindNDA))
	}
}

func TestFigureEmitters(t *testing.T) {
	m := probeMatrix(t, []core.Config{core.SmallConfig(), core.MegaConfig()})
	for name, s := range map[string]string{
		"Table1":   Table1(m),
		"Figure6":  Figure6(m),
		"Figure7":  Figure7(m),
		"Figure8":  Figure8(m),
		"Figure9":  Figure9(m.Configs),
		"Figure10": Figure10(m),
		"Table3":   Table3(m),
		"Table4":   Table4(),
	} {
		if len(s) < 100 {
			t.Errorf("%s: suspiciously short output", name)
		}
		if strings.Contains(s, "NaN") || strings.Contains(s, "%!") {
			t.Errorf("%s: formatting artifact in output:\n%s", name, s)
		}
	}
}

func TestTable5Emitter(t *testing.T) {
	boom := probeMatrix(t, []core.Config{core.MediumConfig(), core.MegaConfig()})
	gem5, err := sweep(context.Background(), []core.Config{core.Gem5STTConfig(), core.Gem5NDAConfig()},
		core.SchemeKinds(), probeSuite(t), probeOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := Table5(boom, gem5)
	if !strings.Contains(s, "gem5-stt") || !strings.Contains(s, "gem5-nda") {
		t.Errorf("Table5 missing gem5 rows:\n%s", s)
	}
	if strings.Contains(s, "NaN") {
		t.Errorf("Table5 contains NaN:\n%s", s)
	}
}

func TestRunOneRejectsEarlyHalt(t *testing.T) {
	p, err := workloads.ByName("503.bwaves")
	if err != nil {
		t.Fatal(err)
	}
	p.Iters = 8 // far too short for the window
	if _, err := RunOne(core.MegaConfig(), core.KindBaseline, p, probeOptions()); err == nil {
		t.Error("expected error for a proxy that halts inside the window")
	}
}

func TestCellLookup(t *testing.T) {
	m := probeMatrix(t, []core.Config{core.MegaConfig()})
	if _, ok := m.Cell("mega", core.KindBaseline); !ok {
		t.Error("mega/baseline cell missing")
	}
	if _, ok := m.Cell("giga", core.KindBaseline); ok {
		t.Error("unknown config should miss")
	}
	if m.BenchNormIPC("mega", core.KindNDA, "503.bwaves") <= 0 {
		t.Error("per-benchmark normalized IPC missing")
	}
	if m.BenchNormIPC("mega", core.KindNDA, "999.none") != 0 {
		t.Error("unknown benchmark should return 0")
	}
}
