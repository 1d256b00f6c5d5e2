package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/synth"
)

// RedwoodCoveIPC is the paper's reference point for a leading-edge core:
// Intel Redwood Cove's SPEC2017 IPC (Table 1).
const RedwoodCoveIPC = 2.03

// Table1 renders the configuration table: key characteristics and the
// measured baseline IPC of each configuration (paper Table 1).
func Table1(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: BOOM configurations and measured baseline IPC\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s\n", "", "Small", "Medium", "Large", "Mega", "Intel")
	row := func(label string, f func(c core.Config) string, intel string) {
		fmt.Fprintf(&b, "%-14s", label)
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8s", f(cfg))
		}
		fmt.Fprintf(&b, " %8s\n", intel)
	}
	row("Core Width", func(c core.Config) string { return fmt.Sprint(c.Width) }, "6")
	row("Memory Ports", func(c core.Config) string { return fmt.Sprint(c.MemPorts) }, "3+2")
	row("ROB Entries", func(c core.Config) string { return fmt.Sprint(c.ROBSize) }, "512")
	row("SPEC2017 IPC", func(c core.Config) string {
		return fmt.Sprintf("%.3f", m.MeanIPC(c.Name, core.KindBaseline))
	}, fmt.Sprintf("%.2f", RedwoodCoveIPC))
	fmt.Fprintf(&b, "(paper baseline IPC: 0.46 / 0.60 / 0.943 / 1.27)\n")
	return b.String()
}

// Figure6 renders per-benchmark IPC normalized to baseline on the Mega
// configuration (paper Figure 6), plus the suite means.
func Figure6(m *Matrix) string {
	return perBenchNormIPC(m, "mega",
		"Figure 6: IPC normalized to baseline, Mega configuration",
		"(paper means: STT-Rename 0.819, STT-Issue 0.845, NDA 0.736)")
}

// SecureSchemes returns the secure schemes actually swept into this
// matrix, in sweep order. Figures iterate these — not the whole roster —
// so a filtered sweep renders only real cells (no fabricated zeros).
func (m *Matrix) SecureSchemes() []core.SchemeKind {
	secure := make(map[core.SchemeKind]bool)
	for _, k := range core.SecureSchemeKinds() {
		secure[k] = true
	}
	var out []core.SchemeKind
	for _, k := range m.Schemes {
		if secure[k] {
			out = append(out, k)
		}
	}
	return out
}

// paperRoster is the scheme set of the paper's own evaluation. The
// paper-reproduction figures (6, 7, 8, 10, Table 3) render exactly these
// columns — their captions cite the paper's numbers — while extension
// schemes (DoM, InvisiSpec) appear only in FigureExt.
var paperRoster = map[core.SchemeKind]bool{
	core.KindSTTRename: true,
	core.KindSTTIssue:  true,
	core.KindNDA:       true,
}

// PaperSecureSchemes returns the paper's secure schemes actually swept
// into this matrix, in sweep order: the intersection keeps filtered
// sweeps rendering only real cells while pinning the paper figures to
// the paper's column layout.
func (m *Matrix) PaperSecureSchemes() []core.SchemeKind {
	var out []core.SchemeKind
	for _, k := range m.Schemes {
		if paperRoster[k] {
			out = append(out, k)
		}
	}
	return out
}

func perBenchNormIPC(m *Matrix, cfgName, title, footer string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s", "benchmark")
	for _, kind := range m.PaperSecureSchemes() {
		fmt.Fprintf(&b, " %11s", kind)
	}
	fmt.Fprintf(&b, "\n")
	for _, prof := range m.Benches {
		fmt.Fprintf(&b, "%-18s", prof.Name)
		for _, kind := range m.PaperSecureSchemes() {
			fmt.Fprintf(&b, " %11.3f", m.BenchNormIPC(cfgName, kind, prof.Name))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "%-18s", "arithmetic-mean")
	for _, kind := range m.PaperSecureSchemes() {
		fmt.Fprintf(&b, " %11.3f", m.NormIPC(cfgName, kind))
	}
	fmt.Fprintf(&b, "\n%s\n", footer)
	return b.String()
}

// Figure7 renders normalized IPC for every configuration, one block per
// scheme (paper Figure 7a-c).
func Figure7(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: normalized IPC by configuration\n")
	for _, kind := range m.PaperSecureSchemes() {
		fmt.Fprintf(&b, "\n(%s)\n%-18s", kind, "benchmark")
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8s", cfg.Name)
		}
		fmt.Fprintf(&b, "\n")
		for _, prof := range m.Benches {
			fmt.Fprintf(&b, "%-18s", prof.Name)
			for _, cfg := range m.Configs {
				fmt.Fprintf(&b, " %8.3f", m.BenchNormIPC(cfg.Name, kind, prof.Name))
			}
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "%-18s", "arithmetic-mean")
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8.3f", m.NormIPC(cfg.Name, kind))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// trend fits relMetric (per config) against the baseline absolute IPC and
// returns the fitted points plus full and halved-slope Redwood Cove
// extrapolations.
func (m *Matrix) trend(rel func(cfgName string) float64) (xs, ys []float64, atRWC, atRWCHalved float64, err error) {
	for _, cfg := range m.Configs {
		xs = append(xs, m.MeanIPC(cfg.Name, core.KindBaseline))
		ys = append(ys, rel(cfg.Name))
	}
	slope, intercept, err := stats.LinReg(xs, ys)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	lastX := xs[len(xs)-1]
	return xs, ys, stats.Extrapolate(slope, intercept, RedwoodCoveIPC),
		stats.HalvedSlopeExtrapolate(slope, intercept, lastX, RedwoodCoveIPC), nil
}

// Figure8 renders relative IPC against absolute baseline IPC with the
// linear trend's Redwood Cove estimate (paper Figure 8).
func Figure8(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: relative IPC vs absolute baseline IPC (trend to Redwood Cove, IPC %.2f)\n", RedwoodCoveIPC)
	fmt.Fprintf(&b, "%-12s", "abs IPC")
	for _, cfg := range m.Configs {
		fmt.Fprintf(&b, " %8.3f", m.MeanIPC(cfg.Name, core.KindBaseline))
	}
	fmt.Fprintf(&b, " %10s\n", "RWC est.")
	for _, kind := range m.PaperSecureSchemes() {
		_, ys, atRWC, _, err := m.trend(func(n string) float64 { return m.NormIPC(n, kind) })
		if err != nil {
			fmt.Fprintf(&b, "%-12s trend error: %v\n", kind, err)
			continue
		}
		fmt.Fprintf(&b, "%-12s", kind)
		for _, y := range ys {
			fmt.Fprintf(&b, " %8.3f", y)
		}
		fmt.Fprintf(&b, " %10.3f\n", atRWC)
	}
	fmt.Fprintf(&b, "(paper: relative IPC worsens with width; ~20%%+ loss projected for leading cores)\n")
	return b.String()
}

// Figure9 renders achieved frequency per configuration and scheme from the
// synthesis model (paper Figure 9).
func Figure9(configs []core.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: achieved frequency (MHz) from the synthesis model\n")
	fmt.Fprintf(&b, "%-12s", "scheme")
	for _, cfg := range configs {
		fmt.Fprintf(&b, " %8s", cfg.Name)
	}
	fmt.Fprintf(&b, "\n")
	for _, kind := range core.SchemeKinds() {
		fmt.Fprintf(&b, "%-12s", kind)
		for _, cfg := range configs {
			fmt.Fprintf(&b, " %8.1f", synth.FrequencyMHz(cfg, kind))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "(paper Mega: STT-Rename ≈80%% of baseline frequency; NDA ≈ baseline)\n")
	return b.String()
}

// Figure10 renders relative timing against absolute baseline IPC (paper
// Figure 10).
func Figure10(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: relative timing vs absolute baseline IPC\n")
	fmt.Fprintf(&b, "%-12s", "abs IPC")
	for _, cfg := range m.Configs {
		fmt.Fprintf(&b, " %8.3f", m.MeanIPC(cfg.Name, core.KindBaseline))
	}
	fmt.Fprintf(&b, "\n")
	for _, kind := range m.PaperSecureSchemes() {
		fmt.Fprintf(&b, "%-12s", kind)
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8.3f", synth.RelativeTiming(cfg, kind))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// FigureExt renders the extended scheme comparison: every secure scheme
// — the paper's three plus DoM and InvisiSpec — side by side on every
// configuration, as normalized IPC and as the paper's performance metric
// (IPC × relative timing). It is the 6-scheme head-to-head the
// secure-speculation literature usually tabulates; the `fig_ext`
// experiment pins its matrix to ALL schemes, so the comparison is
// complete even under a -schemes filter.
func FigureExt(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extended comparison: %d schemes across all configurations\n", len(m.Schemes))
	fmt.Fprintf(&b, "\nnormalized IPC (scheme / baseline)\n%-12s", "scheme")
	for _, cfg := range m.Configs {
		fmt.Fprintf(&b, " %8s", cfg.Name)
	}
	fmt.Fprintf(&b, "\n")
	for _, kind := range m.SecureSchemes() {
		fmt.Fprintf(&b, "%-12s", kind)
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8.3f", m.NormIPC(cfg.Name, kind))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "\nnormalized performance (IPC x relative timing)\n%-12s", "scheme")
	for _, cfg := range m.Configs {
		fmt.Fprintf(&b, " %8s", cfg.Name)
	}
	fmt.Fprintf(&b, "\n")
	for _, kind := range m.SecureSchemes() {
		fmt.Fprintf(&b, "%-12s", kind)
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8.3f", m.Performance(cfg.Name, kind))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "(mechanisms: STT blocks tainted transmitters, NDA delays broadcasts,\n")
	fmt.Fprintf(&b, " DoM delays speculative L1 misses, InvisiSpec buffers + re-exposes loads)\n")
	return b.String()
}

// Performance returns IPC×timing relative to baseline for one cell (the
// paper's performance metric, Section 8.4).
func (m *Matrix) Performance(cfgName string, kind core.SchemeKind) float64 {
	cfg, ok := m.configByName(cfgName)
	if !ok {
		return 0
	}
	return m.NormIPC(cfgName, kind) * synth.RelativeTiming(cfg, kind)
}

func (m *Matrix) configByName(name string) (core.Config, bool) {
	for _, cfg := range m.Configs {
		if cfg.Name == name {
			return cfg, true
		}
	}
	return core.Config{}, false
}

// Table3 renders normalized performance per configuration with the
// halved-slope Redwood Cove estimate (paper Figure 1 / Table 3).
func Table3(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 / Figure 1: normalized performance (IPC x timing)\n")
	fmt.Fprintf(&b, "%-12s", "scheme")
	for _, cfg := range m.Configs {
		fmt.Fprintf(&b, " %8s", cfg.Name)
	}
	fmt.Fprintf(&b, " %8s\n", "Intel")
	paper := map[core.SchemeKind][5]float64{
		core.KindSTTRename: {0.98, 0.93, 0.84, 0.65, 0.53},
		core.KindSTTIssue:  {0.98, 0.86, 0.81, 0.73, 0.62},
		core.KindNDA:       {1.01, 0.88, 0.80, 0.78, 0.66},
	}
	for _, kind := range m.PaperSecureSchemes() {
		_, _, _, atRWCHalved, err := m.trend(func(n string) float64 { return m.Performance(n, kind) })
		fmt.Fprintf(&b, "%-12s", kind)
		for _, cfg := range m.Configs {
			fmt.Fprintf(&b, " %8.3f", m.Performance(cfg.Name, kind))
		}
		if err == nil {
			fmt.Fprintf(&b, " %8.3f\n", atRWCHalved)
		} else {
			fmt.Fprintf(&b, " %8s\n", "n/a")
		}
		if p, ok := paper[kind]; ok {
			fmt.Fprintf(&b, "%-12s %8.2f %8.2f %8.2f %8.2f %8.2f\n", "  (paper)", p[0], p[1], p[2], p[3], p[4])
		}
	}
	return b.String()
}

// Table4 renders area and power ratios at the Mega configuration (paper
// Table 4).
func Table4() string {
	mega := core.MegaConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: area and power normalized to baseline (Mega, 50 MHz point)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "scheme", "LUTs", "FFs", "Power")
	paper := map[core.SchemeKind][3]float64{
		core.KindSTTRename: {1.060, 1.094, 1.008},
		core.KindSTTIssue:  {1.059, 1.039, 1.026},
		core.KindNDA:       {0.980, 1.027, 0.936},
	}
	for _, kind := range core.SecureSchemeKinds() {
		lut, ff := synth.RelativeArea(mega, kind)
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %8.3f\n", kind, lut, ff, synth.RelativePower(mega, kind))
		if p, ok := paper[kind]; ok {
			fmt.Fprintf(&b, "%-12s %8.3f %8.3f %8.3f\n", "  (paper)", p[0], p[1], p[2])
		}
	}
	return b.String()
}

// Table5 renders IPC loss per configuration plus the gem5-configuration
// comparison (paper Table 5). gem5 is a second Matrix run on the
// gem5-style configurations over the 19 comparable benchmarks.
func Table5(boom, gem5 *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: IPC loss (%%) per configuration (19-benchmark gem5-comparable suite)\n")
	fmt.Fprintf(&b, "%-12s %9s %11s %10s %8s\n", "config", "base IPC", "STT-Rename", "STT-Issue", "NDA")
	// loss renders "n/a" for schemes absent from a filtered sweep rather
	// than a fabricated 100% loss.
	loss := func(m *Matrix, cfgName string, kind core.SchemeKind) string {
		if _, ok := m.Cell(cfgName, kind); !ok {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*(1-m.NormIPC(cfgName, kind)))
	}
	for _, cfg := range boom.Configs {
		if cfg.Name == "small" {
			continue // the paper reports Medium/Large/Mega
		}
		fmt.Fprintf(&b, "%-12s %9.3f %11s %10s %8s\n", "boom "+cfg.Name,
			boom.MeanIPC(cfg.Name, core.KindBaseline),
			loss(boom, cfg.Name, core.KindSTTRename),
			loss(boom, cfg.Name, core.KindSTTIssue),
			loss(boom, cfg.Name, core.KindNDA))
	}
	for _, cfg := range gem5.Configs {
		switch cfg.Name {
		case "gem5-stt":
			fmt.Fprintf(&b, "%-12s %9.3f %11s %10s %8s\n", cfg.Name,
				gem5.MeanIPC(cfg.Name, core.KindBaseline),
				loss(gem5, cfg.Name, core.KindSTTRename), "n/a", "n/a")
		case "gem5-nda":
			fmt.Fprintf(&b, "%-12s %9.3f %11s %10s %8s\n", cfg.Name,
				gem5.MeanIPC(cfg.Name, core.KindBaseline), "n/a", "n/a",
				loss(gem5, cfg.Name, core.KindNDA))
		}
	}
	fmt.Fprintf(&b, "(paper: Medium 7.3/6.4/10.7, Large 11.3/10.0/18.6, Mega 17.6/15.8/22.4;\n")
	fmt.Fprintf(&b, " gem5 STT 17.2%% at IPC 1.12, gem5 NDA 13.0%% at IPC 0.79)\n")
	return b.String()
}
