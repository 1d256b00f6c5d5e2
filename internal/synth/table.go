package synth

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// SummaryTable renders the synthesis model's headline numbers for every
// Table 1 configuration and scheme in one place: absolute
// frequency, relative timing (Figures 9/10), and relative LUTs, FFs, and
// power (Table 4). It is the Table-1-style companion the harness figures
// draw their synthesis inputs from, pinned as a golden file so any
// coefficient change is a reviewed diff.
func SummaryTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Synthesis model summary (per Table 1 configuration and scheme)\n")
	fmt.Fprintf(&b, "%-8s %-12s %9s %8s %8s %8s %8s\n",
		"config", "scheme", "freq-MHz", "timing", "LUTs", "FFs", "power")
	for _, cfg := range core.Configs() {
		for _, kind := range core.SchemeKinds() {
			luts, ffs := RelativeArea(cfg, kind)
			fmt.Fprintf(&b, "%-8s %-12s %9.1f %8.3f %8.3f %8.3f %8.3f\n",
				cfg.Name, kind,
				FrequencyMHz(cfg, kind), RelativeTiming(cfg, kind),
				luts, ffs, RelativePower(cfg, kind))
		}
	}
	b.WriteString("\ntiming/LUTs/FFs/power are relative to the same configuration's baseline\n")
	return b.String()
}
