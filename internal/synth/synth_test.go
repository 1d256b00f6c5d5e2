package synth

import (
	"math"
	"testing"

	"repro/internal/core"
)

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// TestBaselineFrequencies checks the calibrated baseline clock against the
// paper's Figure 9 axis values.
func TestBaselineFrequencies(t *testing.T) {
	want := map[string]float64{"small": 160, "medium": 127, "large": 98, "mega": 81}
	for _, cfg := range core.Configs() {
		f := FrequencyMHz(cfg, core.KindBaseline)
		if !within(f, want[cfg.Name], 1.0) {
			t.Errorf("%s baseline = %.1f MHz, want %.0f", cfg.Name, f, want[cfg.Name])
		}
	}
}

// TestRelativeTimingMega checks the headline Figure 9/10 numbers: on the
// Mega BOOM, STT-Rename reaches only ~80% of baseline frequency, STT-Issue
// ~87%, and NDA matches or slightly beats baseline.
func TestRelativeTimingMega(t *testing.T) {
	mega := core.MegaConfig()
	cases := []struct {
		kind core.SchemeKind
		want float64
		tol  float64
	}{
		{core.KindSTTRename, 0.79, 0.02},
		{core.KindSTTIssue, 0.87, 0.02},
		{core.KindNDA, 1.00, 0.01},
	}
	for _, c := range cases {
		got := RelativeTiming(mega, c.kind)
		if !within(got, c.want, c.tol) {
			t.Errorf("mega %s relative timing = %.3f, want %.2f±%.2f", c.kind, got, c.want, c.tol)
		}
	}
}

// TestTimingScalingShapes checks the paper's scaling claims across widths
// (Section 8.3): STT-Rename's relative timing degrades monotonically and
// steeply with width; STT-Issue pays a higher flat cost on small cores but
// scales more gracefully; NDA is width-independent.
func TestTimingScalingShapes(t *testing.T) {
	cfgs := core.Configs()
	var relRename, relIssue, relNDA []float64
	for _, cfg := range cfgs {
		relRename = append(relRename, RelativeTiming(cfg, core.KindSTTRename))
		relIssue = append(relIssue, RelativeTiming(cfg, core.KindSTTIssue))
		relNDA = append(relNDA, RelativeTiming(cfg, core.KindNDA))
	}
	for i := 1; i < len(relRename); i++ {
		if relRename[i] > relRename[i-1]+1e-9 {
			t.Errorf("STT-Rename relative timing must not improve with width: %v", relRename)
		}
	}
	// Small cores: STT-Issue is worse than STT-Rename (flat cost).
	if relIssue[0] >= relRename[0] {
		t.Errorf("on Small, STT-Issue (%.3f) must be worse than STT-Rename (%.3f)", relIssue[0], relRename[0])
	}
	// Wide cores: the ordering flips (Section 4.4).
	if relIssue[3] <= relRename[3] {
		t.Errorf("on Mega, STT-Issue (%.3f) must beat STT-Rename (%.3f)", relIssue[3], relRename[3])
	}
	for _, r := range relNDA {
		if !within(r, 1.0, 0.01) {
			t.Errorf("NDA relative timing must stay ≈1.0, got %v", relNDA)
		}
	}
}

// TestAreaRatiosMega checks Table 4 (LUTs and FFs at Mega).
func TestAreaRatiosMega(t *testing.T) {
	mega := core.MegaConfig()
	cases := []struct {
		kind            core.SchemeKind
		wantLUT, wantFF float64
		tolLUT, tolFF   float64
	}{
		{core.KindSTTRename, 1.060, 1.094, 0.01, 0.012},
		{core.KindSTTIssue, 1.059, 1.039, 0.01, 0.012},
		{core.KindNDA, 0.980, 1.027, 0.01, 0.012},
	}
	for _, c := range cases {
		lut, ff := RelativeArea(mega, c.kind)
		if !within(lut, c.wantLUT, c.tolLUT) {
			t.Errorf("%s LUT ratio = %.3f, want %.3f", c.kind, lut, c.wantLUT)
		}
		if !within(ff, c.wantFF, c.tolFF) {
			t.Errorf("%s FF ratio = %.3f, want %.3f", c.kind, ff, c.wantFF)
		}
	}
}

// TestAreaStructure checks structural facts: STT-Rename's FF overhead
// exceeds STT-Issue's (checkpoints, Section 8.5), and NDA saves LUTs.
func TestAreaStructure(t *testing.T) {
	for _, cfg := range core.Configs() {
		_, ffRen := RelativeArea(cfg, core.KindSTTRename)
		_, ffIss := RelativeArea(cfg, core.KindSTTIssue)
		lutNDA, _ := RelativeArea(cfg, core.KindNDA)
		if ffRen <= ffIss {
			t.Errorf("%s: STT-Rename FF ratio (%.3f) must exceed STT-Issue's (%.3f)", cfg.Name, ffRen, ffIss)
		}
		if lutNDA >= 1.0 {
			t.Errorf("%s: NDA must reduce LUTs, got %.3f", cfg.Name, lutNDA)
		}
		if BaselineArea(cfg).LUTs <= 0 || BaselineArea(cfg).FFs <= 0 {
			t.Errorf("%s: non-positive baseline area", cfg.Name)
		}
	}
	// Baseline area grows with width.
	a := BaselineArea(core.SmallConfig())
	b := BaselineArea(core.MegaConfig())
	if b.LUTs <= a.LUTs || b.FFs <= a.FFs {
		t.Error("baseline area must grow with configuration size")
	}
}

// TestPowerRatios checks Table 4's power column.
func TestPowerRatios(t *testing.T) {
	mega := core.MegaConfig()
	cases := []struct {
		kind core.SchemeKind
		want float64
	}{
		{core.KindBaseline, 1.0},
		{core.KindSTTRename, 1.008},
		{core.KindSTTIssue, 1.026},
		{core.KindNDA, 0.936},
	}
	for _, c := range cases {
		got := RelativePower(mega, c.kind)
		if !within(got, c.want, 0.012) {
			t.Errorf("%s power ratio = %.3f, want %.3f", c.kind, got, c.want)
		}
	}
}

func TestChainDepthGrowsWithWidth(t *testing.T) {
	prev := 0
	for _, cfg := range core.Configs() {
		d := ChainDepth(cfg)
		if d <= prev && cfg.Width > 1 {
			t.Errorf("%s: chain depth %d did not grow", cfg.Name, d)
		}
		prev = d
	}
}

// TestFrequencyPeriodConsistency: frequency and period must be inverses,
// and unnamed configs fall back to the width model sanely.
func TestFrequencyPeriodConsistency(t *testing.T) {
	cfg := core.MegaConfig()
	cfg.Name = "custom-4wide"
	p := PeriodPs(cfg, core.KindBaseline)
	f := FrequencyMHz(cfg, core.KindBaseline)
	if !within(p*f, 1e6, 1) {
		t.Errorf("period × frequency = %.1f, want 1e6", p*f)
	}
	if p < BaselinePeriodPs(core.SmallConfig()) {
		t.Error("4-wide custom config cannot be faster than Small")
	}
}

// TestEverySecureSchemeHasCoefficients: the synthesis model switches on
// the scheme kind, and a kind it does not know falls through to the
// baseline's timing, area and power. Every secure roster row must
// therefore carry its own coefficients, so a new row without them fails
// here instead of printing the baseline's cost. Area and activity differ
// from the baseline at every Table 1 configuration; the added delay only
// at some, because STT-Rename's taint chain fits in the rename stage's
// slack on the Small and Medium cores (Figure 9).
func TestEverySecureSchemeHasCoefficients(t *testing.T) {
	for _, kind := range core.SecureSchemeKinds() {
		if f := activityFactor(kind); f == 1 {
			t.Errorf("%s: activityFactor = 1, the baseline's", kind)
		}
		delayed := false
		for _, cfg := range core.Configs() {
			delayed = delayed || AddedDelayPs(cfg, kind) != 0
			if a := SchemeDelta(cfg, kind); a == (Area{}) {
				t.Errorf("%s/%s: SchemeDelta = zero Area, the baseline's", kind, cfg.Name)
			}
		}
		if !delayed {
			t.Errorf("%s: AddedDelayPs = 0 at every configuration, the baseline's", kind)
		}
	}
}
