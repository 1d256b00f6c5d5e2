package core

import (
	"testing"

	"repro/internal/isa"
)

// shadowedMissProgram is the cycle-exact mini-program behind the DoM and
// InvisiSpec unit tests: a cold load feeds a conditional branch (a
// C-shadow that resolves only after a full DRAM round trip), and under
// that shadow sit a second cold load and its dependent add. The branch is
// architecturally not taken, so the shadowed pair commits.
//
//	ld  x5, (x20)      ; cold: the slow shadow source
//	bne x5, x0, skip   ; not taken; casts the C-shadow until x5 arrives
//	ld  x6, (x21)      ; cold speculative load: the scheme's decision point
//	add x7, x6, x6     ; the dependent whose wake-up cycle the tests pin
//	skip: halt
//
// warm, when set, touches x21's line up front so the shadowed load HITS
// the L1 (the DoM may-proceed case).
func shadowedMissProgram(warm bool) *isa.Program {
	b := isa.NewBuilder("shadowed-miss")
	b.Data(0x1000, []uint64{0})
	b.Data(0x2000, []uint64{21})
	b.Li(isa.X20, 0x1000)
	b.Li(isa.X21, 0x2000)
	if warm {
		b.Ld(isa.X9, isa.X21, 0)
	}
	b.Ld(isa.X5, isa.X20, 0)
	b.Bne(isa.X5, isa.X0, "skip")
	b.Ld(isa.X6, isa.X21, 0)
	b.Add(isa.X7, isa.X6, isa.X6)
	b.Label("skip")
	b.Halt()
	return b.MustBuild()
}

// issueCycleObserver records the first real issue cycle of one PC.
type issueCycleObserver struct {
	pc    uint64
	cycle uint64
}

func (o *issueCycleObserver) Observe(ev Event) {
	issued := ev.Stage == StageIssue && ev.Annot&(AnnotSTTNopped|AnnotDoMParked) == 0
	if issued && ev.PC == o.pc && o.cycle == 0 {
		o.cycle = ev.Cycle
	}
}

// pcOf returns the PC of the first instruction matching op and rd.
func pcOf(t *testing.T, prog *isa.Program, op isa.Op, rd isa.Reg) uint64 {
	t.Helper()
	for pc, in := range prog.Insts {
		if in.Op == op && in.Rd == rd {
			return uint64(pc)
		}
	}
	t.Fatalf("no %v rd=%v in program", op, rd)
	return 0
}

// runShadowed runs the mini-program under one scheme and returns the
// dependent add's first issue cycle, the total run length, and the stats.
func runShadowed(t *testing.T, kind SchemeKind, warm bool) (addIssue, cycles uint64, st Stats) {
	t.Helper()
	prog := shadowedMissProgram(warm)
	c := MustNew(MegaConfig(), kind, prog)
	probe := &issueCycleObserver{pc: pcOf(t, prog, isa.Add, isa.X7)}
	c.Observer = probe
	res, err := c.Run(RunLimits{MaxCycles: 10_000})
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if !res.Halted {
		t.Fatalf("%s: did not halt", kind)
	}
	if got := c.ArchReg(isa.X7); got != 42 {
		t.Fatalf("%s: x7 = %d, want 42", kind, got)
	}
	return probe.cycle, res.Cycles, res.Stats
}

// TestDoMDelayAccounting pins Delay-on-Miss cycle accounting on the
// shadowed-miss kernel: the speculative miss is parked until the shadow
// resolves, so the dependent wakes one full memory round trip after the
// baseline's dependent, and exactly one load is accounted as delayed.
func TestDoMDelayAccounting(t *testing.T) {
	baseAdd, baseCycles, baseSt := runShadowed(t, KindBaseline, false)
	domAdd, domCycles, domSt := runShadowed(t, KindDoM, false)

	if domSt.DoMDelayedLoads != 1 {
		t.Errorf("delayed loads = %d, want exactly the one shadowed miss", domSt.DoMDelayedLoads)
	}
	if baseSt.DoMDelayedLoads != 0 {
		t.Errorf("baseline accounted %d DoM delays", baseSt.DoMDelayedLoads)
	}

	// Cycle-exact wake-up pin. Baseline overlaps the shadowed miss with
	// the shadow source's miss, so its dependent wakes right after the
	// shared DRAM round trip; DoM serializes the two misses — the shadowed
	// load starts only at the visibility point — pushing the dependent's
	// issue one full miss latency (L1 4 + L2 14 + DRAM 90 + fill 2 = 110
	// to first data) plus the park/wake handshake later.
	const wantBaseAdd, wantDoMAdd = 120, 238
	if baseAdd != wantBaseAdd {
		t.Errorf("baseline dependent issued at cycle %d, want %d", baseAdd, wantBaseAdd)
	}
	if domAdd != wantDoMAdd {
		t.Errorf("dom dependent issued at cycle %d, want %d", domAdd, wantDoMAdd)
	}
	if domCycles <= baseCycles {
		t.Errorf("dom run (%d cycles) not slower than baseline (%d)", domCycles, baseCycles)
	}
}

// TestDoMHitProceeds: a speculative load that HITS the L1 is not delayed —
// it issues exactly when the baseline's does, and nothing is accounted.
func TestDoMHitProceeds(t *testing.T) {
	baseAdd, _, _ := runShadowed(t, KindBaseline, true)
	domAdd, _, domSt := runShadowed(t, KindDoM, true)
	if domSt.DoMDelayedLoads != 0 {
		t.Errorf("L1-hit load was delayed: %d loads", domSt.DoMDelayedLoads)
	}
	if domAdd != baseAdd {
		t.Errorf("dom dependent issued at cycle %d, baseline at %d; hits must proceed unchanged", domAdd, baseAdd)
	}
}

// TestInvisiSpecExposureCost pins the invisible-load trade-off on the same
// kernel: the dependent wakes at the BASELINE cycle (the invisible access
// keeps speculation's performance), but the load cannot commit before its
// exposure re-access completes, so the run as a whole pays the re-access —
// the halt lands one exposure round trip after the baseline's.
func TestInvisiSpecExposureCost(t *testing.T) {
	baseAdd, baseCycles, _ := runShadowed(t, KindBaseline, false)
	invAdd, invCycles, invSt := runShadowed(t, KindInvisiSpec, false)

	if invSt.InvisibleLoads != 1 {
		t.Errorf("invisible loads = %d, want exactly the one shadowed load", invSt.InvisibleLoads)
	}
	if invSt.Exposures != 1 {
		t.Errorf("exposures = %d, want 1 (the committed invisible load)", invSt.Exposures)
	}
	if invSt.SpecBufPeak != 1 {
		t.Errorf("speculative-buffer peak = %d, want 1", invSt.SpecBufPeak)
	}

	// The dependent's wake is cycle-identical to baseline: invisible
	// loads lose no speculation performance.
	if invAdd != baseAdd {
		t.Errorf("invisispec dependent issued at cycle %d, baseline at %d; invisible loads must not delay dependents", invAdd, baseAdd)
	}
	// The exposure starts only at the visibility point (the shadow's
	// resolution) and re-runs the full miss, stalling the load at the ROB
	// head until it completes: the run is exactly one 110-cycle exposure
	// round trip longer than the baseline's.
	const wantBase, wantInv = 124, 234
	if baseCycles != wantBase {
		t.Errorf("baseline run = %d cycles, want %d", baseCycles, wantBase)
	}
	if invCycles != wantInv {
		t.Errorf("invisispec run = %d cycles, want %d", invCycles, wantInv)
	}
}

// TestInvisiSpecSquashedLoadNeverExposed: a wrong-path invisible load is
// dropped from the speculative buffer and never exposed — the cache never
// learns the transient address (the Spectre-blocking property, unit-sized).
func TestInvisiSpecSquashedLoadNeverExposed(t *testing.T) {
	// The branch is architecturally TAKEN (x5 = 1 at 0x1000), so the
	// fall-through load at 0x2000 is pure wrong-path speculation.
	b := isa.NewBuilder("wrong-path")
	b.Data(0x1000, []uint64{1})
	b.Data(0x2000, []uint64{7})
	b.Li(isa.X20, 0x1000)
	b.Li(isa.X21, 0x2000)
	b.Ld(isa.X5, isa.X20, 0)
	b.Bne(isa.X5, isa.X0, "skip") // taken; fall-through is wrong path
	b.Ld(isa.X6, isa.X21, 0)
	b.Label("skip")
	b.Halt()
	c := MustNew(MegaConfig(), KindInvisiSpec, b.MustBuild())
	if _, err := c.Run(RunLimits{MaxCycles: 10_000}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.InvisibleLoads == 0 {
		t.Fatal("wrong-path load never issued invisibly; the kernel is inert")
	}
	if c.Stats.Exposures != 0 {
		t.Errorf("squashed wrong-path load was exposed %d times", c.Stats.Exposures)
	}
	if c.hier.Contains(0x2000) {
		t.Error("wrong-path address resident in the hierarchy: the invisible load leaked")
	}
	if c.lsu.specBufLive != 0 {
		t.Errorf("speculative buffer not drained: %d live entries", c.lsu.specBufLive)
	}
}

// TestDoMBlocksWrongPathMiss is the DoM counterpart: the wrong-path miss
// is delayed, the branch resolves first, and the squashed load never
// touches the hierarchy.
func TestDoMBlocksWrongPathMiss(t *testing.T) {
	b := isa.NewBuilder("wrong-path-dom")
	b.Data(0x1000, []uint64{1})
	b.Data(0x2000, []uint64{7})
	b.Li(isa.X20, 0x1000)
	b.Li(isa.X21, 0x2000)
	b.Ld(isa.X5, isa.X20, 0)
	b.Bne(isa.X5, isa.X0, "skip")
	b.Ld(isa.X6, isa.X21, 0)
	b.Label("skip")
	b.Halt()
	c := MustNew(MegaConfig(), KindDoM, b.MustBuild())
	if _, err := c.Run(RunLimits{MaxCycles: 10_000}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.DoMDelayedLoads == 0 {
		t.Fatal("wrong-path miss was not delayed; the kernel is inert")
	}
	if c.hier.Contains(0x2000) {
		t.Error("wrong-path address resident in the hierarchy: the delayed miss leaked")
	}
}
