package core

import (
	"testing"

	"repro/internal/isa"
)

// mkCore builds a Mega core around a trivial program for unit-level scheme
// manipulation.
func mkCore(t *testing.T, kind SchemeKind) *Core {
	t.Helper()
	b := isa.NewBuilder("unit")
	b.Halt()
	return MustNew(MegaConfig(), kind, b.MustBuild())
}

// TestSTTRenameSameCycleChain drives the rename-group YRoT chain directly:
// a load followed in the same group by dependent ALU ops and a dependent
// branch must chain taints through the group (Figure 3's structure).
func TestSTTRenameSameCycleChain(t *testing.T) {
	c := mkCore(t, KindSTTRename)
	s := c.taint.(*sttRename)
	a := c.a
	c.cycle = 10

	ld := mkUop(a, 100, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X5, Rs1: isa.X1}, yrot: noYRoT, blockedYRoT: noYRoT})
	alu := mkUop(a, 101, uop{inst: isa.Inst{Op: isa.Add, Rd: isa.X6, Rs1: isa.X5, Rs2: isa.X2}, yrot: noYRoT, blockedYRoT: noYRoT})
	alu2 := mkUop(a, 102, uop{inst: isa.Inst{Op: isa.Xor, Rd: isa.X7, Rs1: isa.X6, Rs2: isa.X6}, yrot: noYRoT, blockedYRoT: noYRoT})
	br := mkUop(a, 103, uop{inst: isa.Inst{Op: isa.Beq, Rs1: isa.X7, Rs2: isa.X0}, yrot: noYRoT, blockedYRoT: noYRoT})
	for _, u := range []int32{ld, alu, alu2, br} {
		s.renameOne(u)
	}
	if a.body[ld].yrot != noYRoT {
		t.Errorf("load sources untainted, yrot = %d", a.body[ld].yrot)
	}
	if a.body[alu].yrot != 100 || a.body[alu2].yrot != 100 || a.body[br].yrot != 100 {
		t.Errorf("chain yrots = %d,%d,%d, want 100 each", a.body[alu].yrot, a.body[alu2].yrot, a.body[br].yrot)
	}
	if c.Stats.MaxRenameChain < 3 {
		t.Errorf("max same-cycle chain = %d, want >= 3", c.Stats.MaxRenameChain)
	}
	// The branch (a transmitter) must be masked while 100 is unsafe...
	c.prevSafeSeq = 99
	if s.canSelect(br, partWhole) {
		t.Error("tainted branch selectable with unsafe YRoT")
	}
	// ...and selectable once the frontier passes its root.
	c.prevSafeSeq = 100
	if !s.canSelect(br, partWhole) {
		t.Error("branch still masked after its root became safe")
	}
	// Non-transmitters are never masked.
	c.prevSafeSeq = 0
	if !s.canSelect(alu, partWhole) {
		t.Error("ALU op masked; only transmitters may be blocked")
	}
}

// TestSTTRenameCheckpointRestore verifies Section 4.2: taint state is
// checkpointed with branches and restored on squash.
func TestSTTRenameCheckpointRestore(t *testing.T) {
	c := mkCore(t, KindSTTRename)
	s := c.taint.(*sttRename)
	ld := mkUop(c.a, 10, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X5, Rs1: isa.X1}, yrot: noYRoT})
	s.renameOne(ld)
	s.saveCheckpoint(3)
	// Younger wrong-path load overwrites the taint.
	ld2 := mkUop(c.a, 20, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X5, Rs1: isa.X1}, yrot: noYRoT})
	s.renameOne(ld2)
	if s.taint[isa.X5] != 20 {
		t.Fatalf("taint = %d, want 20", s.taint[isa.X5])
	}
	s.restoreCheckpoint(3)
	if s.taint[isa.X5] != 10 {
		t.Errorf("taint after restore = %d, want 10", s.taint[isa.X5])
	}
	s.fullFlush()
	if s.taint[isa.X5] != noYRoT {
		t.Error("full flush left taint state")
	}
}

// TestSTTRenameUnifiedStoreTaint: the whole store is blocked when either
// operand is tainted (Section 9.2), unless split taints are enabled.
func TestSTTRenameUnifiedStoreTaint(t *testing.T) {
	c := mkCore(t, KindSTTRename)
	s := c.taint.(*sttRename)
	ld := mkUop(c.a, 5, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X6, Rs1: isa.X1}, yrot: noYRoT})
	s.renameOne(ld)
	// sd x6, 0(x2): address operand (x2) clean, data operand (x6) tainted.
	st := mkUop(c.a, 6, uop{inst: isa.Inst{Op: isa.Sd, Rs1: isa.X2, Rs2: isa.X6}, yrot: noYRoT})
	s.renameOne(st)
	c.prevSafeSeq = 0
	if s.canSelect(st, partStoreAddr) {
		t.Error("unified taint must block the address half on a tainted data operand")
	}
	if !s.canSelect(st, partStoreData) {
		t.Error("the data half does not transmit and must not be blocked")
	}

	// With split taints the clean address half issues.
	c2 := mkCore(t, KindSTTRename)
	c2.cfg.SplitStoreTaints = true
	s2 := c2.taint.(*sttRename)
	ld2 := mkUop(c2.a, 5, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X6, Rs1: isa.X1}, yrot: noYRoT})
	s2.renameOne(ld2)
	st2 := mkUop(c2.a, 6, uop{inst: isa.Inst{Op: isa.Sd, Rs1: isa.X2, Rs2: isa.X6}, yrot: noYRoT})
	s2.renameOne(st2)
	c2.prevSafeSeq = 0
	if !s2.canSelect(st2, partStoreAddr) {
		t.Error("split taints must let the untainted address half issue")
	}
}

// TestSTTIssueTaintUnit drives the issue-stage taint unit: propagation
// through physical registers, nop-ing of tainted transmitters, and the
// back-propagated YRoT mask.
func TestSTTIssueTaintUnit(t *testing.T) {
	c := mkCore(t, KindSTTIssue)
	s := c.taint.(*sttIssue)
	a := c.a
	c.curSafeSeq = 0

	// A load writing p40 taints it with its own seq.
	ld := mkUop(a, 50, uop{pc: 1, inst: isa.Inst{Op: isa.Ld, Rd: isa.X5, Rs1: isa.X1}, pd: 40, ps1: 3, ps2: noReg, blockedYRoT: noYRoT})
	if !s.onIssue(ld, partWhole) {
		t.Fatal("untainted load must issue")
	}
	if s.taint[40] != 50 {
		t.Fatalf("load dest taint = %d, want 50", s.taint[40])
	}
	// An ALU op reading p40 propagates to its dest p41 and is not blocked.
	alu := mkUop(a, 51, uop{inst: isa.Inst{Op: isa.Add, Rd: isa.X6, Rs1: isa.X5, Rs2: isa.X2}, pd: 41, ps1: 40, ps2: 4, blockedYRoT: noYRoT})
	if !s.onIssue(alu, partWhole) {
		t.Fatal("non-transmitter must issue tainted")
	}
	if s.taint[41] != 50 {
		t.Fatalf("propagated taint = %d, want 50", s.taint[41])
	}
	// A dependent load (transmitter) is nop-ed and back-propagates.
	dep := mkUop(a, 52, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X7, Rs1: isa.X6}, pd: 42, ps1: 41, ps2: noReg, blockedYRoT: noYRoT})
	if s.onIssue(dep, partWhole) {
		t.Fatal("tainted transmitter must be nop-ed")
	}
	if a.body[dep].blockedYRoT != 50 || c.Stats.TaintNopSlots != 1 {
		t.Errorf("blockedYRoT = %d (nops %d), want 50 (1)", a.body[dep].blockedYRoT, c.Stats.TaintNopSlots)
	}
	if s.canSelect(dep, partWhole) {
		t.Error("masked entry selectable while YRoT unsafe")
	}
	c.curSafeSeq = 50
	if !s.canSelect(dep, partWhole) {
		t.Error("entry still masked after YRoT broadcast")
	}
	// Reallocation clears taints (the no-checkpoint argument, Section 4.3).
	s.allocPhys(41)
	if s.taint[41] != noYRoT {
		t.Error("allocPhys must clear the register's taint")
	}
}

// TestSTTIssueStoreHalves: the address half checks only its own operand;
// the data half is never vetoed (Section 9.2).
func TestSTTIssueStoreHalves(t *testing.T) {
	c := mkCore(t, KindSTTIssue)
	s := c.taint.(*sttIssue)
	c.curSafeSeq = 0
	s.taint[30] = 77 // data operand tainted
	st := mkUop(c.a, 80, uop{inst: isa.Inst{Op: isa.Sd, Rs1: isa.X2, Rs2: isa.X6}, pd: noReg, ps1: 4, ps2: 30, blockedYRoT: noYRoT})
	if !s.onIssue(st, partStoreAddr) {
		t.Error("address half with a clean address operand must issue")
	}
	if !s.onIssue(st, partStoreData) {
		t.Error("data half must never be vetoed")
	}
	s.taint[4] = 99 // now the address operand is tainted
	st2 := mkUop(c.a, 81, uop{inst: isa.Inst{Op: isa.Sd, Rs1: isa.X2, Rs2: isa.X6}, pd: noReg, ps1: 4, ps2: 30, blockedYRoT: noYRoT})
	if s.onIssue(st2, partStoreAddr) {
		t.Error("address half with a tainted address operand must be vetoed")
	}
}

func TestLSUForwardingSearch(t *testing.T) {
	a := newUopArena()
	l := newLSU(a)
	st := mkUop(a, 1, uop{inst: isa.Inst{Op: isa.Sd}, addr: 0x100, addrReady: true, dataReady: true, result: 42})
	l.addStore(st)
	ld := mkUop(a, 2, uop{inst: isa.Inst{Op: isa.Ld}, addr: 0x100})
	l.addLoad(ld)
	res, val, from, unknown := l.search(ld)
	if res != fwdHit || val != 42 || from != 1 || unknown {
		t.Errorf("search = (%v,%d,%d,%v), want hit/42/1/false", res, val, from, unknown)
	}
	// Data not ready: wait.
	a.body[st].dataReady = false
	if res, _, _, _ := l.search(ld); res != fwdWait {
		t.Errorf("search = %v, want fwdWait", res)
	}
	// Address unknown: speculate with the unknown flag.
	a.body[st].addrReady = false
	res, _, _, unknown = l.search(ld)
	if res != fwdNone || !unknown {
		t.Errorf("search = (%v, unknown=%v), want fwdNone with unknown", res, unknown)
	}
	// Different word: no match.
	a.body[st].addrReady, a.body[st].dataReady, a.body[st].addr = true, true, 0x108
	if res, _, _, _ := l.search(ld); res != fwdNone {
		t.Errorf("search = %v, want fwdNone on different word", res)
	}
}

func TestLSUViolationDetection(t *testing.T) {
	a := newUopArena()
	l := newLSU(a)
	st := mkUop(a, 1, uop{inst: isa.Inst{Op: isa.Sd}, addr: 0x200})
	l.addStore(st)
	// A younger load that executed against the same word without
	// forwarding from the store.
	ld := mkUop(a, 2, uop{inst: isa.Inst{Op: isa.Ld}, addr: 0x200, fwdFromSeq: -1})
	a.state[ld] = stateDone
	l.addLoad(ld)
	// A younger load to a different word: untouched.
	other := mkUop(a, 3, uop{inst: isa.Inst{Op: isa.Ld}, addr: 0x300, fwdFromSeq: -1})
	a.state[other] = stateDone
	l.addLoad(other)
	a.body[st].addrReady = true
	if n := l.checkViolations(st); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
	if !a.body[ld].orderViolation || a.body[other].orderViolation {
		t.Error("violation flags wrong")
	}
	// A load that forwarded from this store is safe.
	fwd := mkUop(a, 4, uop{inst: isa.Inst{Op: isa.Ld}, addr: 0x200, fwdFromSeq: 1})
	a.state[fwd] = stateDone
	l.addLoad(fwd)
	if n := l.checkViolations(st); n != 0 {
		t.Errorf("re-check found %d new violations, want 0", n)
	}
	if a.body[fwd].orderViolation {
		t.Error("forwarded load must not be flagged")
	}
}

func TestMemDepPredictor(t *testing.T) {
	m := newMemDepPredictor()
	if m.mustWait(0x40, 100) {
		t.Error("cold predictor must not stall")
	}
	m.record(0x40)
	if !m.mustWait(0x40, 200) {
		t.Error("recorded PC must wait")
	}
	if m.mustWait(0x41, 200) {
		t.Error("other PC must not wait")
	}
	// Decay clears entries.
	if m.mustWait(0x40, 200+m.decayEvery) {
		t.Error("entry survived decay")
	}
}

func TestFrontendRedirectAndRAS(t *testing.T) {
	b := isa.NewBuilder("fe")
	b.Call("f") // pc 0
	b.Halt()    // pc 1
	b.Label("f")
	b.Ret() // pc 2
	p := b.MustBuild()
	cfg := MegaConfig()
	fe := newFrontend(&cfg, p)
	fe.step(1)
	if len(fe.queue) == 0 {
		t.Fatal("nothing fetched")
	}
	// The call must predict-taken to pc 2 and push the return address.
	if fe.queue[0].inst.Op != isa.Jal || fe.queue[0].predTarget != 2 {
		t.Fatalf("call entry: %+v", fe.queue[0])
	}
	fe.step(2) // fetches the ret, predicted via RAS to pc 1
	var ret *fetchEntry
	for i := range fe.queue {
		if fe.queue[i].inst.Op == isa.Jalr {
			ret = &fe.queue[i]
		}
	}
	if ret == nil || ret.predTarget != 1 {
		t.Fatalf("ret prediction wrong: %+v", ret)
	}
	// Redirect clears the buffer and stall state.
	fe.stalled = true
	fe.redirect(0)
	if len(fe.queue) != 0 || fe.stalled || fe.pc != 0 {
		t.Error("redirect did not reset the front end")
	}
}

func TestNDADelaysOnlySpeculativeLoads(t *testing.T) {
	c := mkCore(t, KindNDA)
	a := c.a
	ld := mkUop(a, 1, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X5, Rs1: isa.X1}, pd: 40})
	c.cycle = 100
	// Speculative at completion: broadcast withheld.
	c.loadBroadcast(ld)
	if !a.body[ld].broadcastPending || c.prf.readyAt[40] != neverReady {
		t.Error("speculative load's broadcast must be withheld")
	}
	// Non-speculative at completion: broadcast follows writeback (+1, no
	// speculative wakeup under NDA).
	ld2 := mkUop(a, 2, uop{inst: isa.Inst{Op: isa.Ld, Rd: isa.X6, Rs1: isa.X1}, pd: 41, nonSpec: true})
	c.loadBroadcast(ld2)
	if c.prf.readyAt[41] != 101 {
		t.Errorf("readyAt = %d, want 101", c.prf.readyAt[41])
	}
}
