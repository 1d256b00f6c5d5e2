package core

import "repro/internal/isa"

// sttRename implements Speculative Taint Tracking with taint computation in
// the rename stage (Section 4.1). The YRoT (youngest root of taint) of each
// renamed instruction is the youngest taint among its sources; because a
// source may be renamed in the same cycle, YRoT computations chain through
// the rename group — the single-cycle dependency chain the paper identifies
// as STT-Rename's fundamental scaling limit. The chain itself is a timing
// phenomenon (modeled in internal/synth); here we faithfully compute the
// values it produces and record the chain depths reached.
//
// YRoTs are load sequence numbers. A YRoT is safe once the core's
// non-speculative-load frontier (advanced by the bounded YRoT broadcast in
// the visibility-point stage) has passed it. Blocked transmitters consult
// the previous cycle's frontier: the rename-stage taint RAT learns about
// broadcasts one cycle later than the issue-stage taint unit, which is the
// one-cycle disadvantage versus STT-Issue discussed in Section 9.1.
type sttRename struct {
	c     *Core
	taint [isa.NumRegs]int64
	ckpts [][isa.NumRegs]int64

	// Same-cycle chain tracking for statistics: which rename cycle last
	// wrote each taint entry, and at what chain depth.
	writtenAt  [isa.NumRegs]uint64
	chainDepth [isa.NumRegs]int
}

func newSTTRename(c *Core) *sttRename {
	s := &sttRename{c: c, ckpts: make([][isa.NumRegs]int64, c.cfg.MaxBranches)}
	for i := range s.taint {
		s.taint[i] = noYRoT
	}
	return s
}

// sourceTaint reads one source's taint and the same-cycle chain depth it
// was produced at.
func (s *sttRename) sourceTaint(r isa.Reg) (int64, int) {
	if r == isa.X0 {
		return noYRoT, 0
	}
	t := s.taint[r]
	if t == noYRoT {
		return noYRoT, 0
	}
	depth := 0
	if s.writtenAt[r] == s.c.cycle {
		depth = s.chainDepth[r]
	}
	return t, depth
}

func (s *sttRename) renameOne(u int32) {
	a := s.c.a
	b := &a.body[u]
	var t1, t2 int64 = noYRoT, noYRoT
	var d1, d2 int
	if b.inst.ReadsRs1() {
		t1, d1 = s.sourceTaint(b.inst.Rs1)
	}
	if b.inst.ReadsRs2() {
		t2, d2 = s.sourceTaint(b.inst.Rs2)
	}
	yrot := t1
	if t2 > yrot {
		yrot = t2
	}
	depth := d1
	if d2 > depth {
		depth = d2
	}
	b.yrot = yrot
	if s.c.cfg.SplitStoreTaints && a.isStore(u) {
		b.yrotAddr = t1
		b.yrotData = t2
	}
	if yrot != noYRoT {
		s.c.Stats.TaintedRenames++
		depth++ // this uop's own comparator extends the chain
		if depth > s.c.Stats.MaxRenameChain {
			s.c.Stats.MaxRenameChain = depth
		}
		s.c.Stats.RenameChainSum += uint64(depth)
	}
	if b.inst.HasDest() {
		rd := b.inst.Rd
		if a.isLoad(u) {
			// A load's destination is rooted at the load itself.
			s.taint[rd] = int64(a.seq[u])
		} else {
			s.taint[rd] = yrot
		}
		s.writtenAt[rd] = s.c.cycle
		s.chainDepth[rd] = depth
	}
}

func (s *sttRename) allocPhys(int) {}

func (s *sttRename) saveCheckpoint(id int)    { s.ckpts[id] = s.taint }
func (s *sttRename) restoreCheckpoint(id int) { s.taint = s.ckpts[id] }

func (s *sttRename) fullFlush() {
	for i := range s.taint {
		s.taint[i] = noYRoT
	}
}

// partYRoT returns the YRoT governing the given part of u.
func (s *sttRename) partYRoT(u int32, part issuePart) int64 {
	b := &s.c.a.body[u]
	if s.c.cfg.SplitStoreTaints && s.c.a.isStore(u) {
		switch part {
		case partStoreAddr:
			return b.yrotAddr
		case partStoreData:
			return b.yrotData
		}
	}
	return b.yrot
}

// sttTaintCheckDisabled is a fault-injection switch for the differential
// oracle's mutation tests (internal/core/mutation_test.go): with the taint
// check disabled STT-Rename and STT-Issue select tainted transmitters like
// the unsafe baseline, and the oracle's no-tainted-transmitter invariant
// must catch it. Never set outside tests.
var sttTaintCheckDisabled bool

func (s *sttRename) canSelect(u int32, part issuePart) bool {
	if sttTaintCheckDisabled || !s.c.a.transmitterPart(u, part) {
		return true
	}
	y := s.partYRoT(u, part)
	if y <= s.c.prevSafeSeq {
		return true
	}
	s.c.Stats.TaintBlockedSelects++
	return false
}

func (s *sttRename) onIssue(int32, issuePart) bool { return true }

// taintedPart is the issue events' read-only taint view (see observer.go): whether
// the part's governing YRoT is still beyond the frontier rename-stage
// state can see — exactly the condition canSelect blocks transmitters on.
func (s *sttRename) taintedPart(u int32, part issuePart) bool {
	y := s.partYRoT(u, part)
	return y != noYRoT && y > s.c.prevSafeSeq
}
