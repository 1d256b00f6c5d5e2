package core

import "sync"

// sttIssue implements the paper's novel STT microarchitecture (Section
// 4.3): taint computation is delayed until the issue stage and performed
// over physical registers by a taint unit. There is no same-cycle
// dependency chain (dependent instructions cannot issue together) and no
// taint checkpoints (physical-register taints are overwritten on
// reallocation before reuse), at the cost of a taint table sized by the
// physical register count and of wasted issue slots: a tainted transmitter
// is only discovered after selection and is replaced with a nop.
//
// The issue-stage taint unit reads the current cycle's non-speculative-
// load frontier, one cycle fresher than what STT-Rename's rename-stage
// state can see — the one-cycle issue advantage of Section 9.1.
//
// Idle-skip contract (core.Run): taint blocking (here and in STT-Rename)
// is frontier-based, never time-based — a blocked transmitter unblocks
// only when the non-speculative frontier advances, which requires some
// other uop to make progress first. An idle cycle therefore cannot be
// ended by a taint state change, and nextWake needs no candidate from the
// taint unit; the warp replays the per-cycle TaintBlockedSelects charge
// in bulk instead.
type sttIssue struct {
	c     *Core
	taint []int64 // per physical register
}

// sttIssuePool recycles STT-Issue units across Resets (see release).
var sttIssuePool = sync.Pool{New: func() any { return new(sttIssue) }}

// newSTTIssue takes a unit from the pool and re-initialises every field,
// keeping only the taint table's backing store.
func newSTTIssue(c *Core) *sttIssue {
	s := sttIssuePool.Get().(*sttIssue)
	*s = sttIssue{c: c, taint: sized(s.taint, c.cfg.PhysRegs())}
	for i := range s.taint {
		s.taint[i] = noYRoT
	}
	return s
}

func (s *sttIssue) release() {
	s.c = nil
	sttIssuePool.Put(s)
}

func (s *sttIssue) renameOne(int32) {}

// allocPhys clears the taint of a freshly allocated register. This is why
// STT-Issue needs no checkpoints: a stale taint can only be observed
// through a register that is still architecturally live, and live
// registers' taints are valid across squashes (Section 4.3).
func (s *sttIssue) allocPhys(pd int) { s.taint[pd] = noYRoT }

func (s *sttIssue) saveCheckpoint(int)    {}
func (s *sttIssue) restoreCheckpoint(int) {}

func (s *sttIssue) fullFlush() {
	for i := range s.taint {
		s.taint[i] = noYRoT
	}
}

// sourceTaint reads a physical source's taint, treating already-safe roots
// as untainted.
func (s *sttIssue) sourceTaint(ps int) int64 {
	if ps == noReg {
		return noYRoT
	}
	t := s.taint[ps]
	if t <= s.c.curSafeSeq {
		return noYRoT
	}
	return t
}

// canSelect masks an entry whose back-propagated YRoT is still unsafe
// (step 5 in Figure 4): after a nop-issue, the entry is not re-selected
// until the YRoT broadcast declares it safe.
func (s *sttIssue) canSelect(u int32, part issuePart) bool {
	if part == partStoreData {
		return true
	}
	b := &s.c.a.body[u]
	return b.blockedYRoT == noYRoT || b.blockedYRoT <= s.c.curSafeSeq
}

// onIssue is the taint unit (step 2 in Figure 4): compute the YRoT from
// the operands' taints, bar tainted transmitters (wasting the slot), and
// propagate the taint to the destination register.
func (s *sttIssue) onIssue(u int32, part issuePart) bool {
	a := s.c.a
	b := &a.body[u]
	var y int64
	switch part {
	case partStoreAddr:
		// Only the address operand transmits; an untainted address can
		// issue even while the data operand is tainted (Section 9.2).
		y = s.sourceTaint(b.ps1)
	case partStoreData:
		return true
	default:
		y = s.sourceTaint(b.ps1)
		if t2 := s.sourceTaint(b.ps2); t2 > y {
			y = t2
		}
	}
	if y != noYRoT && a.transmitterPart(u, part) && !sttTaintCheckDisabled {
		// Tainted transmitter: issue a nop instead and back-propagate the
		// YRoT to the issue-queue entry (steps 4 and 5 in Figure 4).
		b.blockedYRoT = y
		b.wasNopped = true
		s.c.Stats.TaintNopSlots++
		return false
	}
	b.blockedYRoT = noYRoT
	if b.pd != noReg {
		if a.isLoad(u) {
			s.taint[b.pd] = int64(a.seq[u])
		} else {
			s.taint[b.pd] = y
		}
	}
	return true
}

// taintedPart is the issue events' read-only taint view (see observer.go): the same
// operand-taint computation onIssue's taint unit performs, against the
// current cycle's frontier. Safe to query after onIssue — only the
// destination's taint is written there, never a source's.
func (s *sttIssue) taintedPart(u int32, part issuePart) bool {
	b := &s.c.a.body[u]
	switch part {
	case partStoreData:
		return false
	case partStoreAddr:
		return s.sourceTaint(b.ps1) != noYRoT
	}
	if s.sourceTaint(b.ps1) != noYRoT {
		return true
	}
	return s.sourceTaint(b.ps2) != noYRoT
}
