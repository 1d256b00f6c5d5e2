package core

// nda implements NDA-Permissive (Section 5): the only pipeline changes are
// the delayed, split load broadcast and the removal of speculative L1-hit
// wakeup; the broadcast mechanics live in the core's writeback and
// visibility-point stages.
//
// Idle-skip contract (core.Run): a withheld broadcast is released by the
// visibility-point walk, which announces dependents ready at cycle+1 —
// the release therefore lands in the dependents' cached srcReadyAt fields,
// which nextWake scans. NDA never parks anything on a time it does not
// register there.
type nda struct{}

// ndaWithholdDisabled is a fault-injection switch for the differential
// oracle's mutation tests: with it set NDA broadcasts speculative loads at
// writeback, and the oracle's no-speculative-broadcast invariant must catch
// it. Never set outside tests.
var ndaWithholdDisabled bool

func (nda) renameOne(int32)                 {}
func (nda) allocPhys(int)                   {}
func (nda) saveCheckpoint(int)              {}
func (nda) restoreCheckpoint(int)           {}
func (nda) fullFlush()                      {}
func (nda) canSelect(int32, issuePart) bool { return true }
func (nda) onIssue(int32, issuePart) bool   { return true }
func (nda) delaysLoadBroadcast() bool       { return !ndaWithholdDisabled }
func (nda) specWakeup(bool) bool            { return false }
func (nda) delaysSpecMiss() bool            { return false }
func (nda) invisibleSpecLoads() bool        { return false }
