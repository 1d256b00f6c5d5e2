package core

// NDA-Permissive (Section 5): the only pipeline changes are the delayed,
// split load broadcast and the removal of speculative L1-hit wakeup, the
// roster's withholdBroadcast and noSpecWakeup load policy; the broadcast
// mechanics live in the core's writeback and visibility-point stages.
//
// Idle-skip contract (core.Run): a withheld broadcast is released by the
// visibility-point walk, which announces dependents ready at cycle+1 —
// the release therefore lands in the dependents' cached srcReadyAt fields,
// which nextWake scans. NDA never parks anything on a time it does not
// register there.

// ndaWithholdDisabled is a fault-injection switch for the differential
// oracle's mutation tests: with it set NDA broadcasts speculative loads at
// writeback, and the oracle's no-speculative-broadcast invariant must catch
// it. Never set outside tests.
var ndaWithholdDisabled bool
