package core

// invisiSpec implements an InvisiSpec-style invisible-load scheme (Yan et
// al., "InvisiSpec: Making Speculative Execution Invisible in the Cache
// Hierarchy", MICRO 2018). Speculative loads issue "invisibly": the data
// is returned into a per-load speculative buffer (modeled per load-queue
// entry; see lsu.specBufAdd) with NO side effects on the timing model's
// cache state — no MSHR, no fill, no LRU update, no prefetcher training.
// The access latency is what the hierarchy would have charged
// (mem.Hierarchy.Peek), and the value flows to dependents through the
// normal broadcast machinery, so speculation keeps its performance.
//
// When the load reaches the visibility point it must be EXPOSED: a real
// re-access of the hierarchy (this time with fills and MSHR occupancy)
// that models InvisiSpec's validation/exposure traffic. The load cannot
// commit until the exposure access completes — the modeled re-access cost
// of the conservative (InvisiSpec-Spectre) variant, where every buffered
// load validates before retirement. In this single-core model validation
// always succeeds, so only the timing cost is modeled. A squashed
// wrong-path load is simply dropped from the buffer and never exposed,
// which is exactly why the scheme blocks Spectre: the transient
// transmitter's line is never installed.
//
// The invariants the differential oracle asserts (internal/diffsim):
// every cache access by a speculative load is an invisible-buffer access
// (never a demand access, never an MSHR), and exposures happen only at or
// after the visibility point.
//
// Idle-skip contract (core.Run): an exposed ROB-head load waiting out its
// exposure latency contributes exposeDoneAt as a nextWake candidate, and
// an exposure attempt that bounces off a full MSHR file marks the cycle
// as progressed — the retry happens on the very next tick, so the
// ExposureRetries count stays exact without modeling the backoff as a
// wake-up.
type invisiSpec struct{ baseline }

// KindInvisiSpec identifies the invisible-load scheme in the registry.
const KindInvisiSpec SchemeKind = 5

// invisiBufferDisabled is a fault-injection switch for the differential
// oracle's mutation tests: with the speculative buffer disabled the scheme
// degenerates to the unsafe baseline, and the oracle's
// speculative-accesses-must-be-invisible invariant must catch it. Never
// set outside tests.
var invisiBufferDisabled bool

func init() {
	RegisterScheme(SchemeSpec{
		Kind:   KindInvisiSpec,
		Name:   "invisispec",
		Order:  5,
		Secure: true,
		New:    func(*Core) scheme { return invisiSpec{} },
	})
}

func (invisiSpec) kind() SchemeKind         { return KindInvisiSpec }
func (invisiSpec) invisibleSpecLoads() bool { return !invisiBufferDisabled }
