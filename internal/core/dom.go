package core

// dom implements Delay-on-Miss (Sakalis et al., "Efficient Invisible
// Speculative Execution through Selective Delay and Value Prediction",
// ISCA 2019) — the classic alternative the secure-speculation literature
// compares the paper's schemes against. The observation: a speculative
// load that HITS in the L1 changes no attacker-visible cache state at line
// granularity, so it may proceed exactly as on the baseline; only a
// speculative MISS — which would allocate an MSHR, occupy a fill port, and
// install a line — is a transmission. DoM therefore delays speculative
// misses until the load reaches the visibility point and performs the
// access for real only once it is bound to commit.
//
// Value prediction is off (the paper's baseline DoM variant), so a delayed
// load simply has no result: its dependents stall until the visibility
// point wakes it (issueLoad parks the load with neverRetry; the
// visibility-point walk re-arms retryAt when the load turns
// non-speculative). The hit/miss disambiguation is mem.Hierarchy.Peek — a
// side-effect-free probe of the tag arrays — consulted by issueLoad before
// the access is allowed to touch the hierarchy, so a delayed miss leaves
// no trace: no MSHR, no fill, no LRU movement, no prefetcher training.
//
// The invariant the differential oracle asserts (internal/diffsim):
// under DoM no speculative load ever occupies an MSHR past the L1 — every
// speculative cache access it observes must be an L1 hit.
//
// Idle-skip contract (core.Run): a parked load is invisible to time —
// retryAt is neverRetry while it waits, so nextWake never wakes for it,
// and the visibility-point walk's re-arm (retryAt = cycle+1) is the
// explicit registration of the only event that can un-park it. A machine
// whose every in-flight load is DoM-parked therefore warps straight to
// the frontier advance that frees them.
//
// dom is also the smallest real drop-in example of the scheme registry:
// embed baseline, override the hooks the microarchitecture modifies, and
// self-register from init.
type dom struct{ baseline }

// KindDoM identifies Delay-on-Miss in the scheme registry.
const KindDoM SchemeKind = 4

// domDelayDisabled is a fault-injection switch for the differential
// oracle's mutation tests (internal/core/mutation_test.go): with the miss
// delay disabled DoM degenerates to the unsafe baseline, and the oracle's
// no-speculative-MSHR invariant must catch it. Never set outside tests.
var domDelayDisabled bool

func init() {
	RegisterScheme(SchemeSpec{
		Kind:   KindDoM,
		Name:   "dom",
		Order:  4,
		Secure: true,
		New:    func(*Core) scheme { return dom{} },
	})
}

func (dom) kind() SchemeKind     { return KindDoM }
func (dom) delaysSpecMiss() bool { return !domDelayDisabled }
