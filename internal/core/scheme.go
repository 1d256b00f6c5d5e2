package core

// SchemeKind enumerates the evaluated secure speculation schemes
// (Section 7): the unsafe baseline, STT with rename-time tainting, STT
// with issue-time tainting, and NDA-Permissive, then two literature
// comparison points, Delay-on-Miss and InvisiSpec. A kind indexes the
// roster (registry.go), and kind order is the presentation order.
type SchemeKind uint8

// Scheme kinds.
const (
	KindBaseline SchemeKind = iota
	KindSTTRename
	KindSTTIssue
	KindNDA
	KindDoM
	KindInvisiSpec
)

// issuePart selects which half of an instruction is being issued. Stores
// are a single micro-op with independently issuing address and data halves
// (Section 9.2); everything else issues whole.
type issuePart uint8

const (
	partWhole issuePart = iota
	partStoreAddr
	partStoreData
)

// loadPolicy is how a scheme changes the life of a speculative load. Each
// flag selects one branch of the pipeline code (loadBroadcast, issueLoad,
// vpStage); the zero policy is the baseline's.
type loadPolicy struct {
	// withholdBroadcast: completed speculative loads withhold their ready
	// broadcast until they turn non-speculative (NDA, Section 5).
	withholdBroadcast bool
	// noSpecWakeup drops speculative L1-hit scheduling of load dependents,
	// whatever Config.SpecWakeup says (NDA, Section 5.1).
	noSpecWakeup bool
	// delaySpecMiss: speculative loads that miss in the L1 wait for the
	// visibility point before touching the hierarchy (Delay-on-Miss). The
	// hit/miss disambiguation is mem.Hierarchy.Peek, consulted by
	// issueLoad before any side effect.
	delaySpecMiss bool
	// invisibleLoads: speculative loads bypass the cache side-effect path
	// into a per-load speculative buffer and re-access ("expose") the
	// hierarchy once they reach the visibility point (InvisiSpec).
	invisibleLoads bool
}

// taintUnit is the taint tracking the STT schemes add, called at the
// pipeline points the paper's microarchitectures modify. Uops are
// identified by their arena slot index (always live at hook time); units
// reach their fields through the core's arena. Schemes that track no
// taint get noTaint.
type taintUnit interface {
	// renameOne is called for every uop in rename (program) order. The
	// STT-Rename taint chain lives here.
	renameOne(u int32)
	// allocPhys is called when a physical destination register is
	// allocated (STT-Issue clears the register's taint).
	allocPhys(pd int)

	// saveCheckpoint/restoreCheckpoint bracket branch checkpoints;
	// STT-Rename must checkpoint its taint RAT (Section 4.2).
	saveCheckpoint(id int)
	restoreCheckpoint(id int)
	// fullFlush clears all taint state (memory-ordering flush).
	fullFlush()

	// canSelect is the pre-selection readiness mask. A false return means
	// the uop is not eligible this cycle and consumes no issue slot
	// (STT-Rename knows taints at rename; blocked transmitters are never
	// selected).
	canSelect(u int32, part issuePart) bool
	// onIssue is the at-issue taint unit. A false return converts the
	// already-consumed issue slot into a nop (STT-Issue, Section 4.3) and
	// back-propagates the blocking YRoT into the issue-queue entry.
	onIssue(u int32, part issuePart) bool

	// taintedPart is the issue events' read-only taint view (see
	// observer.go): whether the issuing part's operands are tainted. It is
	// queried only when an Observer is attached.
	taintedPart(u int32, part issuePart) bool
}

// noTaint is the taint unit of every scheme that tracks no taint.
type noTaint struct{}

func (noTaint) renameOne(int32)                   {}
func (noTaint) allocPhys(int)                     {}
func (noTaint) saveCheckpoint(int)                {}
func (noTaint) restoreCheckpoint(int)             {}
func (noTaint) fullFlush()                        {}
func (noTaint) canSelect(int32, issuePart) bool   { return true }
func (noTaint) onIssue(int32, issuePart) bool     { return true }
func (noTaint) taintedPart(int32, issuePart) bool { return false }
