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

// scheme is the hook interface the pipeline calls at the points the paper's
// microarchitectures modify. Uops are identified by their arena slot index
// (always live at hook time); schemes reach their fields through the
// core's arena. The baseline is the empty implementation.
type scheme interface {
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

	// delaysLoadBroadcast reports whether completed speculative loads must
	// withhold their ready broadcast until non-speculative (NDA).
	delaysLoadBroadcast() bool
	// specWakeup reports whether speculative L1-hit scheduling of load
	// dependents is retained (NDA removes it, Section 5.1).
	specWakeup(base bool) bool

	// delaysSpecMiss reports whether speculative loads that miss in the L1
	// must wait for the visibility point before touching the memory
	// hierarchy (Delay-on-Miss). The hit/miss disambiguation comes from
	// mem.Hierarchy.Peek, consulted by issueLoad before any side effect.
	delaysSpecMiss() bool
	// invisibleSpecLoads reports whether speculative loads bypass the cache
	// side-effect path into a per-load speculative buffer and must re-access
	// ("expose") the hierarchy once they reach the visibility point
	// (InvisiSpec).
	invisibleSpecLoads() bool
}

// baseline is the unmodified, unsafe core.
type baseline struct{}

func (baseline) renameOne(int32)                 {}
func (baseline) allocPhys(int)                   {}
func (baseline) saveCheckpoint(int)              {}
func (baseline) restoreCheckpoint(int)           {}
func (baseline) fullFlush()                      {}
func (baseline) canSelect(int32, issuePart) bool { return true }
func (baseline) onIssue(int32, issuePart) bool   { return true }
func (baseline) delaysLoadBroadcast() bool       { return false }
func (baseline) specWakeup(base bool) bool       { return base }
func (baseline) delaysSpecMiss() bool            { return false }
func (baseline) invisibleSpecLoads() bool        { return false }
