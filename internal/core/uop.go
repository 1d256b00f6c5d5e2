package core

import "repro/internal/isa"

// uopState tracks a micro-op through the backend.
type uopState uint8

const (
	stateWaiting   uopState = iota // in the issue queue
	stateExecuting                 // issued, in a functional unit or the LSU
	stateDone                      // result written back, awaiting commit
	stateSquashed                  // killed; slot released, refs go stale
)

// noReg marks an absent physical register operand.
const noReg = -1

// noYRoT marks an untainted YRoT. YRoTs are load sequence numbers; a YRoT
// is safe once the core's non-speculative-load frontier has passed it, so
// -1 (older than every load) is always safe.
const noYRoT int64 = -1

// neverRetry parks a load's retryAt until some stage explicitly re-arms it
// (Delay-on-Miss: the visibility-point walk wakes delayed misses). A load
// left parked with no waker would trip the commit watchdog — loudly, by
// design.
const neverRetry = ^uint64(0)

// uop is the cold (array-of-structs) portion of one in-flight micro-op:
// the fields touched on the instruction's own pipeline events. The hot
// fields — state, cls, seq, the issue scoreboard's src1ReadyAt/
// src2ReadyAt, retryAt, doneAt and the issue-queue index — live in the
// arena's struct-of-arrays slices (see arena.go) under the same slot
// index. The first 64 bytes hold what an operand announcement and a gate
// filing read. Stores are a single micro-op whose address and data halves
// can issue independently (BOOM-style partial issue, Section 9.2 of the
// paper).
type uop struct {
	pc   uint64
	inst isa.Inst

	// Rename state.
	pd      int // physical destination, noReg if none
	stalePd int // previous mapping of the destination, freed at commit
	ps1     int // physical sources, noReg when the arch source is x0/unused
	ps2     int
	robPos  int // ROB position: the uop's bit in the ready set and in wake rows
	ckpt    int // checkpoint id for branches/jalr, -1 otherwise

	// Issue-queue state. wakes holds the cycles of the pending wake-ups,
	// 0 when none: the whole uop's or a store's address half's, and a
	// store's data half's.
	queued bool
	wakes  [2]uint64

	// Prediction state (control instructions).
	predTarget uint64
	predHist   uint64 // global history at prediction time

	// Execution results.
	taken  bool
	target uint64 // next PC (control); pc+1 otherwise
	result uint64
	hitL1  bool // loads: L1 hit

	broadcastPending bool // NDA: completed but ready-broadcast withheld
	broadcasted      bool // has advanced the non-speculative-load frontier

	// Store halves.
	addrIssued bool
	dataIssued bool
	addrReady  bool // effective address computed (clears the D-shadow)
	dataReady  bool

	// Memory state.
	addr           uint64
	fwdFromSeq     int64 // seq of the store this load forwarded from, -1 none
	orderViolation bool  // memory ordering violation; flush when it reaches commit

	// Speculation state.
	nonSpec bool // passed the visibility point (bound to commit)

	// Delay-on-Miss state.
	missDelayed bool // load parked as a speculative L1 miss (once per load)

	// InvisiSpec state. An invisible load holds a per-load speculative
	// buffer entry (inSpecBuf, accounted by the LSU) from issue until it is
	// exposed or squashed; exposeDoneAt gates commit on the exposure
	// re-access.
	invisible    bool   // issued into the speculative buffer, no cache side effects
	inSpecBuf    bool   // currently occupying a speculative-buffer entry
	exposed      bool   // exposure re-access performed at the visibility point
	exposeDoneAt uint64 // cycle the exposure access completes; commit waits on it
	// exposeTried is 1 + the cycle of the last failed exposure attempt
	// (the +1 keeps the zero value distinct from cycle 0): commitStage
	// and the visibility-point walk can both reach an unexposed load in
	// the same cycle, and the second caller must not retry — or count —
	// the same stalled attempt twice.
	exposeTried uint64

	// Secure-scheme state.
	yrot        int64 // STT-Rename: YRoT computed at rename
	yrotAddr    int64 // split-store-taint ablation: address-half YRoT
	yrotData    int64 // split-store-taint ablation: data-half YRoT
	blockedYRoT int64 // STT-Issue: YRoT back-propagated into the IQ entry
}
