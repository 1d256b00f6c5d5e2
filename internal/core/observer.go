package core

import "repro/internal/isa"

// The observation hook. An Observer sees every micro-op's passage through
// the pipeline as one stream of cycle-stamped events: the seven pipeline
// stage transitions, plus the load ready broadcasts and cache accesses the
// secure schemes' security arguments are stated over. The delays a scheme
// inserts (a Delay-on-Miss park, an InvisiSpec exposure, an NDA withheld
// broadcast, an STT nop slot) are annotations on the event that caused
// them.
//
// Two consumers share the stream. The differential fuzzing oracle in
// internal/diffsim asserts the paper's security invariants over it, and
// internal/trace encodes its pipeline stages to JSONL — the simulator-side
// half of the paper's TraceDoctor methodology (Section 7), the kind of
// per-instruction extraction the exchange2 forwarding-error pathology of
// Section 9.2 was found with.
//
// Observers are strictly observational: every event fires after the
// pipeline has committed to what it reports, carries copies of the
// relevant state, and must not perturb timing — the commit stream and
// cycle count of a run with an Observer attached are byte-identical to the
// same run without one (TestProbeIsObservational,
// TestRecorderIsObservational). When Core.Observer is nil the dispatch
// cost is one pointer compare per site.

// Observer receives the core's event stream.
type Observer interface {
	// Observe fires once per event, in simulation order: within a cycle,
	// events follow the back-to-front stage processing order (commit
	// before issue before rename). The event is passed by value — a
	// pointer argument to an interface method escapes, which would cost
	// an allocation per event; retaining copies is fine.
	Observe(ev Event)
}

// Stage identifies what an Event reports.
type Stage uint8

// The pipeline stage transitions come first; trace files record exactly
// these (StageFetch through StageSquash).
const (
	// StageFetch is the cycle the instruction was fetched. It is
	// reported retroactively alongside StageRename (the front end does
	// not know sequence numbers; wrong-path fetches that never reach
	// rename are not reported).
	StageFetch Stage = iota
	// StageRename is the cycle the uop was renamed into the backend.
	StageRename
	// StageIssue is an issue-stage selection outcome: a successful issue
	// of the whole uop or a store half (Part), a Delay-on-Miss park
	// (AnnotDoMParked), or an STT taint nop (AnnotSTTNopped).
	StageIssue
	// StageWriteback is the cycle a completion event retired (store
	// halves report their Part).
	StageWriteback
	// StageVP is the cycle the visibility-point walk passed the uop —
	// the moment it became non-speculative — or, annotated, a VP-side
	// scheme event on it: an InvisiSpec exposure re-access (also when
	// commit starts it — commit is the definitive visibility point) or an
	// NDA broadcast release.
	StageVP
	// StageCommit is the cycle the uop retired architecturally; an NDA
	// broadcast released there is annotated AnnotNDAReleased.
	StageCommit
	// StageSquash is the cycle the uop was squashed (branch mispredict
	// recovery or a memory-ordering flush).
	StageSquash
	// StageBroadcast is a load ready broadcast, stamped with the cycle
	// dependents may consume the value: at issue under speculative L1-hit
	// wakeup, at writeback otherwise. Broadcasts NDA withheld are
	// reported by their release (StageVP, StageCommit).
	StageBroadcast
	// StageCacheAccess is a load's access at issue, stamped with the
	// cycle the access starts: a demand access to the cache hierarchy or,
	// annotated AnnotInvisible, an InvisiSpec speculative-buffer access
	// (the hierarchy's latency with none of its side effects).
	StageCacheAccess

	numStages
)

var stageNames = [numStages]string{
	StageFetch:       "fetch",
	StageRename:      "rename",
	StageIssue:       "issue",
	StageWriteback:   "writeback",
	StageVP:          "vp",
	StageCommit:      "commit",
	StageSquash:      "squash",
	StageBroadcast:   "broadcast",
	StageCacheAccess: "cache-access",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// IssuePart identifies which half of a store an event concerns; everything
// else issues whole.
type IssuePart = issuePart

// Issue parts reported by Event.Part.
const (
	PartWhole     IssuePart = partWhole
	PartStoreAddr IssuePart = partStoreAddr
	PartStoreData IssuePart = partStoreData
)

// TraceAnnot is a bitset of scheme and memory annotations on an Event —
// where each scheme inserts its delays, stamped on the event that inserted
// them.
type TraceAnnot uint16

const (
	// AnnotL1Hit marks a load access that hit the L1 (at issue, a store
	// queue forward counts as a hit) and an exposure that hit. A cache
	// access or exposure without it, and not AnnotInvisible, occupies an
	// MSHR past the L1.
	AnnotL1Hit TraceAnnot = 1 << iota
	// AnnotDoMParked marks a Delay-on-Miss park: the issue attempt found
	// a speculative L1 miss and the load parked until the visibility
	// point (Stage is StageIssue; no issue happened).
	AnnotDoMParked
	// AnnotDoMResumed marks the visibility-point walk re-arming a parked
	// load (Stage is StageVP).
	AnnotDoMResumed
	// AnnotInvisible marks an InvisiSpec load issued into the
	// speculative buffer instead of the cache hierarchy.
	AnnotInvisible
	// AnnotExposure marks an InvisiSpec exposure re-access starting
	// (Stage is StageVP).
	AnnotExposure
	// AnnotNDAWithheld marks a completed load whose ready broadcast NDA
	// withheld at writeback.
	AnnotNDAWithheld
	// AnnotNDAReleased marks the withheld broadcast being released by
	// the visibility point (StageVP) or commit (StageCommit).
	AnnotNDAReleased
	// AnnotSTTNopped marks an issue slot the STT taint unit wasted on a
	// nop instead of the selected uop (Stage is StageIssue; the uop
	// stays queued).
	AnnotSTTNopped
	// AnnotMispredict marks a resolved control instruction whose
	// predicted target was wrong (Stage is StageWriteback).
	AnnotMispredict

	numAnnots = 9
)

var annotNames = [numAnnots]string{
	"l1-hit",
	"dom-park",
	"dom-resume",
	"invisible",
	"exposure",
	"nda-withheld",
	"nda-release",
	"stt-nop",
	"mispredict",
}

// AnnotNames renders the set as stable dash-case names in bit order.
func (a TraceAnnot) AnnotNames() []string {
	var out []string
	for i := 0; i < numAnnots; i++ {
		if a&(1<<i) != 0 {
			out = append(out, annotNames[i])
		}
	}
	return out
}

// AppendNames appends the set's names to dst separated by '|' — the
// allocation-free encoder path (see internal/trace).
func (a TraceAnnot) AppendNames(dst []byte) []byte {
	first := true
	for i := 0; i < numAnnots; i++ {
		if a&(1<<i) == 0 {
			continue
		}
		if !first {
			dst = append(dst, '|')
		}
		first = false
		dst = append(dst, annotNames[i]...)
	}
	return dst
}

// Event describes one micro-op event.
type Event struct {
	Cycle uint64
	Seq   uint64 // program-order sequence number assigned at rename
	PC    uint64
	Addr  uint64 // effective address, once a memory uop has computed it
	Op    isa.Op
	Stage Stage
	// Part distinguishes store address/data halves at issue and
	// writeback; everything else reports PartWhole.
	Part IssuePart
	// Annot carries the scheme and memory annotations of this event.
	Annot TraceAnnot
	// Speculative reports whether the uop had not yet passed the
	// visibility point when the event fired.
	Speculative bool
	// Transmitter and Tainted are set only on a StageIssue event that
	// really issued (never on an STT nop or a DoM park). Transmitter
	// reports whether issuing the part has an observable,
	// operand-dependent effect (Section 3.1); Tainted whether the active
	// scheme considered the part's operands tainted (rooted at an unsafe
	// speculative load) at that moment — always false for schemes that
	// track no taint. An STT scheme issuing a tainted transmitter has
	// violated its own security argument.
	Transmitter bool
	Tainted     bool
}

// event builds the event for uop u stamped with cycle at. Callers check
// c.Observer != nil first so the nil case costs one compare.
func (c *Core) event(u int32, at uint64, stage Stage, part issuePart, annot TraceAnnot) Event {
	b := &c.a.body[u]
	return Event{
		Cycle:       at,
		Seq:         c.a.seq[u],
		PC:          b.pc,
		Addr:        b.addr,
		Op:          b.inst.Op,
		Stage:       stage,
		Part:        part,
		Annot:       annot,
		Speculative: !b.nonSpec,
	}
}

// observe reports a stage transition of u at the current cycle.
func (c *Core) observe(u int32, stage Stage, part issuePart, annot TraceAnnot) {
	c.Observer.Observe(c.event(u, c.cycle, stage, part, annot))
}

// observeIssue reports a real issue of u's part, with whether the part
// transmits and whether its operands were tainted as it issued.
func (c *Core) observeIssue(u int32, part issuePart, annot TraceAnnot) {
	ev := c.event(u, c.cycle, StageIssue, part, annot)
	ev.Transmitter = c.a.transmitterPart(u, part)
	ev.Tainted = c.taint.taintedPart(u, part)
	c.Observer.Observe(ev)
}
