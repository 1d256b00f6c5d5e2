// Package core implements the ShadowBinding out-of-order processor model:
// a cycle-level, execute-driven superscalar pipeline in the style of the
// Berkeley Out-of-Order Machine, together with the paper's three secure
// speculation microarchitectures (STT-Rename, STT-Issue, NDA-Permissive)
// and the two classic comparison points from the wider literature —
// Delay-on-Miss (dom.go) and InvisiSpec-style invisible loads
// (invisispec.go) — listed in the scheme roster (registry.go).
//
// A scheme is data, not a type: a roster row holds its load policy (four
// flags New copies into the Core, each selecting one branch of the load
// path) and, for the two STT schemes only, a taint unit (stt_rename.go,
// stt_issue.go) called at rename, checkpoint, flush and issue. Every
// other scheme gets the empty noTaint.
//
// The pipeline executes speculatively down predicted paths — including
// wrong paths, which is what makes the Spectre v1 reproduction in
// internal/attack meaningful — and recovers through per-branch checkpoints
// and a commit-time flush for memory-ordering violations, as BOOM does.
//
// Speculation shadows follow the paper's scope (Section 2.1): C-shadows
// from unresolved conditional branches and indirect jumps, and D-shadows
// from stores with unresolved addresses. Each cycle the visibility point
// advances over shadow-free instructions; loads crossing it become
// non-speculative and are broadcast — at most one per memory port per
// cycle (Section 5.1) — which advances the YRoT-safety frontier used by
// the STT schemes and releases NDA's withheld load broadcasts.
package core

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// watchdogCycles is the no-commit limit after which Run reports a deadlock.
const watchdogCycles = 200_000

// Core is one simulated processor core running one program.
type Core struct {
	cfg  Config
	prog *isa.Program
	// taint is the scheme's taint unit (noTaint outside STT).
	taint taintUnit
	hier  *mem.Hierarchy
	main  *mem.Main
	fe    *frontend

	cycle  uint64
	seqCtr uint64

	// a is the arena every in-flight uop lives in (see arena.go): hot
	// fields in struct-of-arrays slices for the per-cycle scans, cold
	// fields in an AoS body, slots recycled through generation-counted
	// handles the moment a uop commits or is squashed.
	a *uopArena

	rob    *rob
	prf    *physRegFile
	rat    *rat
	arat   [isa.NumRegs]int // committed RAT (memory-ordering flush recovery)
	ckpts  *checkpointFile
	iq     []int32    // arena slots of waiting uops, program order
	events eventQueue // scheduled completions of issued uops
	lsu    *lsu
	mdp    *memDepPredictor

	// vpDone counts the leading ROB entries the visibility-point walk has
	// already passed (its resume offset).
	vpDone int

	divBusyUntil uint64

	// Visibility point and the bounded non-speculative-load broadcast.
	// The queue holds generation-counted handles: a queued load that
	// commits (broadcast released there) or is squashed simply goes stale
	// and is skipped by the drain without burning a broadcast port.
	nonSpecLoadQ []uopRef
	curSafeSeq   int64 // YRoT-safety frontier as of this cycle's broadcast
	prevSafeSeq  int64 // frontier visible to rename-stage state (1 cycle stale)

	halted bool
	// kind is the scheme New built, and the four flags below are its load
	// policy (see loadPolicy), with noSpecWakeup folded into specWakeup.
	// They sit in halted's padding, so they move no other field of this
	// hot struct.
	kind              SchemeKind
	withholdBroadcast bool
	specWakeup        bool
	delaySpecMiss     bool
	invisibleLoads    bool
	lastCommitCycle   uint64

	// Idle-cycle skipping state (see Run). progressed records whether any
	// stage changed machine state this cycle; a cycle that ends with it
	// clear is idle, and Run may warp the clock to the next wake target
	// instead of ticking through the gap. idleStall points at the rename
	// stall counter the cycle charged, so a skip can charge the skipped
	// cycles to the same (frozen) stall reason the ticking machine would
	// have.
	progressed bool
	idleStall  *uint64
	stepped    uint64 // cycles actually simulated (cycle − stepped = warped)

	// CommitHook, when set, receives every committed instruction in order;
	// tests use it to compare against the architectural reference model.
	CommitHook func(isa.Commit)

	// Observer, when set, receives the core's event stream: every
	// micro-op's stage transitions with scheme delay annotations, load
	// ready broadcasts and cache accesses (see observer.go). Strictly
	// observational: attaching one must not perturb timing, and the nil
	// case costs one pointer compare per site. The differential fuzzing
	// oracle asserts the schemes' security invariants over it; -trace-out
	// encodes it to JSONL.
	Observer Observer

	Stats Stats
}

// New builds a core for the given configuration, secure scheme, and
// program, with the program's initial data image loaded into main memory.
// It is new(Core) plus Reset, so a fresh core and a recycled one come out
// of the same set-up path.
func New(cfg Config, kind SchemeKind, prog *isa.Program) (*Core, error) {
	c := new(Core)
	if err := c.Reset(cfg, kind, prog); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initialises c exactly as New builds a core for cfg, kind and
// prog, keeping every backing array that still fits: the cache tag
// arrays, prefetcher and predictor tables, MSHRs, uop arena, ROB,
// register file, checkpoints and queues. Main memory drops its pages and
// reloads the program's data image; the previous taint unit goes back to
// its kind's pool and the scheme's comes from its own, re-initialised.
// Everything else is zeroed, CommitHook, Observer and Stats
// included, so a recycled core is reflect.DeepEqual to a new one
// (TestResetMatchesNew). On error c is left unchanged.
func (c *Core) Reset(cfg Config, kind SchemeKind, prog *isa.Program) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	if int(kind) >= len(roster) {
		return fmt.Errorf("core: unknown scheme kind %d (known: %v)", kind, SchemeNames())
	}
	if c.a == nil {
		// A zero Core, New's: there is nothing to keep yet.
		*c = Core{hier: new(mem.Hierarchy), main: new(mem.Main), fe: new(frontend), a: new(uopArena),
			rob: new(rob), prf: new(physRegFile), rat: new(rat), ckpts: new(checkpointFile),
			lsu: new(lsu), mdp: new(memDepPredictor)}
	}
	a, oldTaint := c.a, c.taint
	a.reset()
	c.hier.Reset(cfg.hierarchy())
	c.main.Reset()
	c.rob.reset(cfg.ROBSize, a)
	c.prf.reset(cfg.PhysRegs(), a)
	c.rat.reset()
	c.ckpts.reset(cfg.MaxBranches)
	c.lsu.reset(a)
	c.mdp.reset()
	*c = Core{
		cfg:          cfg,
		kind:         kind,
		prog:         prog,
		main:         c.main,
		hier:         c.hier,
		fe:           c.fe,
		a:            a,
		rob:          c.rob,
		prf:          c.prf,
		rat:          c.rat,
		arat:         c.rat.m, // the identity map, like the fresh RAT
		ckpts:        c.ckpts,
		iq:           emptied(c.iq),
		events:       eventQueue{h: emptied(c.events.h)},
		lsu:          c.lsu,
		mdp:          c.mdp,
		nonSpecLoadQ: emptied(c.nonSpecLoadQ),
		curSafeSeq:   noYRoT,
		prevSafeSeq:  noYRoT,
	}
	c.fe.reset(&c.cfg, prog)
	// The mutation tests' fault switches take effect here, once per core.
	p := roster[kind].load
	c.withholdBroadcast = p.withholdBroadcast && !ndaWithholdDisabled
	c.specWakeup = cfg.SpecWakeup && !p.noSpecWakeup
	c.delaySpecMiss = p.delaySpecMiss && !domDelayDisabled
	c.invisibleLoads = p.invisibleLoads && !invisiBufferDisabled
	if oldTaint != nil {
		oldTaint.release()
	}
	c.taint = noTaint{}
	if newTaint := roster[kind].taint; newTaint != nil {
		c.taint = newTaint(c)
	}
	// Install the data image segment-wise: flattening it to a map first
	// cost more than the simulation the cell runs.
	for _, seg := range prog.Data {
		c.main.WriteRange(seg.Addr, seg.Words)
	}
	return nil
}

// pool recycles cores across cells for every caller in the process: the
// evaluation engine and the fuzz oracle run thousands of cells, and Reset
// on a recycled core clears its tag arrays and tables where New would
// allocate a fresh machine of about 300 kB. Their workers have no
// identity, so the pool is the per-P cache.
var pool = sync.Pool{New: func() any { return new(Core) }}

// Pooled returns a core from the process-wide pool. It may hold any
// earlier cell's state: Reset it before use, and hand it back with
// Recycle.
func Pooled() *Core { return pool.Get().(*Core) }

// Recycle hands c back to the pool. It drops CommitHook and Observer
// first, so the pool keeps no caller's hook or trace recorder alive. c
// must not be used afterwards.
func (c *Core) Recycle() {
	c.CommitHook, c.Observer = nil, nil
	pool.Put(c)
}

// emptied returns s at length zero with its backing array kept. A nil s
// comes back as a non-nil empty slice, which costs no allocation, so a
// fresh core's buffers and a recycled core's compare reflect.DeepEqual.
func emptied[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s[:0]
}

// sized returns s as n zeroed elements, reusing its backing array when it
// is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// MustNew is New that panics on error, for known-good static setups.
func MustNew(cfg Config, kind SchemeKind, prog *isa.Program) *Core {
	c, err := New(cfg, kind, prog)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Scheme returns the active secure speculation scheme.
func (c *Core) Scheme() SchemeKind { return c.kind }

// Hierarchy exposes the memory system (cache side-channel probes).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Memory exposes architectural (committed) data memory.
func (c *Core) Memory() *mem.Main { return c.main }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether the program's Halt has reached commit.
func (c *Core) Halted() bool { return c.halted }

// ArchReg returns the committed architectural value of register r: the
// value the program observes for r at the current commit point. Wrong-path
// and in-flight (uncommitted) writes are invisible, so after a halted run
// this matches the in-order reference simulator.
func (c *Core) ArchReg(r isa.Reg) uint64 {
	if r == isa.X0 {
		return 0
	}
	return c.prf.value[c.arat[r]]
}

// Step advances the machine by one cycle. Stages run back-to-front so an
// instruction moves through at most one stage per cycle.
func (c *Core) Step() {
	c.cycle++
	c.stepped++
	c.Stats.Cycles = c.cycle
	c.progressed = false
	c.commitStage()
	if c.halted {
		return
	}
	c.vpStage()
	c.writebackStage()
	c.issueStage()
	c.renameStage()
	c.fe.step(c.cycle)
	if c.fe.fetched != c.Stats.Fetched {
		// The front end fetches whenever it is neither stalled nor full, so
		// a fetch-count change is exactly "fetch made progress".
		c.progressed = true
	}
	c.Stats.Fetched = c.fe.fetched
	c.Stats.BTBMissForcedNT = c.fe.btbMissesNT
	c.prevSafeSeq = c.curSafeSeq
}

// RunLimits bounds a Run invocation.
type RunLimits struct {
	MaxCycles uint64
	MaxInsts  uint64
}

// Result summarizes a Run.
type Result struct {
	Cycles uint64
	Insts  uint64
	IPC    float64
	Halted bool
	Stats  Stats
}

// Run executes until the program halts or a limit is reached. It returns
// an error if the machine stops committing instructions (a model deadlock,
// which is always a bug).
//
// Run is event-driven across idle stretches: after a cycle in which no
// stage changed machine state, it warps the clock directly to the cycle
// before the next scheduled wake-up (nextWake) instead of ticking through
// the gap one empty cycle at a time. The warp is cycle-exact, not merely
// cycle-approximate — every stage is gated on comparisons of the clock
// against exactly the times nextWake scans, so nothing can happen strictly
// inside the gap, and skipping may never change which cycle anything
// happens on, only how fast we get there. The commit-stream goldens and
// the cycle-pinned DoM/InvisiSpec tests hold byte-identical with skipping
// active, which is the proof. Callers that drive Step directly get the
// plain ticking machine.
func (c *Core) Run(lim RunLimits) (Result, error) {
	if lim.MaxCycles == 0 {
		lim.MaxCycles = ^uint64(0)
	}
	if lim.MaxInsts == 0 {
		lim.MaxInsts = ^uint64(0)
	}
	for !c.halted && c.cycle < lim.MaxCycles && c.Stats.Committed < lim.MaxInsts {
		blockedBefore := c.Stats.TaintBlockedSelects
		c.Step()
		if c.cycle-c.lastCommitCycle > watchdogCycles {
			return c.result(), fmt.Errorf("core: %s/%s: no commit for %d cycles at cycle %d (pc %d, rob %d)",
				c.cfg.Name, c.kind, watchdogCycles, c.cycle, c.fe.pc, c.rob.len())
		}
		if c.progressed || c.halted {
			continue
		}
		wake := c.nextWake()
		if wake == noWake {
			// Nothing is scheduled at all: the machine is deadlock-bound,
			// and ticking into the watchdog reports it at its exact cycle.
			continue
		}
		// Warp to the last cycle of the idle gap. Clamps keep the observable
		// trajectory identical to ticking: Result.Cycles may not overshoot
		// the caller's limit (the harness's warmup/measure boundaries land
		// exactly), and the watchdog must trip at the same cycle it would
		// have.
		target := wake - 1
		if target > lim.MaxCycles {
			target = lim.MaxCycles
		}
		if wd := c.lastCommitCycle + watchdogCycles; target > wd {
			target = wd
		}
		if target <= c.cycle {
			continue
		}
		// The ticking machine would have charged every skipped cycle to the
		// same (frozen) rename stall reason and re-blocked the same tainted
		// selections; replay those per-cycle statistics in bulk.
		skipped := target - c.cycle
		c.cycle = target
		c.Stats.Cycles = target
		if c.idleStall != nil {
			*c.idleStall += skipped
		}
		c.Stats.TaintBlockedSelects += skipped * (c.Stats.TaintBlockedSelects - blockedBefore)
	}
	return c.result(), nil
}

// noWake is nextWake's "nothing scheduled" sentinel.
const noWake = ^uint64(0)

// nextWake returns the earliest future cycle at which any stage of an idle
// machine could make progress, or noWake when nothing is scheduled. Every
// implicit "wake at cycle X" in the machine is an explicit field this scan
// reads: completion events (the heap head), the front-end pipeline depth
// (the oldest fetch entry's readyAt), LSU retry backoffs and operand
// wake-ups cached in the issue-queue scoreboard (retryAt/srcReadyAt — the
// visibility-point walk re-arms parked Delay-on-Miss loads through the
// same field), the divider, in-flight MSHR fills, and the ROB head's
// InvisiSpec exposure completion. Values at or before the current cycle
// describe conditions that are already satisfied yet still blocked on
// something non-temporal (a full resource, a taint frontier); time alone
// cannot unblock those, so they are ignored. The sentinels neverRetry and
// neverReady equal noWake and fall out of the min naturally.
func (c *Core) nextWake() uint64 {
	w := uint64(noWake)
	consider := func(t uint64) {
		if t > c.cycle && t < w {
			w = t
		}
	}
	if at, ok := c.events.nextAt(); ok {
		consider(at)
	}
	if c.fe.qlen() > 0 {
		consider(c.fe.queue[c.fe.head].readyAt)
	}
	if head, ok := c.rob.peek(); ok {
		if b := &c.a.body[head]; b.invisible && b.exposed {
			consider(b.exposeDoneAt)
		}
	}
	consider(c.divBusyUntil)
	consider(c.hier.EarliestMSHRDone())
	a := c.a
	for _, u := range c.iq {
		if a.state[u] == stateSquashed {
			continue
		}
		// Each entry wakes when the last of its time-based issue gates
		// opens; a max with an unannounced operand (neverReady) correctly
		// reports "no time-based wake" for that entry.
		switch a.cls[u] {
		case isa.ClassStore:
			b := &a.body[u]
			if !b.addrIssued {
				consider(max(a.retryAt[u], a.src1ReadyAt[u]))
			}
			if !b.dataIssued {
				consider(a.src2ReadyAt[u])
			}
		case isa.ClassLoad:
			consider(max(a.retryAt[u], a.src1ReadyAt[u]))
		default:
			consider(max(a.src1ReadyAt[u], a.src2ReadyAt[u]))
		}
	}
	return w
}

func (c *Core) result() Result {
	return Result{
		Cycles: c.cycle,
		Insts:  c.Stats.Committed,
		IPC:    c.Stats.IPC(),
		Halted: c.halted,
		Stats:  c.Stats,
	}
}

// ---------------------------------------------------------------------------
// Commit

func (c *Core) commitStage() {
	for n := 0; n < c.cfg.Width; n++ {
		u, ok := c.rob.peek()
		if !ok {
			return
		}
		b := &c.a.body[u]
		if b.inst.Op == isa.Halt {
			c.halted = true
			return
		}
		if c.a.state[u] != stateDone {
			return
		}
		if b.orderViolation && c.a.isLoad(u) {
			// BOOM's memory-ordering recovery: flush at commit of the load
			// that read stale data and refetch from it. The dependence
			// predictor learns the PC so the refetched load waits for older
			// store addresses instead of re-violating.
			c.Stats.MemOrderFlushes++
			pc := b.pc
			c.mdp.record(pc)
			c.flushPipeline(pc)
			return
		}
		if b.invisible {
			// InvisiSpec: an invisible load cannot retire before its
			// exposure re-access completes. Commit can outrun the
			// visibility-point walk within a cycle, so the exposure may
			// have to start here; reaching commit proves non-speculation.
			b.nonSpec = true
			if !b.exposed && !c.exposeLoad(u, c.cycle) {
				return // all MSHRs busy; retry next cycle
			}
			if b.exposeDoneAt > c.cycle {
				return // exposure in flight; the load stalls at the head
			}
		}
		c.rob.pop()
		c.progressed = true
		var commitAnnot TraceAnnot
		if c.vpDone > 0 {
			// Head pop shifts the visibility-point walk's resume offset.
			// An unvisited head (commit ran ahead of the walk, offset 0)
			// stays at the new head.
			c.vpDone--
		}
		c.lastCommitCycle = c.cycle
		c.Stats.Committed++
		switch c.a.cls[u] {
		case isa.ClassLoad:
			c.Stats.CommittedLoads++
			// Commit is the definitive visibility point: a load can reach
			// commit without the VP scan having seen it (commit runs ahead
			// of the scan within a cycle), so advance the YRoT-safety
			// frontier here or taints rooted at this load would never
			// clear.
			if !b.broadcasted {
				b.broadcasted = true
				if seq := int64(c.a.seq[u]); seq > c.curSafeSeq {
					c.curSafeSeq = seq
				}
				c.Stats.YRoTBroadcasts++
			}
			if b.broadcastPending {
				// The bounded broadcast network has not reached this load
				// yet, but commit proves it non-speculative; release the
				// ready broadcast before its register can be reallocated.
				b.broadcastPending = false
				commitAnnot |= AnnotNDAReleased
				if b.pd != noReg {
					c.prf.announce(b.pd, c.cycle)
				}
			}
		case isa.ClassStore:
			c.Stats.CommittedStores++
			c.main.Write(b.addr, b.result)
			c.hier.Store(b.addr, c.cycle)
		case isa.ClassBranch:
			c.Stats.CommittedBranches++
			c.fe.dir.Update(b.pc, b.predHist, b.taken)
			if b.taken {
				c.fe.btb.Update(b.pc, b.target, false, false)
			} else {
				// A branch that stops being taken must not keep its stale
				// taken-target entry: the front end only redirects on a
				// direction-predictor taken AND a BTB hit, so a dead entry
				// would force wrong-path redirects forever (e.g. after a
				// loop exit).
				c.fe.btb.Invalidate(b.pc)
			}
		case isa.ClassJump:
			c.Stats.CommittedJumps++
			if b.inst.Op == isa.Jalr {
				isCall := b.inst.Rd == isa.RegLink
				isRet := b.inst.Rd == isa.X0 && b.inst.Rs1 == isa.RegLink
				c.fe.btb.Update(b.pc, b.target, isCall, isRet)
			}
		}
		if b.pd != noReg {
			c.arat[b.inst.Rd] = b.pd
			if b.stalePd != noReg {
				c.prf.release(b.stalePd)
			}
		}
		c.releaseCheckpointOf(u)
		c.lsu.commitOldest(u)
		if c.CommitHook != nil {
			c.CommitHook(c.commitRecord(u))
		}
		if c.Observer != nil {
			c.observe(u, StageCommit, partWhole, commitAnnot)
		}
		// The slot recycles immediately: a committed uop has provably
		// drained every live reference — its events fired before it could
		// complete, its operand watches were announced before it could
		// issue — and the one container that may still name it (the
		// pending-broadcast queue) holds a generation-counted handle that
		// just went stale.
		c.a.release(u)
	}
}

func (c *Core) releaseCheckpointOf(u int32) {
	b := &c.a.body[u]
	if b.ckpt < 0 {
		return
	}
	ck := c.ckpts.get(b.ckpt)
	if ck.inUse && ck.seq == c.a.seq[u] {
		c.ckpts.release(b.ckpt)
	}
	b.ckpt = -1
}

func (c *Core) commitRecord(u int32) isa.Commit {
	b := &c.a.body[u]
	rec := isa.Commit{
		PC:     b.pc,
		Inst:   b.inst,
		Value:  b.result,
		Taken:  b.taken,
		Target: b.target,
	}
	if c.a.isLoad(u) || c.a.isStore(u) {
		rec.Addr = b.addr &^ 7
	}
	if b.pd != noReg {
		rec.Rd = b.inst.Rd
	}
	return rec
}

// ---------------------------------------------------------------------------
// Visibility point and bounded broadcast

func (c *Core) vpStage() {
	// Resume the walk at the last stall point: everything older is
	// already non-speculative (nonSpec is never cleared on a live uop),
	// so re-walking from the head would only re-skip marked entries.
	c.vpDone = c.rob.forEachFrom(c.vpDone, func(u int32) bool {
		b := &c.a.body[u]
		if c.a.castsCShadow(u) && c.a.state[u] != stateDone {
			return false
		}
		if c.a.castsDShadow(u) && !b.addrReady {
			return false
		}
		if c.a.isLoad(u) && b.orderViolation {
			// A load that read stale data is bound to be squashed at
			// commit, not committed: it must never reach the visibility
			// point, or its (wrong, possibly secret) value would be
			// declared safe and broadcast.
			return false
		}
		// Every guard above has passed: the uop is at the visibility
		// point. Mark it before the exposure re-access so the observer can
		// see (rather than assume) that exposures are never
		// speculative — a load whose exposure stalls on a busy MSHR is
		// already safe, it just hasn't paid the re-access yet.
		b.nonSpec = true
		if b.invisible && !b.exposed && !c.exposeLoad(u, c.cycle) {
			// InvisiSpec exposure needs an MSHR and none is free: the
			// walk stalls here and retries next cycle.
			return false
		}
		var vpAnnot TraceAnnot
		if c.a.isLoad(u) {
			if b.missDelayed && c.a.state[u] == stateWaiting {
				// Delay-on-Miss wakeup: the miss is non-speculative now;
				// the parked load may re-attempt its access next cycle.
				// This re-arm is the explicit wake registration nextWake's
				// retryAt scan depends on.
				c.a.retryAt[u] = c.cycle + 1
				vpAnnot |= AnnotDoMResumed
			}
			c.nonSpecLoadQ = append(c.nonSpecLoadQ, c.a.ref(u))
		}
		c.progressed = true
		if c.Observer != nil {
			c.observe(u, StageVP, partWhole, vpAnnot)
		}
		return true
	})
	// Broadcast non-speculative loads: at most one per memory port per
	// cycle (the broadcast network shared by STT's YRoT wakeups and NDA's
	// delayed ready broadcasts, Sections 4.4 and 5.1). Stale handles —
	// loads already broadcast at commit, or squashed wrong-path loads;
	// either way the slot was released and the generation moved on — are
	// dropped without consuming a port: they put nothing on the broadcast
	// network, so charging them a slot would under-model the bandwidth
	// available to real broadcasts behind them in the queue.
	// The queue drains from the front by index, with one compaction at the
	// end of the cycle: popping via q = q[1:] would slide the slice along
	// its backing array until the walk's append reallocates it — a
	// per-window heap allocation in the hottest loop of the simulator.
	q := c.nonSpecLoadQ
	pop := 0
	for n := 0; n < c.cfg.MemPorts && pop < len(q); {
		ref := q[pop]
		pop++
		if !c.a.live(ref) {
			continue
		}
		ld := ref.idx
		b := &c.a.body[ld]
		if b.broadcasted {
			continue
		}
		n++
		b.broadcasted = true
		if seq := int64(c.a.seq[ld]); seq > c.curSafeSeq {
			c.curSafeSeq = seq
		}
		c.Stats.YRoTBroadcasts++
		if b.broadcastPending {
			// NDA: release the withheld ready broadcast; dependents can
			// issue next cycle.
			b.broadcastPending = false
			c.prf.announce(b.pd, c.cycle+1)
			if c.Observer != nil {
				c.observe(ld, StageVP, partWhole, AnnotNDAReleased)
			}
		}
	}
	if pop > 0 {
		c.progressed = true
		kept := copy(q, q[pop:])
		c.nonSpecLoadQ = q[:kept]
	}
}

// exposeLoad performs the InvisiSpec exposure re-access for an invisible
// load that reached the visibility point (or commit): the real hierarchy
// access — fills, MSHR occupancy, prefetcher training — whose completion
// gates the load's commit. It reports false when every MSHR is busy; the
// caller retries next cycle (fills drain on their own, so this cannot
// wedge).
func (c *Core) exposeLoad(u int32, now uint64) bool {
	// Either outcome disqualifies idle-skipping this cycle: success mutates
	// the hierarchy, and every stalled cycle is a real MSHR probe (with its
	// own retry accounting) that the ticking machine performs per cycle.
	c.progressed = true
	b := &c.a.body[u]
	if b.exposeTried == now+1 {
		// commitStage already attempted (and failed) this exposure this
		// cycle; the visibility-point walk runs after it and must not
		// probe the MSHR file again — one stalled cycle is one retry,
		// not two.
		return false
	}
	done, hit, ok := c.hier.Load(b.pc, b.addr, now)
	if !ok {
		b.exposeTried = now + 1
		c.Stats.ExposureRetries++
		return false
	}
	b.exposed = true
	b.exposeDoneAt = done
	c.lsu.specBufDrop(u)
	c.Stats.Exposures++
	if c.Observer != nil {
		// Both exposure sites — the visibility-point walk and commit —
		// report StageVP: commit is the definitive visibility point, and
		// either way the exposure is the delay InvisiSpec inserted there.
		an := AnnotExposure
		if hit {
			an |= AnnotL1Hit
		}
		c.observe(u, StageVP, partWhole, an)
	}
	return true
}

// ---------------------------------------------------------------------------
// Writeback

// writebackStage retires the completion events due this cycle. Events pop
// in (cycle, seq) order, so same-cycle completions are processed oldest-
// first — in particular, an older mispredicted branch squashes younger
// same-cycle completions before their events surface, and those surface
// with stale handles (the squash released their slots) and are discarded.
func (c *Core) writebackStage() {
	for {
		e, ok := c.events.due(c.cycle)
		if !ok {
			return
		}
		c.progressed = true
		if !c.a.live(e.ref) {
			continue // owner squashed after issue; the event outlived it
		}
		u := e.ref.idx
		b := &c.a.body[u]
		switch e.kind {
		case evStoreAddr:
			b.addrReady = true
			if v := c.lsu.checkViolations(u); v > 0 {
				c.Stats.MemOrderViolations += uint64(v)
			}
			if b.dataReady {
				c.a.state[u] = stateDone
			}
			if c.Observer != nil {
				c.observe(u, StageWriteback, partStoreAddr, 0)
			}
		case evStoreData:
			b.dataReady = true
			if b.addrReady {
				c.a.state[u] = stateDone
			}
			if c.Observer != nil {
				c.observe(u, StageWriteback, partStoreData, 0)
			}
		default:
			c.completeUop(u)
		}
	}
}

func (c *Core) completeUop(u int32) {
	c.a.state[u] = stateDone
	b := &c.a.body[u]
	if b.pd != noReg {
		c.prf.value[b.pd] = b.result
	}
	switch c.a.cls[u] {
	case isa.ClassLoad:
		c.loadBroadcast(u)
	case isa.ClassBranch:
		c.resolveControl(u, true)
	case isa.ClassJump:
		if b.inst.Op == isa.Jalr {
			c.resolveControl(u, false)
		}
	}
	if c.Observer != nil {
		// After the switch so the record carries what completion caused:
		// loadBroadcast just decided whether NDA withholds the ready
		// broadcast, and a control uop's actual target is compared against
		// its prediction (u itself survives its own squash, so the slot is
		// still live here).
		var an TraceAnnot
		if b.broadcastPending {
			an |= AnnotNDAWithheld
		}
		if c.a.isLoad(u) {
			if b.hitL1 {
				an |= AnnotL1Hit
			}
			if b.invisible {
				an |= AnnotInvisible
			}
		}
		if (c.a.cls[u] == isa.ClassBranch || b.inst.Op == isa.Jalr) && b.target != b.predTarget {
			an |= AnnotMispredict
		}
		c.observe(u, StageWriteback, partWhole, an)
	}
}

// loadBroadcast applies the scheme's broadcast policy when load data
// arrives.
func (c *Core) loadBroadcast(u int32) {
	b := &c.a.body[u]
	if b.pd == noReg {
		return
	}
	if c.withholdBroadcast && !b.nonSpec {
		// NDA: data is written to the register file but the ready
		// broadcast is withheld until the load is non-speculative
		// (Figure 5b's split data-write/broadcast buses).
		b.broadcastPending = true
		c.Stats.DelayedBroadcasts++
		return
	}
	if !c.specWakeup {
		// Without speculative wakeup the broadcast follows writeback.
		c.prf.announce(b.pd, c.cycle+1)
		if c.Observer != nil {
			c.Observer.Observe(c.event(u, c.cycle+1, StageBroadcast, partWhole, 0))
		}
	}
	// With speculative wakeup readyAt was announced (and observed) at issue.
}

// resolveControl handles branch/jalr resolution, squashing on mispredict.
func (c *Core) resolveControl(u int32, conditional bool) {
	c.Stats.BranchesResolved++
	b := &c.a.body[u]
	if b.target == b.predTarget {
		c.releaseCheckpointOf(u)
		return
	}
	c.Stats.Mispredicts++
	c.squashAfterBranch(u, conditional)
}

// ---------------------------------------------------------------------------
// Squash and flush

// reclaim kills one squashed uop and releases its arena slot on the spot.
// Pending events, wakeup-list entries, and broadcast-queue entries that
// still name the uop hold generation-counted handles, which the release
// just invalidated — no deferred bookkeeping, no allocation, and the slot
// is immediately reusable by the refetched path. The freed slot's data
// stays readable until the next alloc, which the rest of the squash window
// (IQ filter, LSU tail truncation) relies on.
func (c *Core) reclaim(u int32) {
	c.Stats.SquashedUops++
	c.a.state[u] = stateSquashed
	if c.Observer != nil {
		c.observe(u, StageSquash, partWhole, 0)
	}
	// A squashed invisible load is discarded from the speculative buffer
	// without ever being exposed — no cache state was touched, none will
	// be (the InvisiSpec security argument).
	c.lsu.specBufDrop(u)
	b := &c.a.body[u]
	if b.pd != noReg {
		c.prf.release(b.pd)
		b.pd = noReg
	}
	c.a.release(u)
}

// squashAfterBranch restores state to the mispredicted control instruction
// u and redirects fetch to its actual target. Younger checkpoints are
// released; u's own checkpoint provides the RAT, taint (scheme), RAS, and
// history recovery state.
func (c *Core) squashAfterBranch(u int32, conditional bool) {
	b := &c.a.body[u]
	seq := c.a.seq[u]
	ck := c.ckpts.get(b.ckpt)
	c.rob.squashYoungerThan(seq, c.reclaim)
	if c.vpDone > c.rob.len() {
		// The walk never passes an unresolved branch, so its visited
		// prefix survives the tail truncation; cap it all the same.
		c.vpDone = c.rob.len()
	}
	c.filterIQ()
	c.pruneNonSpecLoadQ(seq)
	c.lsu.squashYoungerThan(seq)
	c.rat.restore(ck.ratCopy)
	c.taint.restoreCheckpoint(b.ckpt)
	c.fe.ras.Restore(ck.rasTop)
	if conditional {
		c.fe.ghr = ck.ghr<<1 | b2u(b.taken)
	} else {
		c.fe.ghr = ck.ghr
	}
	// Checkpoints held by squashed younger branches.
	for id := range c.ckpts.cks {
		if c.ckpts.cks[id].inUse && c.ckpts.cks[id].seq > seq {
			c.ckpts.release(id)
		}
	}
	c.releaseCheckpointOf(u)
	c.fe.redirect(b.target)
}

// flushPipeline squashes everything in flight and refetches from pc
// (memory-ordering violation recovery).
func (c *Core) flushPipeline(pc uint64) {
	c.progressed = true
	c.rob.squashYoungerThan(0, c.reclaim)
	c.vpDone = 0
	c.rat.restore(c.arat)
	c.ckpts.releaseAll()
	c.taint.fullFlush()
	c.lsu.clear()
	c.iq = c.iq[:0]
	c.events.clear()
	c.prf.clearWaiters()
	c.nonSpecLoadQ = c.nonSpecLoadQ[:0]
	c.fe.redirect(pc)
}

// pruneNonSpecLoadQ drops dead entries from the pending broadcast queue
// after a branch squash: every squashed load's handle just went stale.
// flushPipeline clears the queue wholesale, but a branch squash did not —
// and while the drain would skip stale handles anyway, leaving them queued
// would make later vpStage drains report progress on cycles where nothing
// real happened, shrinking idle-warp coverage.
func (c *Core) pruneNonSpecLoadQ(limit uint64) {
	live := c.nonSpecLoadQ[:0]
	for _, ref := range c.nonSpecLoadQ {
		if c.a.live(ref) && c.a.seq[ref.idx] <= limit {
			live = append(live, ref)
		}
	}
	c.nonSpecLoadQ = live
}

func (c *Core) filterIQ() {
	live := c.iq[:0]
	for _, u := range c.iq {
		if c.a.state[u] != stateSquashed {
			live = append(live, u)
		}
	}
	c.iq = live
}

// ---------------------------------------------------------------------------
// Issue

// issueStage selects ready uops in age order. Readiness comes from the
// scoreboard: each entry carries its operands' announced readiness times
// (src1ReadyAt/src2ReadyAt, refreshed by physRegFile wakeups), so the scan
// is integer compares over the arena's contiguous hot slices — no
// per-operand register-file polling, no pointer chasing.
func (c *Core) issueStage() {
	slots := c.cfg.IssueWidth()
	memPorts := c.cfg.MemPorts
	aluUnits := c.cfg.Width
	mulUnits := 1
	divFree := c.divBusyUntil <= c.cycle

	// The queue compacts in place, writing an entry only when something
	// ahead of it actually left: on an all-stalled cycle the scan stores
	// nothing at all.
	a := c.a
	iq := c.iq
	w := 0
	for i, u := range iq {
		if a.state[u] == stateSquashed {
			continue
		}
		kept := true
		if slots > 0 {
			switch cls := a.cls[u]; cls {
			case isa.ClassStore:
				c.issueStoreParts(u, &slots, &memPorts)
				b := &a.body[u]
				kept = !(b.addrIssued && b.dataIssued)
			case isa.ClassLoad:
				// Not-ready fast path: the full attempt's own readiness
				// short-circuit fires before any side effect, so skipping
				// here is equivalent and keeps the taint unit cold.
				if a.retryAt[u] <= c.cycle && a.src1ReadyAt[u] <= c.cycle {
					kept = !c.issueLoad(u, &slots, &memPorts)
				}
			default:
				if a.src1ReadyAt[u] <= c.cycle && a.src2ReadyAt[u] <= c.cycle {
					kept = !c.issueSimple(u, cls, &slots, &aluUnits, &mulUnits, &divFree)
				}
			}
		}
		if kept {
			if w != i {
				iq[w] = u
			}
			w++
		}
	}
	if w != len(iq) {
		c.iq = iq[:w]
	}
}

// issueStoreParts attempts the address and data halves of a store.
func (c *Core) issueStoreParts(u int32, slots, memPorts *int) {
	b := &c.a.body[u]
	if !b.addrIssued && *slots > 0 && *memPorts > 0 && c.a.retryAt[u] <= c.cycle &&
		c.a.src1ReadyAt[u] <= c.cycle && c.taint.canSelect(u, partStoreAddr) {
		*slots--
		c.progressed = true // slot consumed: issue, or a state-mutating nop
		if c.taint.onIssue(u, partStoreAddr) {
			*memPorts--
			b.addrIssued = true
			b.addr = c.prf.read(b.ps1) + uint64(b.inst.Imm)
			b.addrDoneAt = c.cycle + execDelay + aguLat
			c.Stats.IssuedUops++
			c.schedule(u, b.addrDoneAt, evStoreAddr)
			if c.Observer != nil {
				c.observeIssue(u, partStoreAddr, 0)
			}
		} else if c.Observer != nil {
			c.observe(u, StageIssue, partStoreAddr, AnnotSTTNopped)
		}
	}
	if !b.dataIssued && *slots > 0 && c.a.src2ReadyAt[u] <= c.cycle && c.taint.canSelect(u, partStoreData) {
		*slots--
		c.progressed = true
		if c.taint.onIssue(u, partStoreData) {
			b.dataIssued = true
			b.result = c.prf.read(b.ps2)
			b.dataDoneAt = c.cycle + execDelay + 1
			c.Stats.IssuedUops++
			c.schedule(u, b.dataDoneAt, evStoreData)
			if c.Observer != nil {
				c.observeIssue(u, partStoreData, 0)
			}
		} else if c.Observer != nil {
			c.observe(u, StageIssue, partStoreData, AnnotSTTNopped)
		}
	}
}

// schedule enqueues a completion event for u's issued part and moves the
// uop out of the waiting state.
func (c *Core) schedule(u int32, at uint64, kind evKind) {
	if c.a.state[u] == stateWaiting {
		c.a.state[u] = stateExecuting
	}
	c.events.push(event{at: at, seq: c.a.seq[u], kind: kind, ref: c.a.ref(u)})
}

// issueLoad attempts a load; it reports whether the uop left the queue.
func (c *Core) issueLoad(u int32, slots, memPorts *int) bool {
	if *memPorts <= 0 || c.a.retryAt[u] > c.cycle ||
		c.a.src1ReadyAt[u] > c.cycle || !c.taint.canSelect(u, partWhole) {
		return false
	}
	*slots--
	// Every path from here mutates state (an issue, a nop with taint
	// back-propagation, a retry backoff, a Delay-on-Miss park), so the
	// cycle cannot be idle-skipped.
	c.progressed = true
	if !c.taint.onIssue(u, partWhole) {
		if c.Observer != nil {
			c.observe(u, StageIssue, partWhole, AnnotSTTNopped)
		}
		return false // nop-ed by the taint unit; stays queued
	}
	*memPorts--
	b := &c.a.body[u]
	b.addr = c.prf.read(b.ps1) + uint64(b.inst.Imm)
	res, val, fromSeq, sawUnknown := c.lsu.search(u)
	if res == fwdNone && sawUnknown && c.mdp.mustWait(b.pc, c.cycle) {
		// Dependence predictor: this load recently read stale data past an
		// unresolved store address; wait instead of speculating no-alias.
		c.Stats.MemDepStalls++
		c.a.retryAt[u] = c.cycle + 2
		return false
	}
	switch res {
	case fwdWait:
		// An older store to the same word has not read its data yet; the
		// load replays once it has.
		c.Stats.FwdWaits++
		c.a.retryAt[u] = c.cycle + 2
		return false
	case fwdHit:
		c.Stats.FwdHits++
		b.result = val
		b.fwdFromSeq = fromSeq
		c.a.doneAt[u] = c.cycle + execDelay + aguLat + fwdLat
		b.hitL1 = true
	case fwdNone:
		at := c.cycle + execDelay + aguLat
		if !b.nonSpec && c.delaySpecMiss {
			if _, hit := c.hier.Peek(b.addr, at); !hit {
				// Delay-on-Miss: a speculative miss must leave no trace in
				// the hierarchy. The load parks until the visibility-point
				// walk marks it non-speculative and re-arms its retryAt
				// (value prediction off: dependents simply wait).
				// The park happens exactly once per load: the only
				// re-arm path (the visibility-point walk) marks the
				// load non-speculative first, so a woken load can
				// never re-enter this branch.
				b.missDelayed = true
				c.Stats.DoMDelayedLoads++
				c.a.retryAt[u] = neverRetry
				if c.Observer != nil {
					c.observe(u, StageIssue, partWhole, AnnotDoMParked)
				}
				return false
			}
		}
		if !b.nonSpec && c.invisibleLoads {
			// InvisiSpec: the access goes to the per-load speculative
			// buffer — hierarchy latency, none of its side effects. The
			// exposure re-access happens at the visibility point.
			done, hit := c.hier.Peek(b.addr, at)
			b.result = c.main.Read(b.addr)
			c.a.doneAt[u] = done
			b.hitL1 = hit
			b.invisible = true
			if n := c.lsu.specBufAdd(u); n > c.Stats.SpecBufPeak {
				c.Stats.SpecBufPeak = n
			}
			c.Stats.InvisibleLoads++
			break
		}
		done, hit, ok := c.hier.Load(b.pc, b.addr, at)
		if !ok {
			c.Stats.MSHRRetries++
			c.a.retryAt[u] = c.cycle + 2
			return false
		}
		b.result = c.main.Read(b.addr)
		c.a.doneAt[u] = done
		b.hitL1 = hit
	}
	c.Stats.IssuedUops++
	if !b.nonSpec {
		c.Stats.SpecLoadsExecuted++
	}
	if b.pd != noReg && c.specWakeup {
		c.prf.announce(b.pd, c.a.doneAt[u])
		if c.Observer != nil {
			c.Observer.Observe(c.event(u, c.a.doneAt[u], StageBroadcast, partWhole, 0))
		}
	}
	c.schedule(u, c.a.doneAt[u], evDone)
	if c.Observer != nil {
		var an TraceAnnot
		if b.hitL1 {
			an |= AnnotL1Hit
		}
		if b.invisible {
			an |= AnnotInvisible
		}
		if res == fwdNone {
			// The access (demand or invisible) started after address
			// generation; a store-queue forward touched no cache.
			c.Observer.Observe(c.event(u, c.cycle+execDelay+aguLat, StageCacheAccess, partWhole, an))
		}
		c.observeIssue(u, partWhole, an)
	}
	return true
}

// issueSimple handles ALU, MUL, DIV, branch, and jump micro-ops; it
// reports whether the uop left the queue. The caller passes the decoded
// class and has already established operand readiness.
func (c *Core) issueSimple(u int32, cls isa.Class, slots, aluUnits, mulUnits *int, divFree *bool) bool {
	switch cls {
	case isa.ClassMul:
		if *mulUnits <= 0 {
			return false
		}
	case isa.ClassDiv:
		if !*divFree {
			return false
		}
	default:
		if *aluUnits <= 0 {
			return false
		}
	}
	if !c.taint.canSelect(u, partWhole) {
		return false
	}
	*slots--
	c.progressed = true
	if !c.taint.onIssue(u, partWhole) {
		if c.Observer != nil {
			c.observe(u, StageIssue, partWhole, AnnotSTTNopped)
		}
		return false
	}
	b := &c.a.body[u]
	a, bb := c.prf.read(b.ps1), c.prf.read(b.ps2)
	var lat uint64
	switch cls {
	case isa.ClassMul:
		*mulUnits--
		lat = mulLat
		b.result = isa.EvalALU(b.inst.Op, a, bb, b.inst.Imm)
	case isa.ClassDiv:
		*divFree = false
		lat = divLat
		c.divBusyUntil = c.cycle + divLat
		b.result = isa.EvalALU(b.inst.Op, a, bb, b.inst.Imm)
	case isa.ClassBranch:
		*aluUnits--
		lat = aluLat
		b.taken = isa.BranchTaken(b.inst.Op, a, bb)
		if b.taken {
			b.target = uint64(int64(b.pc) + b.inst.Imm)
		} else {
			b.target = b.pc + 1
		}
	case isa.ClassJump:
		*aluUnits--
		lat = aluLat
		b.taken = true
		if b.pd != noReg {
			b.result = b.pc + 1 // link value
		}
		if b.inst.Op == isa.Jal {
			b.target = uint64(int64(b.pc) + b.inst.Imm)
		} else {
			b.target = a + uint64(b.inst.Imm)
		}
	default: // ALU
		*aluUnits--
		lat = aluLat
		b.result = isa.EvalALU(b.inst.Op, a, bb, b.inst.Imm)
	}
	doneAt := c.cycle + lat
	if b.inst.IsControl() {
		// Control resolution becomes visible only after the issue-to-
		// execute depth; values still bypass at ALU latency.
		doneAt += execDelay
	}
	c.a.doneAt[u] = doneAt
	if b.pd != noReg {
		// The value is computed here and bypassed: consumers may read it
		// as soon as readyAt, which can precede the (possibly delayed)
		// writeback event.
		c.prf.value[b.pd] = b.result
		c.prf.announce(b.pd, c.cycle+lat)
	}
	c.Stats.IssuedUops++
	c.schedule(u, doneAt, evDone)
	if c.Observer != nil {
		c.observeIssue(u, partWhole, 0)
	}
	return true
}

// ---------------------------------------------------------------------------
// Rename

// watchOperands caches the operands' readiness times in the issue-queue
// entry and registers wakeup watches for operands whose producers have
// not yet announced a completion time. From here on, readiness updates
// flow to the entry through physRegFile.announce.
func (c *Core) watchOperands(u int32) {
	b := &c.a.body[u]
	if b.ps1 != noReg {
		c.a.src1ReadyAt[u] = c.prf.readyAt[b.ps1]
		if c.a.src1ReadyAt[u] == neverReady {
			c.prf.watch(b.ps1, c.a.ref(u))
		}
	}
	if b.ps2 != noReg {
		c.a.src2ReadyAt[u] = c.prf.readyAt[b.ps2]
		if c.a.src2ReadyAt[u] == neverReady && b.ps2 != b.ps1 {
			c.prf.watch(b.ps2, c.a.ref(u))
		}
	}
}

// renameStall charges a rename-stall cycle to one cause counter and
// records which, so an idle-cycle skip can charge every skipped cycle to
// the same counter: the stall cause is a function of machine state that an
// idle machine holds frozen.
func (c *Core) renameStall(ctr *uint64) {
	*ctr++
	c.idleStall = ctr
}

func (c *Core) renameStage() {
	for n := 0; n < c.cfg.Width; n++ {
		e, ok := c.fe.peek(c.cycle)
		if !ok {
			c.renameStall(&c.Stats.RenameStallEmpty)
			return
		}
		in := e.inst
		cls := isa.ClassOf(in.Op)
		needsIQ := cls != isa.ClassNop && cls != isa.ClassHalt &&
			!(in.Op == isa.Jal && in.Rd == isa.X0)
		needsCkpt := cls == isa.ClassBranch || in.Op == isa.Jalr
		switch {
		case c.rob.full():
			c.renameStall(&c.Stats.RenameStallROB)
			return
		case needsIQ && len(c.iq) >= c.cfg.IQSize():
			c.renameStall(&c.Stats.RenameStallIQ)
			return
		case cls == isa.ClassLoad && c.lsu.lqLen() >= c.cfg.LQSize():
			c.renameStall(&c.Stats.RenameStallLQ)
			return
		case cls == isa.ClassStore && c.lsu.sqLen() >= c.cfg.SQSize():
			c.renameStall(&c.Stats.RenameStallSQ)
			return
		case in.HasDest() && !c.prf.hasFree():
			c.renameStall(&c.Stats.RenameStallPhys)
			return
		case needsCkpt && !c.ckpts.hasFree():
			c.renameStall(&c.Stats.RenameStallCkpt)
			return
		}
		c.fe.consume()
		c.progressed = true
		c.seqCtr++
		u := c.a.alloc()
		c.a.seq[u] = c.seqCtr
		c.a.cls[u] = cls
		c.a.body[u] = uop{
			pc:          e.pc,
			inst:        in,
			pd:          noReg,
			stalePd:     noReg,
			ps1:         noReg,
			ps2:         noReg,
			ckpt:        -1,
			lqIdx:       -1,
			sqIdx:       -1,
			fwdFromSeq:  -1,
			yrot:        noYRoT,
			yrotAddr:    noYRoT,
			yrotData:    noYRoT,
			blockedYRoT: noYRoT,
			predTaken:   e.predTaken,
			predTarget:  e.predTarget,
			predHist:    e.predHist,
			rasTop:      e.rasTop,
			target:      e.pc + 1,
		}
		b := &c.a.body[u]
		if in.ReadsRs1() {
			b.ps1 = c.rat.lookup(in.Rs1)
		}
		if in.ReadsRs2() {
			b.ps2 = c.rat.lookup(in.Rs2)
		}
		if in.HasDest() {
			b.pd = c.prf.alloc()
			c.taint.allocPhys(b.pd)
			b.stalePd = c.rat.write(in.Rd, b.pd)
		}
		c.taint.renameOne(u)
		if needsCkpt {
			id := c.ckpts.alloc()
			ck := c.ckpts.get(id)
			ck.seq = c.seqCtr
			ck.ratCopy = c.rat.snapshot()
			ck.ghr = e.predHist
			ck.rasTop = e.rasTop
			b.ckpt = id
			c.taint.saveCheckpoint(id)
		}
		switch {
		case cls == isa.ClassNop || cls == isa.ClassHalt:
			c.a.state[u] = stateDone
		case in.Op == isa.Jal && in.Rd == isa.X0:
			// A pure direct jump does no work and never mispredicts.
			c.a.state[u] = stateDone
			b.taken = true
			b.target = e.predTarget
		default:
			c.watchOperands(u)
			c.iq = append(c.iq, u)
		}
		if cls == isa.ClassLoad {
			c.lsu.addLoad(u)
		}
		if cls == isa.ClassStore {
			c.lsu.addStore(u)
		}
		c.rob.push(u)
		if c.Observer != nil {
			// The fetch record is stamped retroactively: the fetch entry's
			// readyAt is its fetch cycle plus the front-end depth, and the
			// front end itself knows no sequence numbers.
			c.Observer.Observe(c.event(u, e.readyAt-frontendDelay, StageFetch, partWhole, 0))
			c.observe(u, StageRename, partWhole, 0)
		}
	}
}
