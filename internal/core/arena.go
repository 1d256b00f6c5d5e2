package core

import "repro/internal/isa"

// The arena-backed uop store.
//
// Uops used to be heap-allocated and passed around as *uop. That had two
// costs the profiles eventually surfaced: the per-cycle issue and wake
// scans chased pointers across the heap (each entry a cache miss once the
// pool shuffled), and a squashed uop could never be recycled while a
// pending completion event or register-file wakeup list still referenced
// it — which made squashes the one steady-state allocation source and
// grew a web of special cases (inNonSpecQ/dead deferred pooling).
//
// The arena replaces both mechanisms at once:
//
//   - Storage is struct-of-arrays for the fields the issue stage and the
//     wake-up filing touch (state, cls, seq, src1ReadyAt/src2ReadyAt,
//     retryAt, doneAt, the issue-queue index): a few contiguous slices
//     that stay L1-resident even at ROB-192 occupancy, instead of
//     256-byte records. Cold per-uop state (prediction bookkeeping,
//     store halves, scheme fields) stays together in an array-of-structs
//     body, paid for only on the instruction's own pipeline events.
//
//   - Slots are reclaimed through generation-counted handles. A uopRef
//     names a slot AND the generation it was allocated under; release
//     bumps the slot's generation, so every outstanding reference to the
//     old occupant becomes stale and self-invalidating — holders just
//     compare generations and skip. Long-lived containers that can outlive
//     a uop (the event wheel's completions, prf wakeup lists, the pending
//     broadcast queue) hold uopRefs; containers whose entries are removed
//     exactly when the uop dies (ROB, issue queue, LSU queues) hold raw
//     indices, and the ready set and the wheel's wake-ups, which the
//     squash clears, hold ROB positions. Squashed uops therefore recycle
//     immediately: reclaim releases the slot on the spot and whatever
//     references remain evaporate by generation mismatch.
//
// The arena grows only while the in-flight population reaches a new
// high-water mark (bounded by ROB size); after warmup, alloc and release
// are free-list pushes and pops — no allocation on any path, squashes
// included.

// uopRef is a generation-counted handle to an arena slot. The zero value
// is never live (generations start at 1), so zeroed containers are safe.
type uopRef struct {
	idx int32
	gen uint32
}

// uopArena stores every in-flight uop of one core.
type uopArena struct {
	// Hot struct-of-arrays fields, indexed by slot: the fields the issue
	// stage, its wake-up filing and writeback read.
	state       []uopState
	cls         []isa.Class // decoded at rename, immutable thereafter
	seq         []uint64
	src1ReadyAt []uint64
	src2ReadyAt []uint64
	retryAt     []uint64
	doneAt      []uint64
	iqIdx       []int32 // index in Core.iq while queued

	gen  []uint32 // current generation per slot; bumped on release
	body []uop    // cold fields, array-of-structs
	free []int32  // LIFO free list; keeps live uops in a compact index range
}

// reset empties the arena, keeping its slices' backing arrays. Slots
// are handed out again from index 0 with generation 1, as in a new arena.
func (a *uopArena) reset() {
	*a = uopArena{
		state:       emptied(a.state),
		cls:         emptied(a.cls),
		seq:         emptied(a.seq),
		src1ReadyAt: emptied(a.src1ReadyAt),
		src2ReadyAt: emptied(a.src2ReadyAt),
		retryAt:     emptied(a.retryAt),
		doneAt:      emptied(a.doneAt),
		iqIdx:       emptied(a.iqIdx),
		gen:         emptied(a.gen),
		body:        emptied(a.body),
		free:        emptied(a.free),
	}
}

// alloc claims a slot with hot fields reset (waiting, all times zero) and
// returns its index; the caller fully reinitializes seq, cls, and body.
// The LIFO free list keeps the live population in a dense low-index range,
// which is what keeps the hot slices cache-resident.
func (a *uopArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		a.state[i] = stateWaiting
		a.src1ReadyAt[i] = 0
		a.src2ReadyAt[i] = 0
		a.retryAt[i] = 0
		a.doneAt[i] = 0
		return i
	}
	i := int32(len(a.body))
	a.state = append(a.state, stateWaiting)
	a.cls = append(a.cls, 0)
	a.seq = append(a.seq, 0)
	a.src1ReadyAt = append(a.src1ReadyAt, 0)
	a.src2ReadyAt = append(a.src2ReadyAt, 0)
	a.retryAt = append(a.retryAt, 0)
	a.doneAt = append(a.doneAt, 0)
	a.iqIdx = append(a.iqIdx, 0)
	a.gen = append(a.gen, 1)
	a.body = append(a.body, uop{})
	return i
}

// release retires a slot: the generation bump invalidates every
// outstanding uopRef to the old occupant, and the slot returns to the
// free list for immediate reuse. Slot data stays readable (squash cleanup
// walks freed tail entries) until alloc hands the slot out again.
func (a *uopArena) release(i int32) {
	a.gen[i]++
	a.free = append(a.free, i)
}

// ref materializes a handle to a live slot, for placement in containers
// that may outlive the uop.
func (a *uopArena) ref(i int32) uopRef { return uopRef{idx: i, gen: a.gen[i]} }

// live reports whether r still names the uop it was created for.
func (a *uopArena) live(r uopRef) bool { return a.gen[r.idx] == r.gen }

// gate returns the first cycle at which some queued part of slot i passes
// its time gates: the later of the operands' announced readiness (and a
// load's retry backoff), and for a store the earlier of its two halves
// still queued. An unannounced operand or a parked load (neverReady,
// neverRetry) keeps the gate at neverReady.
func (a *uopArena) gate(i int32) uint64 {
	switch a.cls[i] {
	case isa.ClassStore:
		g := uint64(neverReady)
		b := &a.body[i]
		if !b.addrIssued {
			g = max(a.retryAt[i], a.src1ReadyAt[i])
		}
		if !b.dataIssued {
			g = min(g, a.src2ReadyAt[i])
		}
		return g
	case isa.ClassLoad:
		return max(a.retryAt[i], a.src1ReadyAt[i])
	}
	return max(a.src1ReadyAt[i], a.src2ReadyAt[i])
}

// ---------------------------------------------------------------------------
// Class predicates over arena slots (cls is decoded once at rename).

// isLoad reports whether the uop in slot i is a load.
func (a *uopArena) isLoad(i int32) bool { return a.cls[i] == isa.ClassLoad }

// isStore reports whether the uop in slot i is a store.
func (a *uopArena) isStore(i int32) bool { return a.cls[i] == isa.ClassStore }

// castsCShadow reports whether the uop casts a control shadow until it
// executes: conditional branches and indirect jumps. Direct jumps (jal)
// never mispredict in this machine.
func (a *uopArena) castsCShadow(i int32) bool {
	return a.cls[i] == isa.ClassBranch || a.body[i].inst.Op == isa.Jalr
}

// castsDShadow reports whether the uop casts a data (memory aliasing)
// shadow until its address is known.
func (a *uopArena) castsDShadow(i int32) bool { return a.cls[i] == isa.ClassStore }

// isTransmitter reports whether executing the uop has an observable,
// operand-dependent effect (Section 3.1): loads and store address
// generation (cache/STLF visibility), conditional branches and indirect
// jumps (resolution timing), and divides (operand-dependent latency in
// real dividers).
func (a *uopArena) isTransmitter(i int32) bool {
	switch a.cls[i] {
	case isa.ClassLoad, isa.ClassStore, isa.ClassBranch, isa.ClassDiv:
		return true
	case isa.ClassJump:
		return a.body[i].inst.Op == isa.Jalr
	}
	return false
}

// transmitterPart reports whether issuing the given part of slot i has an
// observable, operand-dependent effect. Store address generation transmits
// (it becomes visible to store-to-load forwarding); store data movement
// does not — stores only write the cache at non-speculative commit.
func (a *uopArena) transmitterPart(i int32, part issuePart) bool {
	if a.isStore(i) {
		return part == partStoreAddr
	}
	return a.isTransmitter(i)
}
