package core

import (
	"errors"
	"math/bits"
)

// The timing wheel behind the event-driven writeback and issue stages.
//
// Every future cycle at which some stage can make progress because time
// passed is on the wheel:
//
//   - every issued uop (or store half) files one completion at the cycle
//     its result becomes architecturally visible, and writeback pops
//     exactly the completions due this cycle;
//   - every issue-queue entry files one wake-up at the cycle its time gate
//     opens — its operands' announced readiness and, for loads, the retry
//     backoff — and the wake-up puts it in the issue stage's ready set
//     (see issueStage). Entries whose gates are still closed are never
//     visited.
//
// The wheel is the idle-cycle skipper's one wake source besides a handful
// of scalars (nextWake): its next occupied slot is the next cycle at which
// something fires. It is Varghese and Lauck's hashed timing wheel
// ("Hashing and Hierarchical Timing Wheels", SOSP 1987) with one slot per
// cycle: nothing the core files lies more than wheelHorizon cycles ahead
// of the cursor (TestWheelHorizon derives it from the latency constants),
// the slot count exceeds it, and so a slot holds exactly one cycle's
// events and filing and popping are O(1). A slot keeps its completions in
// a chain in (seq, kind) order, and its wake-ups as a row of bits, one
// per ROB position: a wake-up names nothing but its entry, and the ready
// set is a bitset over the same positions, so when the cycle drains its
// whole row is ORed into the ready set after its completions.
//
// Completions for squashed uops are not removed eagerly: they surface at
// their fire time and are discarded by the owner's generation mismatch
// (the squash released the slot, so the event's uopRef went stale). The
// fire time itself stays meaningful — at and seq are stored by value —
// which is why nextAt may report a squashed owner's wake (a squashed
// divide's event still marks when the divider frees). Wake-ups, whose
// position the refetched path reuses, are exact instead: an entry has at
// most one pending per half, and the squash that kills it clears them.

// evKind selects what happens when an event fires. Its order breaks ties
// between events of one uop in one cycle: a store's address half
// completes before its data half.
type evKind uint8

const (
	evDone      evKind = iota // non-store uop: result available
	evStoreAddr               // store: address half completes
	evStoreData               // store: data half completes
)

// event is one scheduled completion. The owner is held by
// generation-counted handle; at and seq are captured by value so ordering
// and wake times survive the owner's death.
type event struct {
	at   uint64 // cycle the event fires
	seq  uint64 // owner's age; orders same-cycle completions oldest-first
	kind evKind
	ref  uopRef
}

// before reports whether completion e pops before completion f of the
// same cycle.
func (e *event) before(f *event) bool {
	if e.seq != f.seq {
		return e.seq < f.seq
	}
	return e.kind < f.kind
}

// wheelHorizon is the furthest ahead of the cursor the core files an
// event: a load that issues now starts its access execDelay + aguLat
// later, and the slowest demand access then costs an L1 lookup (4), an L2
// lookup (14), DRAM (MemLat 90) and the L1 fill (2) of the BOOM-like
// memory system. Every other event is nearer: a divide completes
// divLat + execDelay after issue, a retry backoff two cycles on.
const wheelHorizon = execDelay + aguLat + 4 + 14 + 90 + 2

// wheelSlots is the wheel's size: the smallest power of two above the
// horizon, so slot selection is a mask.
const wheelSlots = 128

// eventWheel files events by fire cycle. Slot s holds the events of the
// one pending cycle ≡ s (mod wheelSlots): a chain of completions and a
// row of wake bits. occ has bit s set while slot s holds either. The
// chains' nodes share one array and a free stack, which grow only while
// the number of pending completions reaches a new high-water mark. The
// cursor t is the oldest cycle that may still hold events: every event
// before it has popped.
type eventWheel struct {
	head, tail [wheelSlots]int32 // 1-based node indices of each slot's chain ends; 0 when empty
	occ        [wheelSlots / 64]uint64
	node       []wheelNode
	free       []int32  // 1-based indices of unused nodes
	wake       []uint64 // wheelSlots rows of words bits: slot s's row is wake[s*words:][:words]
	words      int      // words per row: one bit per ROB position
	ready      []uint64 // the ready set each drained cycle's wake-ups join
	t          uint64
}

// wheelNode is one filed completion and its slot chain's link.
type wheelNode struct {
	e    event
	next int32 // 1-based index of the next node in the chain; 0 ends it
}

// reset empties the wheel for wake-ups into ready, a bitset over ROB
// positions, and rewinds its cursor to cycle 0, keeping its arrays.
func (w *eventWheel) reset(ready []uint64) {
	*w = eventWheel{node: emptied(w.node), free: emptied(w.free), wake: sized(w.wake, wheelSlots*len(ready)),
		words: len(ready), ready: ready}
}

// clear drops every pending event (full-pipeline flush). The cursor stays.
func (w *eventWheel) clear() {
	clear(w.wake)
	*w = eventWheel{node: w.node[:0], free: w.free[:0], wake: w.wake, words: w.words, ready: w.ready, t: w.t}
}

func (w *eventWheel) empty() bool {
	for _, m := range w.occ {
		if m != 0 {
			return false
		}
	}
	return true
}

// popped reports whether the wheel has already popped every event of
// cycle at, so an event filed for it now would never fire.
func (w *eventWheel) popped(at uint64) bool { return at < w.t }

// errOutOfLap is the panic of a filing before the cursor or a lap or more
// beyond it, which the horizon rules out.
var errOutOfLap = errors.New("core: event filed outside the event wheel's lap from its cursor")

// slot checks that at lies within one lap from the cursor, marks its slot
// occupied and returns it.
func (w *eventWheel) slot(at uint64) uint64 {
	if at-w.t >= wheelSlots { // before the cursor too: the difference wraps
		panic(errOutOfLap)
	}
	i := at & (wheelSlots - 1)
	w.occ[i/64] |= 1 << (i % 64)
	return i
}

// push files a completion.
func (w *eventWheel) push(e event) {
	i := w.slot(e.at)
	var n int32
	if k := len(w.free); k > 0 {
		n = w.free[k-1]
		w.free = w.free[:k-1]
	} else {
		w.node = append(w.node, wheelNode{})
		n = int32(len(w.node))
	}
	// Field by field: a composite store here reads the just-spilled
	// argument back in wider words than it was written, which stalls.
	nd := &w.node[n-1]
	nd.e.at, nd.e.seq, nd.e.kind, nd.e.ref = e.at, e.seq, e.kind, e.ref
	switch tl := w.tail[i]; {
	case tl == 0:
		nd.next = 0
		w.head[i], w.tail[i] = n, n
	case !e.before(&w.node[tl-1].e):
		nd.next = 0
		w.node[tl-1].next = n
		w.tail[i] = n
	default:
		// Walk the chain to e's place: a slot holds one cycle's few
		// completions, and e is not last.
		link := &w.head[i]
		for !e.before(&w.node[*link-1].e) {
			link = &w.node[*link-1].next
		}
		nd.next = *link
		*link = n
	}
}

// wakeAt files a wake-up for ROB position pos at cycle at.
func (w *eventWheel) wakeAt(at uint64, pos uint) {
	i := w.slot(at)
	w.wake[int(i)*w.words+int(pos/64)] |= 1 << (pos % 64)
}

// unwake withdraws a pending wake-up filed by wakeAt.
func (w *eventWheel) unwake(at uint64, pos int) {
	i := at & (wheelSlots - 1)
	w.wake[int(i)*w.words+pos/64] &^= 1 << (pos % 64)
	w.settle(i)
}

// settle marks slot i free once it holds no event.
func (w *eventWheel) settle(i uint64) {
	if w.head[i] != 0 {
		return
	}
	for _, m := range w.wake[int(i)*w.words:][:w.words] {
		if m != 0 {
			return
		}
	}
	w.occ[i/64] &^= 1 << (i % 64)
}

// nextAt returns the earliest cycle that holds an event — the idle-cycle
// skipper's wake target for everything the wheel holds. Completions of
// squashed uops count too: they surface (and are discarded) at their fire
// cycle on the ticking machine as well, and some wake times exist only
// through them.
func (w *eventWheel) nextAt() (uint64, bool) {
	start := w.t & (wheelSlots - 1)
	for off := uint64(0); off < wheelSlots; {
		i := (start + off) & (wheelSlots - 1)
		if m := w.occ[i/64] >> (i % 64); m != 0 {
			if d := off + uint64(bits.TrailingZeros64(m)); d < wheelSlots {
				return w.t + d, true
			}
			return 0, false
		}
		off += 64 - i%64
	}
	return 0, false
}

// due pops the next completion firing at or before now, in (at, seq,
// kind) order. Once a cycle's completions are gone, its wake-ups join the
// ready set and the cycle is done. An event filed for the cycle being
// drained still fires in it.
func (w *eventWheel) due(now uint64) (event, bool) {
	for w.t <= now {
		i := w.t & (wheelSlots - 1)
		if w.occ[i/64]&(1<<(i%64)) != 0 {
			if n := w.head[i]; n != 0 {
				nd := &w.node[n-1]
				w.head[i] = nd.next
				if nd.next == 0 {
					w.tail[i] = 0
					w.settle(i)
				}
				w.free = append(w.free, n)
				return event{at: nd.e.at, seq: nd.e.seq, kind: nd.e.kind, ref: nd.e.ref}, true
			}
			row := w.wake[int(i)*w.words:][:w.words]
			for k, m := range row {
				w.ready[k] |= m
				row[k] = 0
			}
			w.occ[i/64] &^= 1 << (i % 64)
		}
		// Cycle t is drained: move on to the next occupied cycle.
		if w.t == now {
			w.t++
			break
		}
		if t, ok := w.nextAt(); ok && t <= now {
			w.t = t
		} else {
			w.t = now + 1
		}
	}
	return event{}, false
}

// skipTo moves the cursor on to cycle t across an idle stretch. The
// caller guarantees no event fires before t.
func (w *eventWheel) skipTo(t uint64) {
	if t > w.t {
		w.t = t
	}
}
