package core

import (
	"testing"

	"repro/internal/isa"
)

// TestEventQueueOrdering pins the wheel's (at, seq) ordering: pops come
// out by fire cycle, and same-cycle events in program order — the property
// the writeback stage relies on to process completions oldest-first.
func TestEventQueueOrdering(t *testing.T) {
	q := newEventWheel()
	for _, e := range []event{
		{at: 9, seq: 3},
		{at: 5, seq: 7},
		{at: 5, seq: 2},
		{at: 12, seq: 1},
		{at: 5, seq: 4},
	} {
		q.push(e)
	}
	if _, ok := q.due(4); ok {
		t.Fatal("nothing fires before cycle 5")
	}
	var got []uint64
	for {
		e, ok := q.due(9)
		if !ok {
			break
		}
		got = append(got, e.seq)
	}
	want := []uint64{2, 4, 7, 3}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if e, ok := q.due(12); !ok || e.seq != 1 {
		t.Fatalf("final event = %+v ok=%v, want seq 1", e, ok)
	}
	if !q.empty() {
		t.Fatal("queue should be empty")
	}
}

// TestROBForEachFrom pins the visibility-point cursor walk: resuming at an
// offset skips the visited prefix, a refusal returns the blocking offset,
// and a full pass returns the count.
func TestROBForEachFrom(t *testing.T) {
	a := newUopArena()
	r := newROB(8, a)
	for i := uint64(1); i <= 5; i++ {
		r.push(mkUop(a, i, uop{}))
	}
	var seen []uint64
	off := r.forEachFrom(0, func(u int32) bool {
		if a.seq[u] == 3 {
			return false
		}
		seen = append(seen, a.seq[u])
		return true
	})
	if off != 2 || len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("walk stopped at off %d after %v", off, seen)
	}
	// Resume past the blocker once it clears.
	seen = seen[:0]
	off = r.forEachFrom(off, func(u int32) bool { seen = append(seen, a.seq[u]); return true })
	if off != r.len() || len(seen) != 3 || seen[0] != 3 {
		t.Fatalf("resumed walk: off %d, seen %v", off, seen)
	}
	// Offsets survive head pops (the caller shifts them down) and work
	// across the ring seam.
	a.release(r.pop())
	a.release(r.pop())
	r.push(mkUop(a, 6, uop{}))
	r.push(mkUop(a, 7, uop{}))
	seen = seen[:0]
	off = r.forEachFrom(3, func(u int32) bool { seen = append(seen, a.seq[u]); return true })
	if off != r.len() || len(seen) != 2 || seen[0] != 6 || seen[1] != 7 {
		t.Fatalf("wrapped walk: off %d, seen %v", off, seen)
	}
}

// TestUopArenaRecycles asserts commit and squash actually recycle arena
// slots: after a run, the arena's footprint must be bounded by pipeline
// depth, not by instruction count.
func TestUopArenaRecycles(t *testing.T) {
	c := MustNew(MegaConfig(), KindBaseline, sumProgram(200))
	res, err := c.Run(RunLimits{MaxCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if len(c.a.free) == 0 {
		t.Fatal("arena free list empty after a full run; commit is not releasing slots")
	}
	// Far fewer slots than renames: recycling bounds the arena by the
	// in-flight window (ROB size), not by the committed instruction count.
	if got := len(c.a.body); got > c.cfg.ROBSize || uint64(got) >= res.Insts {
		t.Fatalf("arena grew to %d slots for %d committed instructions (ROB %d); recycling is not bounding growth",
			got, res.Insts, c.cfg.ROBSize)
	}
}

// TestArenaGenerationStaleness pins the handle contract everything else
// relies on: a release invalidates every outstanding ref to the slot, and
// a recycled slot's new ref does not validate the old one.
func TestArenaGenerationStaleness(t *testing.T) {
	a := newUopArena()
	u := mkUop(a, 1, uop{inst: isa.Inst{Op: isa.Ld}})
	ref := a.ref(u)
	if !a.live(ref) {
		t.Fatal("fresh ref must be live")
	}
	a.release(u)
	if a.live(ref) {
		t.Fatal("ref survived its uop's release")
	}
	u2 := mkUop(a, 2, uop{inst: isa.Inst{Op: isa.Add}})
	if u2 != u {
		t.Fatalf("LIFO free list expected: got slot %d, want %d", u2, u)
	}
	if a.live(ref) {
		t.Fatal("stale ref validated against the slot's new occupant")
	}
	if !a.live(a.ref(u2)) {
		t.Fatal("recycled slot's own ref must be live")
	}
	if a.cls[u2] != isa.ClassALU || a.seq[u2] != 2 {
		t.Fatalf("recycled slot kept stale hot fields: cls %v seq %d", a.cls[u2], a.seq[u2])
	}
}
