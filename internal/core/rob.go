package core

// rob is the reorder buffer: a ring of in-flight uops in program order.
// Entries are raw arena indices, always live: a uop leaves the ROB at the
// same moment it dies (commit pop or squash truncation), so no generation
// check is needed on reads.
type rob struct {
	a       *uopArena
	entries []int32
	head    int // oldest
	tail    int // next free slot
	count   int
}

// reset empties the ROB and sizes it for size entries.
func (r *rob) reset(size int, a *uopArena) {
	*r = rob{a: a, entries: sized(r.entries, size)}
}

// next returns the ring position after i, without a division.
func (r *rob) next(i int) int {
	if i++; i == len(r.entries) {
		return 0
	}
	return i
}

func (r *rob) full() bool  { return r.count == len(r.entries) }
func (r *rob) empty() bool { return r.count == 0 }
func (r *rob) len() int    { return r.count }

// push appends a uop at the tail and returns its position, which it keeps
// until it leaves; the caller must check full() first.
func (r *rob) push(i int32) int {
	if r.full() {
		panic("core: ROB overflow")
	}
	pos := r.tail
	r.entries[pos] = i
	r.tail = r.next(pos)
	r.count++
	return pos
}

// peek returns the oldest uop's slot without removing it.
func (r *rob) peek() (int32, bool) {
	if r.empty() {
		return 0, false
	}
	return r.entries[r.head], true
}

// pop removes and returns the oldest uop's slot.
func (r *rob) pop() int32 {
	i, ok := r.peek()
	if !ok {
		panic("core: ROB underflow")
	}
	r.head = r.next(r.head)
	r.count--
	return i
}

// forEach visits uops oldest-first; returning false stops the walk.
func (r *rob) forEach(f func(i int32) bool) {
	i := r.head
	for n := 0; n < r.count; n++ {
		if !f(r.entries[i]) {
			return
		}
		i = r.next(i)
	}
}

// forEachFrom visits live uops oldest-first starting at the given offset
// from the head, stopping when f returns false. It returns the offset of
// the first unvisited uop — the resume point for the next cycle's walk.
// The visibility-point stage uses this to resume from its last stall
// point instead of re-walking (and re-skipping) the already-visited
// prefix every cycle; the caller keeps the offset consistent across
// commits (head pops shift it down) and squashes (tail truncation caps
// it). Note that ROB sequence numbers are NOT contiguous across a branch
// squash — squashed uops consumed sequence numbers and the refetched path
// gets fresh ones — which is why the cursor is a position, not a seq.
func (r *rob) forEachFrom(off int, f func(i int32) bool) int {
	if off < 0 {
		off = 0
	}
	i := r.head + off
	if i >= len(r.entries) {
		i -= len(r.entries)
	}
	for n := off; n < r.count; n++ {
		if !f(r.entries[i]) {
			return n
		}
		i = r.next(i)
	}
	return r.count
}

// squashYoungerThan removes all uops with seq > limit, youngest-first,
// invoking reclaim on each before removal. It returns the number squashed.
func (r *rob) squashYoungerThan(limit uint64, reclaim func(i int32)) int {
	n := 0
	for r.count > 0 {
		lastIdx := r.tail - 1
		if lastIdx < 0 {
			lastIdx += len(r.entries)
		}
		i := r.entries[lastIdx]
		if r.a.seq[i] <= limit {
			break
		}
		reclaim(i)
		r.tail = lastIdx
		r.count--
		n++
	}
	return n
}
