package branch

// BTB is a direct-mapped branch target buffer. It remembers the target of
// taken control instructions so fetch can redirect without decoding.
type BTB struct {
	entries []btbEntry
	mask    uint64
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
	isRet  bool
	isCall bool
}

// NewBTB builds a BTB with a power-of-two entry count.
func NewBTB(size int) *BTB {
	if size <= 0 || size&(size-1) != 0 {
		panic("branch: BTB size must be a power of two")
	}
	return &BTB{entries: make([]btbEntry, size), mask: uint64(size - 1)}
}

// Lookup returns the predicted target for the control instruction at pc,
// whether the entry is a call or a return, and whether the BTB hit.
func (b *BTB) Lookup(pc uint64) (target uint64, isCall, isRet, hit bool) {
	e := &b.entries[pc&b.mask]
	if e.valid && e.pc == pc {
		return e.target, e.isCall, e.isRet, true
	}
	return 0, false, false, false
}

// Update installs or refreshes the entry for pc.
func (b *BTB) Update(pc, target uint64, isCall, isRet bool) {
	b.entries[pc&b.mask] = btbEntry{pc: pc, target: target, valid: true, isCall: isCall, isRet: isRet}
}

// Invalidate drops pc's entry if it is the one resident in pc's slot. A
// branch that commits not-taken calls this so its stale taken-target entry
// cannot keep forcing predicted-taken redirects; a slot holding a different
// instruction's entry is left alone.
func (b *BTB) Invalidate(pc uint64) {
	e := &b.entries[pc&b.mask]
	if e.valid && e.pc == pc {
		*e = btbEntry{}
	}
}

// RAS is a circular return-address stack. Checkpoints save only the top
// index (the conventional low-cost design); deeper corruption after a
// misspeculated call/return sequence is possible and tolerated, exactly as
// in hardware.
type RAS struct {
	stack []uint64
	top   int
}

// NewRAS builds a return-address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("branch: RAS depth must be positive")
	}
	return &RAS{stack: make([]uint64, depth), top: -1}
}

// Push records a return address (on a call).
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
}

// Pop predicts a return target. ok is false when the stack is logically
// empty (top has wrapped to -1 territory is not tracked; an empty RAS
// returns its last garbage, flagged via ok only before any push).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.top < 0 {
		return 0, false
	}
	addr = r.stack[r.top]
	r.top--
	if r.top < -1 {
		r.top = -1
	}
	return addr, true
}

// Top returns the current top index for checkpointing.
func (r *RAS) Top() int { return r.top }

// Restore resets the top index from a checkpoint.
func (r *RAS) Restore(top int) { r.top = top }
