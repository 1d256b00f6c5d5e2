package core

import (
	"math/bits"

	"repro/internal/isa"
)

// neverReady is a readyAt sentinel for registers whose producers have not
// yet announced a completion time.
const neverReady = ^uint64(0)

// physRegFile is the physical register file plus its free list and the
// ready/wakeup scoreboard.
type physRegFile struct {
	value   []uint64
	readyAt []uint64 // first cycle a consumer may issue using the value
	free    []int    // LIFO free list

	// waiters holds, per register, handles to the issue-queue uops whose
	// cached operand-readiness is pending this register's announcement —
	// the scoreboard's wakeup port, drained by Core.announce.
	waiters [][]uopRef
}

// reset re-initialises the register file for n physical registers.
func (p *physRegFile) reset(n int) {
	waiters := p.waiters
	if cap(waiters) < n {
		waiters = make([][]uopRef, n)
	}
	waiters = waiters[:n]
	for r := range waiters {
		waiters[r] = emptied(waiters[r])
	}
	*p = physRegFile{value: sized(p.value, n), readyAt: sized(p.readyAt, n), free: emptied(p.free), waiters: waiters}
	// Physical registers 0..31 initially back the architectural registers
	// and are ready with value zero; the rest are free.
	for i := n - 1; i >= isa.NumRegs; i-- {
		p.readyAt[i] = neverReady
		p.free = append(p.free, i)
	}
}

func (p *physRegFile) hasFree() bool { return len(p.free) > 0 }

// alloc pops a free register and marks it not ready.
func (p *physRegFile) alloc() int {
	n := len(p.free)
	if n == 0 {
		panic("core: free list underflow")
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	p.readyAt[r] = neverReady
	return r
}

// release returns a register to the free list.
func (p *physRegFile) release(r int) {
	p.readyAt[r] = neverReady
	p.free = append(p.free, r)
}

// readyBy reports whether register r can feed an instruction issuing at
// cycle now. The noReg pseudo-source (x0 or unused) is always ready.
func (p *physRegFile) readyBy(r int, now uint64) bool {
	return r == noReg || p.readyAt[r] <= now
}

// watch registers the uop handle as a waiter on r's readiness
// announcement.
func (p *physRegFile) watch(r int, ref uopRef) {
	p.waiters[r] = append(p.waiters[r], ref)
}

// clearWaiters empties every wakeup list (full-pipeline flush: the whole
// issue queue is gone).
func (p *physRegFile) clearWaiters() {
	for r := range p.waiters {
		p.waiters[r] = p.waiters[r][:0]
	}
}

// read returns the register value; noReg reads as zero (x0).
func (p *physRegFile) read(r int) uint64 {
	if r == noReg {
		return 0
	}
	return p.value[r]
}

// rat is the register alias table mapping architectural to physical
// registers. Index 0 (x0) is never renamed.
type rat struct {
	m [isa.NumRegs]int
}

// reset restores the identity mapping.
func (r *rat) reset() {
	for i := range r.m {
		r.m[i] = i
	}
}

// lookup returns the physical register for an architectural source, or
// noReg for x0.
func (r *rat) lookup(a isa.Reg) int {
	if a == isa.X0 {
		return noReg
	}
	return r.m[a]
}

// write binds an architectural destination to a physical register and
// returns the previous mapping (the stale register to free at commit).
func (r *rat) write(a isa.Reg, pd int) (stale int) {
	stale = r.m[a]
	r.m[a] = pd
	return stale
}

// snapshot copies the table (checkpoint).
func (r *rat) snapshot() [isa.NumRegs]int { return r.m }

// restore overwrites the table from a checkpoint.
func (r *rat) restore(s [isa.NumRegs]int) { r.m = s }

// checkpoint is the per-branch recovery state. STT-Rename additionally
// checkpoints its taint RAT, keyed by the same id (Section 4.2).
type checkpoint struct {
	inUse   bool
	seq     uint64 // seq of the owning branch
	ratCopy [isa.NumRegs]int
	ghr     uint64 // global history *before* this branch's prediction
	rasTop  int
}

// checkpointFile manages the fixed pool of branch checkpoints. free has
// bit id set while checkpoint id is unused (MaxBranches is at most 64), so
// finding one reads a word instead of every checkpoint's record.
type checkpointFile struct {
	cks  []checkpoint
	free uint64
}

// reset frees every checkpoint and sizes the file for n of them.
func (c *checkpointFile) reset(n int) {
	*c = checkpointFile{cks: sized(c.cks, n), free: 1<<n - 1}
}

func (c *checkpointFile) hasFree() bool { return c.free != 0 }

// alloc claims the lowest free checkpoint slot, returning its id, or -1 if
// none is free.
func (c *checkpointFile) alloc() int {
	if c.free == 0 {
		return -1
	}
	i := bits.TrailingZeros64(c.free)
	c.free &^= 1 << i
	c.cks[i].inUse = true
	return i
}

func (c *checkpointFile) get(id int) *checkpoint { return &c.cks[id] }

func (c *checkpointFile) release(id int) {
	c.cks[id] = checkpoint{}
	c.free |= 1 << id
}

// releaseAll clears every checkpoint (full-pipeline flush).
func (c *checkpointFile) releaseAll() {
	clear(c.cks)
	c.free = 1<<len(c.cks) - 1
}
