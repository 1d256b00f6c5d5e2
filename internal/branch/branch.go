// Package branch implements the front-end prediction structures: one
// direction predictor (a TAGE-lite with a bimodal base, standing in for the
// paper's MultiperspectivePerceptronTAGE configuration), a branch target
// buffer, and a return-address stack.
//
// Global history is owned by the core's fetch stage: the fetch unit passes
// its current (speculative) history to Predict, records that history in the
// branch's micro-op, and passes the same history back to Update at
// resolution so indices match. On a squash the core restores the history
// from the branch checkpoint.
package branch

// counter is a 2-bit saturating counter; values 2 and 3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a PC-indexed table of 2-bit counters: TAGELite's base
// predictor.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal builds a bimodal predictor with a power-of-two table size.
func NewBimodal(size int) *Bimodal {
	if size <= 0 || size&(size-1) != 0 {
		panic("branch: bimodal size must be a power of two")
	}
	b := &Bimodal{table: make([]counter, size), mask: uint64(size - 1)}
	b.reset()
	return b
}

// reset untrains every counter back to weakly not-taken.
func (b *Bimodal) reset() {
	for i := range b.table {
		b.table[i] = 1
	}
}

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[pc&b.mask].taken() }

// Update trains the counter for pc with the resolved outcome.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := pc & b.mask
	b.table[i] = b.table[i].update(taken)
}
