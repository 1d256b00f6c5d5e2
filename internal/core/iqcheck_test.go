package core

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// checkIssueQueue compares the issue stage's incremental state, as a Step
// leaves it, with a brute-force scan of the issue queue:
//
//   - iq holds no squashed or dequeued slot, and each entry knows its
//     index there and its ROB position;
//   - the ready set is exactly the queued uops whose gates have opened by
//     the current cycle;
//   - every queued part whose gate opens in the future has its wake-up on
//     the wheel, so nextWake cannot warp past it, and the wheel holds no
//     other wake-up;
//   - nothing on the wheel lies before its cursor or beyond wheelHorizon.
func (c *Core) checkIssueQueue() error {
	a, w := c.a, c.events
	want := make([]uint64, len(c.ready))
	wakes := make([]uint64, len(w.wake))
	for i, u := range c.iq {
		b := &a.body[u]
		pos := b.robPos
		switch {
		case a.state[u] == stateSquashed:
			return fmt.Errorf("cycle %d: iq[%d] holds squashed slot %d", c.cycle, i, u)
		case !b.queued || a.iqIdx[u] != int32(i):
			return fmt.Errorf("cycle %d: iq[%d] holds slot %d, queued %v at %d", c.cycle, i, u, b.queued, a.iqIdx[u])
		case c.rob.entries[pos] != u:
			return fmt.Errorf("cycle %d: slot %d claims ROB position %d, which holds %d", c.cycle, u, pos, c.rob.entries[pos])
		case a.state[u] == stateDone || (a.state[u] == stateExecuting && a.cls[u] != isa.ClassStore):
			return fmt.Errorf("cycle %d: iq[%d] holds slot %d in state %d", c.cycle, i, u, a.state[u])
		}
		if a.gate(u) <= c.cycle {
			want[pos/64] |= 1 << (pos % 64)
		}
		for half, g := range c.halfGates(u) {
			if g == neverReady || g <= c.cycle {
				continue
			}
			if b.wakes[half] != g || !w.wakesForTest(g, pos) {
				return fmt.Errorf("cycle %d: slot %d (seq %d) opens at cycle %d with no wake-up on the wheel (pending %v)",
					c.cycle, u, a.seq[u], g, b.wakes)
			}
			r := int(g&(wheelSlots-1)) * w.words
			wakes[r+pos/64] |= 1 << (pos % 64)
		}
	}
	if !slices.Equal(c.ready, want) {
		return fmt.Errorf("cycle %d: ready set %x, brute-force scan %x (ROB head %d)", c.cycle, c.ready, want, c.rob.head)
	}
	if !slices.Equal(w.wake, wakes) {
		return fmt.Errorf("cycle %d: the wheel holds wake-ups no queued gate accounts for", c.cycle)
	}
	for i, n := range w.head {
		for ; n != 0; n = w.node[n-1].next {
			e := w.node[n-1].e
			if e.at < w.t || e.at > c.cycle+wheelHorizon || e.at&(wheelSlots-1) != uint64(i) {
				return fmt.Errorf("cycle %d: event %+v in slot %d, cursor %d, horizon %d", c.cycle, e, i, w.t, wheelHorizon)
			}
		}
	}
	for i := range wheelSlots {
		row := w.wake[i*w.words:][:w.words]
		occupied := w.occ[i/64]&(1<<(i%64)) != 0
		if holds := w.head[i] != 0 || slices.ContainsFunc(row, func(m uint64) bool { return m != 0 }); holds != occupied {
			return fmt.Errorf("cycle %d: slot %d holds events %v, marked occupied %v", c.cycle, i, holds, occupied)
		}
	}
	return nil
}

// halfGates returns the gates of u's two halves: a store's address and
// data halves, or the whole uop and neverReady. An issued half's gate is
// neverReady.
func (c *Core) halfGates(u int32) [2]uint64 {
	a := c.a
	if a.cls[u] != isa.ClassStore {
		return [2]uint64{a.gate(u), neverReady}
	}
	b := &a.body[u]
	g := [2]uint64{neverReady, neverReady}
	if !b.addrIssued {
		g[0] = max(a.retryAt[u], a.src1ReadyAt[u])
	}
	if !b.dataIssued {
		g[1] = a.src2ReadyAt[u]
	}
	return g
}

// wakesForTest reports whether a wake-up for ROB position pos is pending
// at cycle at.
func (w *eventWheel) wakesForTest(at uint64, pos int) bool {
	if at < w.t || at-w.t >= wheelSlots {
		return false
	}
	return w.wake[int(at&(wheelSlots-1))*w.words+pos/64]&(1<<(pos%64)) != 0
}
