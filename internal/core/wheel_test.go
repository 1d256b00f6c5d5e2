package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestWheelHorizon derives the wheel's horizon from the latency constants:
// the slowest demand load of either memory system, counted from its issue,
// and the divider. wheelHorizon must equal the BOOM-like memory's bound,
// and the wheel must be the smallest power of two larger than it, so no
// event the core files ever needs a second lap (checkIssueQueue confirms
// the horizon on every Step of the invariant tests).
func TestWheelHorizon(t *testing.T) {
	worst := func(h mem.HierarchyConfig) uint64 {
		return execDelay + aguLat + h.L1D.HitLat + h.L2.HitLat + h.MemLat + h.L1D.FillLat
	}
	boom, gem5 := worst(mem.DefaultHierarchyConfig()), worst(mem.Gem5HierarchyConfig())
	if wheelHorizon != boom {
		t.Errorf("wheelHorizon = %d, the BOOM-like memory's slowest load completes %d cycles after issue", wheelHorizon, boom)
	}
	for _, lat := range []uint64{gem5, divLat + execDelay, mulLat + execDelay, execDelay + aguLat + fwdLat} {
		if lat > wheelHorizon {
			t.Errorf("a %d-cycle event exceeds the horizon %d", lat, wheelHorizon)
		}
	}
	if wheelSlots&(wheelSlots-1) != 0 || wheelSlots <= wheelHorizon || wheelSlots/2 > wheelHorizon {
		t.Errorf("wheelSlots = %d, want the smallest power of two above %d", wheelSlots, wheelHorizon)
	}
}

// wheelModel is the wheel's reference: every pending completion in a
// plain slice, popped by a full (at, seq, kind) sort, and the pending
// wake-ups as a set of (cycle, position) pairs, which join the ready set
// once their cycle has drained.
type wheelModel struct {
	done  []event
	wakes map[[2]uint64]bool
	ready []uint64
}

func newWheelModel(words int) wheelModel {
	return wheelModel{wakes: map[[2]uint64]bool{}, ready: make([]uint64, words)}
}

// nextAt is the earliest cycle holding a completion or a wake-up.
func (m *wheelModel) nextAt() (uint64, bool) {
	at, ok := uint64(0), false
	for _, e := range m.done {
		if !ok || e.at < at {
			at, ok = e.at, true
		}
	}
	for k := range m.wakes {
		if !ok || k[0] < at {
			at, ok = k[0], true
		}
	}
	return at, ok
}

// pop returns the next completion at or before now; with none left, the
// wake-ups at or before now join the ready set.
func (m *wheelModel) pop(now uint64) (event, bool) {
	var best event
	ok := false
	for _, e := range m.done {
		if e.at <= now && (!ok || e.at < best.at || (e.at == best.at && e.before(&best))) {
			best, ok = e, true
		}
	}
	if ok {
		m.done = slices.DeleteFunc(m.done, func(x event) bool { return x == best })
		return best, true
	}
	for k := range m.wakes {
		if k[0] <= now {
			m.ready[k[1]/64] |= 1 << (k[1] % 64)
			delete(m.wakes, k)
		}
	}
	return event{}, false
}

// runWheelProgram drives a wheel and its model through the operations
// encoded in prog and fails t at the first disagreement. Each byte pair
// is one operation: filing a completion or a wake-up anywhere in the lap
// from the cursor, at the horizon or at the lap's far edge; withdrawing a
// pending wake-up; draining the next cycles, with filings for the cycle
// being drained mixed in; an idle-warp jump to just before the next
// event; and clear. The ready set, nextAt and empty are compared after
// every operation.
func runWheelProgram(t *testing.T, prog []byte) {
	t.Helper()
	const positions = 130 // three words a wake row
	w := new(eventWheel)
	w.reset(make([]uint64, (positions+63)/64))
	m := newWheelModel(w.words)
	var now, seq uint64 // now: the last drained cycle
	used := map[[3]uint64]bool{}
	file := func(at uint64, op byte) {
		if op&0x80 != 0 {
			pos := int(op) % positions
			w.wakeAt(at, uint(pos))
			m.wakes[[2]uint64{at, uint64(pos)}] = true
			return
		}
		// Small seq steps and the three kinds make same-cycle ties
		// common; (at, seq, kind) stays unique so the order is total.
		seq += uint64(op % 3)
		e := event{at: at, seq: seq, kind: evKind(op>>2) % 3, ref: uopRef{idx: int32(len(used)), gen: 1}}
		key := [3]uint64{e.at, e.seq, uint64(e.kind)}
		if used[key] {
			return
		}
		used[key] = true
		w.push(e)
		m.done = append(m.done, e)
	}
	drain := func(to uint64, op byte) {
		for {
			got, gok := w.due(to)
			want, wok := m.pop(to)
			if got != want || gok != wok {
				t.Fatalf("due(%d) = %+v %v, want %+v %v", to, got, gok, want, wok)
			}
			if !gok {
				return
			}
			if op&1 != 0 {
				file(got.at, op) // an event for the cycle being drained
				op >>= 1
			}
		}
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		lo := w.t // now + 1 after a drain
		switch op % 8 {
		case 0, 1:
			file(lo+uint64(arg)%wheelSlots, op^arg)
		case 2:
			// Withdraw a pending wake-up, as a squash does.
			for k := range m.wakes {
				w.unwake(k[0], int(k[1]))
				delete(m.wakes, k)
				break
			}
		case 3:
			file(lo+wheelHorizon-uint64(arg%4), op^arg) // the horizon
		case 4:
			file(lo+wheelSlots-1-uint64(arg%2), op^arg) // the lap's far edge
		case 5, 6:
			now += 1 + uint64(arg%4)
			drain(now, arg)
		case 7:
			if arg%8 == 0 {
				w.clear()
				clear(w.ready)
				m = newWheelModel(w.words)
				continue
			}
			// Warp as Run does: to just before the next event, or far
			// ahead over an empty wheel.
			next, ok := m.nextAt()
			target := now + uint64(arg)*5
			if ok {
				target = min(target, max(next, 1)-1)
			}
			if target > now {
				now = target
				w.skipTo(now + 1)
			}
		}
		if !slices.Equal(w.ready, m.ready) {
			t.Fatalf("op %d: ready set %x, want %x", i/2, w.ready, m.ready)
		}
		next, ok := m.nextAt()
		if at, wok := w.nextAt(); wok != ok || (ok && at != next) {
			t.Fatalf("op %d: nextAt = %d %v, want %d %v", i/2, at, wok, next, ok)
		}
		if w.empty() != !ok {
			t.Fatalf("op %d: empty = %v with %d completions and %d wake-ups pending", i/2, w.empty(), len(m.done), len(m.wakes))
		}
	}
	now += 2 * wheelSlots
	drain(now, 0)
	// Nothing may be filed a lap or more ahead of the cursor, or behind it.
	for _, at := range []uint64{now + 1 + wheelSlots, now} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("filing for cycle %d with the cursor at %d did not panic", at, now+1)
				}
			}()
			w.push(event{at: at})
		}()
	}
}

// TestEventWheelMatchesSort runs random operation programs against the
// reference model.
func TestEventWheelMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for range 1000 {
		prog := make([]byte, 2*r.IntN(600))
		for i := range prog {
			prog[i] = byte(r.Uint32())
		}
		runWheelProgram(t, prog)
	}
}

// FuzzEventWheel is TestEventWheelMatchesSort under coverage guidance
// (the nightly CI job runs it for 2m).
func FuzzEventWheel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 129, 3, 0, 5, 3, 7, 9, 6, 0})
	f.Add([]byte{4, 200, 4, 100, 0, 50, 7, 255, 5, 1, 7, 8, 2, 3, 6, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runWheelProgram(t, prog)
	})
}
