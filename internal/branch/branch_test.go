package branch

import (
	"testing"
	"testing/quick"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter = %d, want saturated 3", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter = %d, want saturated 0", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(256)
	pc := uint64(0x40)
	for i := 0; i < 4; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to learn always-taken")
	}
	other := uint64(0x41)
	if b.Predict(other) {
		t.Error("untrained PC should default weakly not-taken")
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestTAGELearnsLongHistory(t *testing.T) {
	tg := NewDefaultTAGE()
	pc := uint64(0x200)
	// Pattern with period 7 over history: needs >2 history bits.
	pattern := []bool{true, true, false, true, false, false, true}
	hist := uint64(0)
	correct, total := 0, 0
	for i := 0; i < 2000; i++ {
		taken := pattern[i%len(pattern)]
		pred := tg.Predict(pc, hist)
		if i >= 1000 {
			total++
			if pred == taken {
				correct++
			}
		}
		tg.Update(pc, hist, taken)
		hist = hist<<1 | b2u(taken)
	}
	if correct*100/total < 90 {
		t.Errorf("TAGE accuracy %d/%d on period-7 pattern", correct, total)
	}
}

func TestTAGEAllocatesOnMispredict(t *testing.T) {
	tg := NewDefaultTAGE()
	pc := uint64(0x300)
	hist := uint64(0xABCD)
	// Force a mispredict against the (not-taken-default) base.
	tg.Update(pc, hist, true)
	found := false
	for i := range tg.tables {
		if tg.tables[i].lookup(pc, hist) != nil {
			found = true
		}
	}
	if !found {
		t.Error("no tagged entry allocated after mispredict")
	}
}

func TestFoldHistory(t *testing.T) {
	if foldHistory(0, 64, 10) != 0 {
		t.Error("fold of zero must be zero")
	}
	if foldHistory(0xFFFF, 8, 8) != 0xFF {
		t.Errorf("fold must mask to n bits first")
	}
	// Folding is deterministic.
	a := foldHistory(0x123456789ABCDEF0, 64, 10)
	b := foldHistory(0x123456789ABCDEF0, 64, 10)
	if a != b {
		t.Error("fold not deterministic")
	}
}

func TestBTBLookupUpdate(t *testing.T) {
	btb := NewBTB(64)
	if _, _, _, hit := btb.Lookup(0x10); hit {
		t.Error("cold BTB must miss")
	}
	btb.Update(0x10, 0x99, false, false)
	target, isCall, isRet, hit := btb.Lookup(0x10)
	if !hit || target != 0x99 || isCall || isRet {
		t.Errorf("lookup = (%#x,%v,%v,%v)", target, isCall, isRet, hit)
	}
	// Aliasing PC (same index, different tag) must miss.
	if _, _, _, hit := btb.Lookup(0x10 + 64); hit {
		t.Error("aliased PC must miss on tag")
	}
	btb.Update(0x10+64, 0x77, true, false)
	if _, _, _, hit := btb.Lookup(0x10); hit {
		t.Error("direct-mapped entry must be replaced")
	}
}

func TestBTBInvalidate(t *testing.T) {
	btb := NewBTB(64)
	btb.Update(0x10, 0x99, false, false)
	btb.Invalidate(0x10)
	if _, _, _, hit := btb.Lookup(0x10); hit {
		t.Error("invalidated entry must miss")
	}
	// Invalidating a PC whose slot holds a different instruction's entry
	// must leave that entry alone.
	btb.Update(0x20, 0x55, false, false)
	btb.Invalidate(0x20 + 64)
	if _, _, _, hit := btb.Lookup(0x20); !hit {
		t.Error("invalidate of an aliasing PC evicted an unrelated entry")
	}
	// Invalidating a cold slot is a no-op.
	btb.Invalidate(0x3000)
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must not pop")
	}
	r.Push(10)
	r.Push(20)
	if a, ok := r.Pop(); !ok || a != 20 {
		t.Errorf("pop = %d, want 20", a)
	}
	if a, ok := r.Pop(); !ok || a != 10 {
		t.Errorf("pop = %d, want 10", a)
	}
}

func TestRASCheckpointRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	saved := r.Top()
	r.Push(2)
	r.Push(3)
	r.Restore(saved)
	if a, ok := r.Pop(); !ok || a != 1 {
		t.Errorf("after restore pop = %d, want 1", a)
	}
}

func TestRASWrapAround(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites slot of 1
	if a, _ := r.Pop(); a != 3 {
		t.Errorf("pop = %d, want 3", a)
	}
}

// Property: predictors are deterministic — same (pc,hist) sequence gives
// the same predictions.
func TestPredictorDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		tg := NewDefaultTAGE()
		var out []bool
		hist := uint64(0)
		for i := 0; i < 100; i++ {
			pc := (seed*1103515245 + uint64(i)) % 512
			taken := (seed>>uint(i%13))&1 == 1
			out = append(out, tg.Predict(pc, hist))
			tg.Update(pc, hist, taken)
			hist = hist<<1 | b2u(taken)
		}
		return out
	}
	f := func(seed uint64) bool {
		a, b := run(seed), run(seed)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
