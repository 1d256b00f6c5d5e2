package isa

import (
	"reflect"
	"slices"
	"testing"
)

// sumProgram computes sum of 0..n-1 in x10 using a loop.
func sumProgram(n int64) *Program {
	b := NewBuilder("sum")
	b.Li(X5, 0)  // i
	b.Li(X6, n)  // limit
	b.Li(X10, 0) // acc
	b.Label("loop")
	b.Add(X10, X10, X5)
	b.Addi(X5, X5, 1)
	b.Blt(X5, X6, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestArchSimSumLoop(t *testing.T) {
	p := sumProgram(10)
	s := NewArchSim(p)
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(X10); got != 45 {
		t.Errorf("sum = %d, want 45", got)
	}
	// 3 setup + 10 iterations of 3 + halt not counted (Halt does not count).
	if got := s.InstCount(); got != 33 {
		t.Errorf("inst count = %d, want 33", got)
	}
}

func TestArchSimLoadsStores(t *testing.T) {
	b := NewBuilder("memtest")
	const base = 0x1000
	b.Data(base, []uint64{11, 22, 33})
	b.Li(X5, base)
	b.Ld(X6, X5, 8)     // x6 = 22
	b.Addi(X6, X6, 100) // 122
	b.Sd(X6, X5, 16)    // M[base+16] = 122
	b.Ld(X7, X5, 16)    // x7 = 122
	b.Halt()
	p := b.MustBuild()
	s := NewArchSim(p)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Reg(X7) != 122 {
		t.Errorf("x7 = %d, want 122", s.Reg(X7))
	}
	if s.Mem(base+16) != 122 {
		t.Errorf("mem = %d, want 122", s.Mem(base+16))
	}
	if s.Mem(base) != 11 {
		t.Errorf("mem[base] = %d, want 11", s.Mem(base))
	}
}

func TestArchSimCallReturn(t *testing.T) {
	b := NewBuilder("call")
	b.Li(X10, 5)
	b.Call("double")
	b.Addi(X10, X10, 1) // 11
	b.Halt()
	b.Label("double")
	b.Add(X10, X10, X10)
	b.Ret()
	p := b.MustBuild()
	s := NewArchSim(p)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Reg(X10) != 11 {
		t.Errorf("x10 = %d, want 11", s.Reg(X10))
	}
}

func TestArchSimX0AlwaysZero(t *testing.T) {
	b := NewBuilder("x0")
	b.Addi(X0, X0, 42)
	b.Add(X5, X0, X0)
	b.Halt()
	s := NewArchSim(b.MustBuild())
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.Reg(X0) != 0 || s.Reg(X5) != 0 {
		t.Errorf("x0 = %d, x5 = %d; want 0, 0", s.Reg(X0), s.Reg(X5))
	}
}

func TestArchSimHaltIdempotent(t *testing.T) {
	b := NewBuilder("halt")
	b.Halt()
	s := NewArchSim(b.MustBuild())
	c1 := s.Step()
	c2 := s.Step()
	if !s.Halted() {
		t.Fatal("not halted")
	}
	if c1.Inst.Op != Halt || c2.Inst.Op != Halt {
		t.Errorf("steps after halt: %v, %v", c1.Inst, c2.Inst)
	}
	if s.InstCount() != 0 {
		t.Errorf("halt must not count as executed, got %d", s.InstCount())
	}
}

func TestArchSimRunawayPCDecodesHalt(t *testing.T) {
	b := NewBuilder("runaway")
	b.Addi(X5, X0, 1) // falls off the end
	s := NewArchSim(b.MustBuild())
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Error("machine should halt when PC runs past the program")
	}
}

func TestArchSimRunLimit(t *testing.T) {
	b := NewBuilder("infinite")
	b.Label("spin")
	b.J("spin")
	s := NewArchSim(b.MustBuild())
	n, err := s.Run(50)
	if err == nil {
		t.Fatal("expected error for non-terminating program")
	}
	if n != 50 {
		t.Errorf("executed %d, want 50", n)
	}
}

func TestBuilderValidateRejectsBadTargets(t *testing.T) {
	p := &Program{Name: "bad", Insts: []Inst{{Op: Beq, Imm: 100}}}
	if err := p.Validate(); err == nil {
		t.Error("expected validation error for out-of-range branch target")
	}
	p2 := &Program{Name: "bad2", Insts: []Inst{{Op: Jal, Imm: -5}}}
	if err := p2.Validate(); err == nil {
		t.Error("expected validation error for out-of-range jal target")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate label")
		}
	}()
	b := NewBuilder("dup")
	b.Label("a")
	b.Label("a")
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on undefined label")
		}
	}()
	b := NewBuilder("undef")
	b.J("nowhere")
	b.Build()
}

// TestArchSimDataOverlap: the data image is installed segment by
// segment, in order, so later segments overwrite earlier ones on overlap.
func TestArchSimDataOverlap(t *testing.T) {
	b := NewBuilder("mem")
	b.Data(0x100, []uint64{1, 2})
	b.Data(0x108, []uint64{9}) // overlaps second word
	b.Halt()
	s := NewArchSim(b.MustBuild())
	if s.Mem(0x100) != 1 || s.Mem(0x108) != 9 {
		t.Errorf("initial memory: M[0x100] = %d, M[0x108] = %d; want 1, 9", s.Mem(0x100), s.Mem(0x108))
	}
}

// commitStream runs s to halt and returns every record it committed.
func commitStream(t *testing.T, s *ArchSim) []Commit {
	t.Helper()
	var stream []Commit
	for n := 0; !s.Halted(); n++ {
		if n == 10_000 {
			t.Fatal("program did not halt")
		}
		if rec := s.Step(); !s.Halted() {
			stream = append(stream, rec)
		}
	}
	return stream
}

// TestArchSimResetMatchesNew holds Reset to NewArchSim by structure. A
// sim that has run program A to halt, storing to pages B never touches,
// is Reset to B and must be reflect.DeepEqual to NewArchSim(B), memory
// included; the two then commit identical streams and end equal.
func TestArchSimResetMatchesNew(t *testing.T) {
	a := NewBuilder("a")
	a.Data(0x4000, []uint64{5, 6, 7})
	a.Li(X5, 0x4000)
	a.Ld(X6, X5, 8)
	a.Li(X7, 0x9000)
	a.Sd(X6, X7, 16) // a page B never touches
	a.Sd(X6, X5, 0x1000+8)
	a.Li(X10, 99)
	a.Halt()
	b := NewBuilder("b")
	b.Data(0x4000, []uint64{1})
	b.Data(0x20000, []uint64{2, 3})
	b.Li(X5, 0x20000)
	b.Ld(X6, X5, 8)
	b.Addi(X6, X6, 1)
	b.Sd(X6, X5, 0)
	b.Ld(X7, X0, 0x4000+8) // 6 in A's image, unset in B's
	b.Halt()
	progA, progB := a.MustBuild(), b.MustBuild()

	s := NewArchSim(progA)
	commitStream(t, s)
	fresh := NewArchSim(progB)
	if reflect.DeepEqual(s, fresh) {
		t.Fatal("the dirty sim already equals a new one")
	}
	s.Reset(progB)
	if !reflect.DeepEqual(s, fresh) {
		t.Fatalf("after Reset the sim differs from NewArchSim's:\n  %+v\n  %+v", s, fresh)
	}
	got, want := commitStream(t, s), commitStream(t, fresh)
	if !slices.Equal(got, want) {
		t.Errorf("commit streams differ:\n  reset %+v\n  new   %+v", got, want)
	}
	if !reflect.DeepEqual(s, fresh) {
		t.Error("after running B, the reset sim differs from the new one")
	}
	if s.Mem(0x4008) != 0 || s.Reg(X7) != 0 {
		t.Errorf("A's store survived Reset: M[0x4008] = %d, x7 = %d", s.Mem(0x4008), s.Reg(X7))
	}
}
