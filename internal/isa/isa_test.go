package isa

import (
	"testing"
	"testing/quick"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{Nop, ClassNop}, {Add, ClassALU}, {Addi, ClassALU}, {Lui, ClassALU},
		{Mul, ClassMul}, {Div, ClassDiv}, {Rem, ClassDiv},
		{Ld, ClassLoad}, {Sd, ClassStore},
		{Beq, ClassBranch}, {Bgeu, ClassBranch},
		{Jal, ClassJump}, {Jalr, ClassJump}, {Halt, ClassHalt},
	}
	for _, c := range cases {
		if got := ClassOf(c.op); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

// TestOpTable pins the decode table by hand, one row per Op: its class
// and which register fields it reads and writes (with a non-zero Rd). An
// op outside the instruction set reads as ClassNop and writes nothing.
func TestOpTable(t *testing.T) {
	rows := []struct {
		op                     Op
		class                  Class
		dest, readRs1, readRs2 bool
	}{
		{Nop, ClassNop, false, false, false},
		{Add, ClassALU, true, true, true},
		{Sub, ClassALU, true, true, true},
		{And, ClassALU, true, true, true},
		{Or, ClassALU, true, true, true},
		{Xor, ClassALU, true, true, true},
		{Sll, ClassALU, true, true, true},
		{Srl, ClassALU, true, true, true},
		{Sra, ClassALU, true, true, true},
		{Slt, ClassALU, true, true, true},
		{Sltu, ClassALU, true, true, true},
		{Addi, ClassALU, true, true, false},
		{Andi, ClassALU, true, true, false},
		{Ori, ClassALU, true, true, false},
		{Xori, ClassALU, true, true, false},
		{Slli, ClassALU, true, true, false},
		{Srli, ClassALU, true, true, false},
		{Srai, ClassALU, true, true, false},
		{Slti, ClassALU, true, true, false},
		{Lui, ClassALU, true, false, false},
		{Mul, ClassMul, true, true, true},
		{Div, ClassDiv, true, true, true},
		{Rem, ClassDiv, true, true, true},
		{Ld, ClassLoad, true, true, false},
		{Sd, ClassStore, false, true, true},
		{Beq, ClassBranch, false, true, true},
		{Bne, ClassBranch, false, true, true},
		{Blt, ClassBranch, false, true, true},
		{Bge, ClassBranch, false, true, true},
		{Bltu, ClassBranch, false, true, true},
		{Bgeu, ClassBranch, false, true, true},
		{Jal, ClassJump, true, false, false},
		{Jalr, ClassJump, true, true, false},
		{Halt, ClassHalt, false, false, false},
	}
	if len(rows) != int(numOps) {
		t.Fatalf("table has %d rows for %d ops", len(rows), numOps)
	}
	for i, r := range rows {
		if r.op != Op(i) {
			t.Fatalf("row %d is %v: rows must follow Op order", i, r.op)
		}
		in := Inst{Op: r.op, Rd: X5, Rs1: X6, Rs2: X7}
		if got := ClassOf(r.op); got != r.class {
			t.Errorf("ClassOf(%v) = %v, want %v", r.op, got, r.class)
		}
		if got := in.HasDest(); got != r.dest {
			t.Errorf("%v: HasDest = %v, want %v", r.op, got, r.dest)
		}
		if got := in.ReadsRs1(); got != r.readRs1 {
			t.Errorf("%v: ReadsRs1 = %v, want %v", r.op, got, r.readRs1)
		}
		if got := in.ReadsRs2(); got != r.readRs2 {
			t.Errorf("%v: ReadsRs2 = %v, want %v", r.op, got, r.readRs2)
		}
		if r.dest {
			if (Inst{Op: r.op, Rd: X0}).HasDest() {
				t.Errorf("%v: an x0 destination must not count as a write", r.op)
			}
		}
	}
	for _, op := range []Op{numOps, numOps + 1, 255} {
		if got := ClassOf(op); got != ClassNop {
			t.Errorf("ClassOf(%d) = %v, want nop", op, got)
		}
		if (Inst{Op: op, Rd: X5}).HasDest() {
			t.Errorf("op %d outside the set writes a destination", op)
		}
	}
}

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op      Op
		a, b    uint64
		imm     int64
		want    uint64
		comment string
	}{
		{Add, 2, 3, 0, 5, "add"},
		{Sub, 2, 3, 0, ^uint64(0), "sub wraps"},
		{And, 0b1100, 0b1010, 0, 0b1000, "and"},
		{Or, 0b1100, 0b1010, 0, 0b1110, "or"},
		{Xor, 0b1100, 0b1010, 0, 0b0110, "xor"},
		{Sll, 1, 4, 0, 16, "sll"},
		{Sll, 1, 64, 0, 1, "sll masks shift to 6 bits"},
		{Srl, 0x8000000000000000, 63, 0, 1, "srl"},
		{Sra, 0x8000000000000000, 63, 0, ^uint64(0), "sra sign-extends"},
		{Slt, ^uint64(0), 0, 0, 1, "slt signed: -1 < 0"},
		{Sltu, ^uint64(0), 0, 0, 0, "sltu unsigned: max !< 0"},
		{Addi, 10, 0, -3, 7, "addi negative imm"},
		{Andi, 0xff, 0, 0x0f, 0x0f, "andi"},
		{Slli, 3, 0, 2, 12, "slli"},
		{Srai, ^uint64(0) - 1, 0, 1, ^uint64(0), "srai"},
		{Slti, 5, 0, 6, 1, "slti"},
		{Lui, 0, 0, 0x1234, 0x1234, "lui"},
		{Mul, 7, 6, 0, 42, "mul"},
		{Div, 42, 6, 0, 7, "div"},
		{Div, 42, 0, 0, ^uint64(0), "div by zero = -1"},
		{Rem, 43, 6, 0, 1, "rem"},
		{Rem, 43, 0, 0, 43, "rem by zero = dividend"},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("%s: EvalALU(%v,%#x,%#x,%d) = %#x, want %#x", c.comment, c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	neg := ^uint64(0) // -1
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{Beq, 4, 4, true}, {Beq, 4, 5, false},
		{Bne, 4, 5, true}, {Bne, 4, 4, false},
		{Blt, neg, 0, true}, {Blt, 0, neg, false},
		{Bge, 0, neg, true}, {Bge, neg, 0, false},
		{Bltu, 0, neg, true}, {Bltu, neg, 0, false},
		{Bgeu, neg, 0, true}, {Bgeu, 0, neg, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%v, %#x, %#x) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

// Property: add/sub and shift pairs are inverses where mathematically true.
func TestEvalALUProperties(t *testing.T) {
	addSub := func(a, b uint64) bool {
		return EvalALU(Sub, EvalALU(Add, a, b, 0), b, 0) == a
	}
	if err := quick.Check(addSub, nil); err != nil {
		t.Errorf("add/sub inverse: %v", err)
	}
	xorSelf := func(a uint64) bool { return EvalALU(Xor, a, a, 0) == 0 }
	if err := quick.Check(xorSelf, nil); err != nil {
		t.Errorf("xor self: %v", err)
	}
	sltExclusive := func(a, b uint64) bool {
		lt := EvalALU(Slt, a, b, 0)
		ge := uint64(0)
		if BranchTaken(Bge, a, b) {
			ge = 1
		}
		return lt^ge == 1
	}
	if err := quick.Check(sltExclusive, nil); err != nil {
		t.Errorf("slt/bge exclusivity: %v", err)
	}
}

func TestInstSourceDestPredicates(t *testing.T) {
	ld := Inst{Op: Ld, Rd: X5, Rs1: X6}
	if !ld.HasDest() || !ld.ReadsRs1() || ld.ReadsRs2() {
		t.Errorf("load predicates wrong: %+v", ld)
	}
	st := Inst{Op: Sd, Rs1: X6, Rs2: X7}
	if st.HasDest() || !st.ReadsRs1() || !st.ReadsRs2() {
		t.Errorf("store predicates wrong: %+v", st)
	}
	br := Inst{Op: Beq, Rs1: X1, Rs2: X2}
	if br.HasDest() || !br.ReadsRs1() || !br.ReadsRs2() || !br.IsControl() {
		t.Errorf("branch predicates wrong: %+v", br)
	}
	lui := Inst{Op: Lui, Rd: X3, Imm: 7}
	if !lui.HasDest() || lui.ReadsRs1() || lui.ReadsRs2() {
		t.Errorf("lui predicates wrong: %+v", lui)
	}
	x0dest := Inst{Op: Add, Rd: X0, Rs1: X1, Rs2: X2}
	if x0dest.HasDest() {
		t.Errorf("write to x0 must not count as a destination")
	}
	jal := Inst{Op: Jal, Rd: X1, Imm: 4}
	if !jal.HasDest() || jal.ReadsRs1() || !jal.IsControl() {
		t.Errorf("jal predicates wrong: %+v", jal)
	}
	jalr := Inst{Op: Jalr, Rd: X0, Rs1: X1}
	if jalr.HasDest() || !jalr.ReadsRs1() || !jalr.IsControl() {
		t.Errorf("jalr predicates wrong: %+v", jalr)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: Add, Rd: X1, Rs1: X2, Rs2: X3}, "add x1, x2, x3"},
		{Inst{Op: Addi, Rd: X1, Rs1: X2, Imm: -4}, "addi x1, x2, -4"},
		{Inst{Op: Ld, Rd: X5, Rs1: X6, Imm: 16}, "ld x5, 16(x6)"},
		{Inst{Op: Sd, Rs1: X6, Rs2: X7, Imm: 8}, "sd x7, 8(x6)"},
		{Inst{Op: Beq, Rs1: X1, Rs2: X0, Imm: -2}, "beq x1, x0, -2"},
		{Inst{Op: Halt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
