// Package isa defines the instruction set executed by the ShadowBinding
// simulator: a compact RV64-like register machine with integer ALU
// operations, multiply/divide, 64-bit loads and stores, conditional
// branches, and jumps.
//
// The package also provides a program Builder with label support
// (builder.go) and an in-order architectural reference simulator
// (archsim.go) that the out-of-order core uses as a commit-time oracle in
// tests. ArchSim keeps its data in a mem.Main, the paged memory the core
// holds, so both simulators share one memory model and its page pool.
//
// Program counters are instruction indices, not byte addresses: the
// instruction at PC p is Program.Insts[p]. Data addresses are 64-bit byte
// addresses; loads and stores move aligned 64-bit words.
package isa

import "fmt"

// Reg names an architectural register. The machine has 32 integer
// registers; register X0 is hardwired to zero, as in RISC-V.
type Reg uint8

// Architectural registers. A few have conventional roles mirrored from the
// RISC-V ABI: X1 is the link register used by the return-address stack.
const (
	X0 Reg = iota // hardwired zero
	X1            // link register (ra)
	X2            // stack pointer by convention
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29
	X30
	X31
)

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

// RegLink is the conventional link register used for calls and returns; the
// front end's return-address stack keys on it.
const RegLink = X1

func (r Reg) String() string { return fmt.Sprintf("x%d", uint8(r)) }

// Op identifies an operation. Operations are grouped into classes (see
// Class) that determine which functional unit executes them and whether
// they are observable "transmitters" under the secure speculation schemes.
type Op uint8

// Operations.
const (
	Nop Op = iota

	// Register-register ALU.
	Add
	Sub
	And
	Or
	Xor
	Sll
	Srl
	Sra
	Slt
	Sltu

	// Register-immediate ALU.
	Addi
	Andi
	Ori
	Xori
	Slli
	Srli
	Srai
	Slti

	// Upper-immediate load (rd = imm).
	Lui

	// Multiply/divide.
	Mul
	Div
	Rem

	// Memory. Ld: rd = M[rs1+imm]. Sd: M[rs1+imm] = rs2.
	Ld
	Sd

	// Conditional branches: branch to PC+imm when the condition holds.
	Beq
	Bne
	Blt
	Bge
	Bltu
	Bgeu

	// Jumps. Jal: rd = PC+1, jump to PC+imm. Jalr: rd = PC+1, jump to
	// rs1+imm (an absolute instruction index).
	Jal
	Jalr

	// Halt stops the machine. It is not a real RISC-V instruction but a
	// simulator convenience marking the end of a program.
	Halt

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Sll: "sll", Srl: "srl", Sra: "sra", Slt: "slt", Sltu: "sltu",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori", Slli: "slli",
	Srli: "srli", Srai: "srai", Slti: "slti", Lui: "lui",
	Mul: "mul", Div: "div", Rem: "rem",
	Ld: "ld", Sd: "sd",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge", Bltu: "bltu", Bgeu: "bgeu",
	Jal: "jal", Jalr: "jalr", Halt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class groups operations by the pipeline resources they use.
type Class uint8

// Operation classes.
const (
	ClassNop Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional jumps (jal/jalr)
	ClassHalt
)

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassHalt:
		return "halt"
	}
	return "class?"
}

// opClasses is ClassOf's table, one entry per Op beside opNames.
var opClasses = [numOps]Class{
	Nop: ClassNop,
	Add: ClassALU, Sub: ClassALU, And: ClassALU, Or: ClassALU, Xor: ClassALU,
	Sll: ClassALU, Srl: ClassALU, Sra: ClassALU, Slt: ClassALU, Sltu: ClassALU,
	Addi: ClassALU, Andi: ClassALU, Ori: ClassALU, Xori: ClassALU, Slli: ClassALU,
	Srli: ClassALU, Srai: ClassALU, Slti: ClassALU, Lui: ClassALU,
	Mul: ClassMul, Div: ClassDiv, Rem: ClassDiv,
	Ld: ClassLoad, Sd: ClassStore,
	Beq: ClassBranch, Bne: ClassBranch, Blt: ClassBranch, Bge: ClassBranch, Bltu: ClassBranch, Bgeu: ClassBranch,
	Jal: ClassJump, Jalr: ClassJump, Halt: ClassHalt,
}

// ClassOf returns the class of an operation. An operation outside the
// instruction set reads as ClassNop.
func ClassOf(o Op) Class {
	if int(o) < len(opClasses) {
		return opClasses[o]
	}
	return ClassNop
}

// Inst is a decoded instruction. Unused fields are zero. For stores, Rs1 is
// the address base and Rs2 the data source; there is no destination. For
// branches, Imm is a PC-relative instruction offset.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// destClasses has bit c set for each class c whose operations write Rd.
const destClasses = 1<<ClassALU | 1<<ClassMul | 1<<ClassDiv | 1<<ClassLoad | 1<<ClassJump

// HasDest reports whether the instruction writes a destination register.
// X0 destinations are treated as no writes.
func (i Inst) HasDest() bool {
	return destClasses&(1<<ClassOf(i.Op)) != 0 && i.Rd != X0
}

// ReadsRs1 reports whether the instruction reads Rs1.
func (i Inst) ReadsRs1() bool {
	switch i.Op {
	case Nop, Lui, Jal, Halt:
		return false
	}
	return true
}

// readsRs2 is ReadsRs2's table: the register-register ALU, multiply and
// divide operations, stores (their data) and conditional branches.
var readsRs2 = [numOps]bool{
	Add: true, Sub: true, And: true, Or: true, Xor: true,
	Sll: true, Srl: true, Sra: true, Slt: true, Sltu: true,
	Mul: true, Div: true, Rem: true,
	Sd:  true,
	Beq: true, Bne: true, Blt: true, Bge: true, Bltu: true, Bgeu: true,
}

// ReadsRs2 reports whether the instruction reads Rs2.
func (i Inst) ReadsRs2() bool {
	return int(i.Op) < len(readsRs2) && readsRs2[i.Op]
}

// IsControl reports whether the instruction redirects the PC.
func (i Inst) IsControl() bool {
	c := ClassOf(i.Op)
	return c == ClassBranch || c == ClassJump
}

func (i Inst) String() string {
	switch ClassOf(i.Op) {
	case ClassNop, ClassHalt:
		return i.Op.String()
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, %+d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case ClassJump:
		if i.Op == Jal {
			return fmt.Sprintf("jal %s, %+d", i.Rd, i.Imm)
		}
		return fmt.Sprintf("jalr %s, %s, %d", i.Rd, i.Rs1, i.Imm)
	}
	if i.Op == Lui {
		return fmt.Sprintf("lui %s, %d", i.Rd, i.Imm)
	}
	switch i.Op {
	case Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	}
	return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
}

// EvalALU computes the result of an ALU, MUL, or DIV class operation given
// its source values. Loads, stores, branches, and jumps are handled by the
// pipeline and the architectural simulator directly.
func EvalALU(op Op, a, b uint64, imm int64) uint64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Sll:
		return a << (b & 63)
	case Srl:
		return a >> (b & 63)
	case Sra:
		return uint64(int64(a) >> (b & 63))
	case Slt:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case Sltu:
		if a < b {
			return 1
		}
		return 0
	case Addi:
		return a + uint64(imm)
	case Andi:
		return a & uint64(imm)
	case Ori:
		return a | uint64(imm)
	case Xori:
		return a ^ uint64(imm)
	case Slli:
		return a << (uint64(imm) & 63)
	case Srli:
		return a >> (uint64(imm) & 63)
	case Srai:
		return uint64(int64(a) >> (uint64(imm) & 63))
	case Slti:
		if int64(a) < imm {
			return 1
		}
		return 0
	case Lui:
		return uint64(imm)
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return ^uint64(0)
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			// RISC-V overflow semantics: the quotient is the dividend.
			// (Go would panic on this division.)
			return a
		}
		return uint64(int64(a) / int64(b))
	case Rem:
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			// RISC-V overflow semantics: the remainder is zero.
			return 0
		}
		return uint64(int64(a) % int64(b))
	}
	return 0
}

// BranchTaken evaluates a conditional branch given its source values.
func BranchTaken(op Op, a, b uint64) bool {
	switch op {
	case Beq:
		return a == b
	case Bne:
		return a != b
	case Blt:
		return int64(a) < int64(b)
	case Bge:
		return int64(a) >= int64(b)
	case Bltu:
		return a < b
	case Bgeu:
		return a >= b
	}
	return false
}
