package isa

import (
	"fmt"
	"slices"
)

// Builder assembles a Program with symbolic labels. Emitters append one
// instruction each; Label marks the next instruction's position; branch and
// jump emitters taking a label name are fixed up at Build time.
//
// Builder methods panic on malformed input (unknown label at Build,
// duplicate label) because programs are constructed by code, not end users;
// a panic here is a programming error in the workload generator.
type Builder struct {
	name   string
	insts  []Inst
	data   []DataSeg
	labels map[string]uint64
	fixups []fixup
}

type fixup struct {
	pc    int
	label string
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]uint64)}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() uint64 { return uint64(len(b.insts)) }

// Label binds name to the next instruction's PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q in %s", name, b.name))
	}
	b.labels[name] = b.PC()
}

// Grow reserves room for at least n more instructions, so that the next
// n emitted instructions do not grow the program's slice, in the style of
// strings.Builder.Grow. A negative n panics.
func (b *Builder) Grow(n int) { b.insts = slices.Grow(b.insts, n) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in Inst) { b.insts = append(b.insts, in) }

// Data adds an initialized data segment.
func (b *Builder) Data(addr uint64, words []uint64) {
	b.data = append(b.data, DataSeg{Addr: addr, Words: words})
}

// ALU and memory emitters.

func (b *Builder) Nop()                        { b.Emit(Inst{Op: Nop}) }
func (b *Builder) Add(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Add, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Sub(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Sub, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) And(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: And, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Or(rd, rs1, rs2 Reg)         { b.Emit(Inst{Op: Or, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Xor(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Xor, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Sll(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Sll, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Srl(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Srl, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Slt(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Slt, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Sltu(rd, rs1, rs2 Reg)       { b.Emit(Inst{Op: Sltu, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Mul(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Mul, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Div(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Div, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Rem(rd, rs1, rs2 Reg)        { b.Emit(Inst{Op: Rem, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Addi(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Addi, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Andi(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Andi, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Ori(rd, rs1 Reg, imm int64)  { b.Emit(Inst{Op: Ori, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Xori(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Xori, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Slli(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Slli, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Srli(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Srli, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Srai(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Srai, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Slti(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Slti, Rd: rd, Rs1: rs1, Imm: imm}) }
func (b *Builder) Lui(rd Reg, imm int64)       { b.Emit(Inst{Op: Lui, Rd: rd, Imm: imm}) }

// Li loads an arbitrary 64-bit constant (emitted as lui, or lui+ori pairs
// as needed; small constants use a single instruction).
func (b *Builder) Li(rd Reg, v int64) {
	b.Lui(rd, v)
}

// Ld emits rd = M[rs1+imm].
func (b *Builder) Ld(rd, rs1 Reg, imm int64) { b.Emit(Inst{Op: Ld, Rd: rd, Rs1: rs1, Imm: imm}) }

// Sd emits M[rs1+imm] = rs2.
func (b *Builder) Sd(rs2, rs1 Reg, imm int64) { b.Emit(Inst{Op: Sd, Rs1: rs1, Rs2: rs2, Imm: imm}) }

// Branch emitters targeting labels.

func (b *Builder) Beq(rs1, rs2 Reg, label string)  { b.branch(Beq, rs1, rs2, label) }
func (b *Builder) Bne(rs1, rs2 Reg, label string)  { b.branch(Bne, rs1, rs2, label) }
func (b *Builder) Blt(rs1, rs2 Reg, label string)  { b.branch(Blt, rs1, rs2, label) }
func (b *Builder) Bge(rs1, rs2 Reg, label string)  { b.branch(Bge, rs1, rs2, label) }
func (b *Builder) Bltu(rs1, rs2 Reg, label string) { b.branch(Bltu, rs1, rs2, label) }
func (b *Builder) Bgeu(rs1, rs2 Reg, label string) { b.branch(Bgeu, rs1, rs2, label) }

func (b *Builder) branch(op Op, rs1, rs2 Reg, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.insts), label: label})
	b.Emit(Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jal emits a jump-and-link to a label; rd receives the return PC.
func (b *Builder) Jal(rd Reg, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.insts), label: label})
	b.Emit(Inst{Op: Jal, Rd: rd})
}

// J emits an unconditional jump (jal with x0 destination).
func (b *Builder) J(label string) { b.Jal(X0, label) }

// Call emits a call: jal with the link register as destination.
func (b *Builder) Call(label string) { b.Jal(RegLink, label) }

// Ret emits a return: jalr x0, ra, 0.
func (b *Builder) Ret() { b.Emit(Inst{Op: Jalr, Rd: X0, Rs1: RegLink}) }

// Jalr emits an indirect jump to rs1+imm, linking into rd.
func (b *Builder) Jalr(rd, rs1 Reg, imm int64) {
	b.Emit(Inst{Op: Jalr, Rd: rd, Rs1: rs1, Imm: imm})
}

// Halt emits the stop instruction.
func (b *Builder) Halt() { b.Emit(Inst{Op: Halt}) }

// Build resolves all label references and returns the finished program.
// It panics on undefined labels and returns Validate's verdict as error.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			panic(fmt.Sprintf("isa: undefined label %q in %s", f.label, b.name))
		}
		b.insts[f.pc].Imm = int64(target) - int64(f.pc)
	}
	p := &Program{Name: b.name, Insts: b.insts, Data: b.data}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for statically known-good
// programs in tests and workload generators.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
