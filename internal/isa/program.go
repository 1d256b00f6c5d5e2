package isa

import "fmt"

// DataSeg is an initialized region of data memory: Words[i] is loaded at
// byte address Addr + 8*i before the program starts.
type DataSeg struct {
	Addr  uint64
	Words []uint64
}

// Program is a fully resolved instruction sequence plus its initial data
// image. PCs are indices into Insts.
type Program struct {
	Name  string
	Insts []Inst
	Data  []DataSeg
	Entry uint64
}

// Len returns the number of instructions in the program.
func (p *Program) Len() int { return len(p.Insts) }

// At returns the instruction at pc. PCs outside the program decode as Halt,
// so a runaway (wrong-path) fetch is always well defined.
func (p *Program) At(pc uint64) Inst {
	if pc >= uint64(len(p.Insts)) {
		return Inst{Op: Halt}
	}
	return p.Insts[pc]
}

// Validate checks structural invariants: the entry point and all branch
// and jump targets inside the program, and register indices in range. It
// returns the first problem found.
func (p *Program) Validate() error {
	n := int64(len(p.Insts))
	if len(p.Insts) > 0 && p.Entry >= uint64(len(p.Insts)) {
		return fmt.Errorf("%s: entry %d out of range [0,%d)", p.Name, p.Entry, n)
	}
	for pc, in := range p.Insts {
		if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
			return fmt.Errorf("%s: pc %d: register out of range in %v", p.Name, pc, in)
		}
		switch ClassOf(in.Op) {
		case ClassBranch:
			t := int64(pc) + in.Imm
			if t < 0 || t >= n {
				return fmt.Errorf("%s: pc %d: branch target %d out of range [0,%d)", p.Name, pc, t, n)
			}
		case ClassJump:
			if in.Op == Jal {
				t := int64(pc) + in.Imm
				if t < 0 || t >= n {
					return fmt.Errorf("%s: pc %d: jump target %d out of range [0,%d)", p.Name, pc, t, n)
				}
			}
		}
	}
	return nil
}

// ClassCounts returns the number of static instructions per operation
// class — an introspection helper the random-program generator's tests use
// to verify a feature mix actually emitted the instruction classes it
// promises.
func (p *Program) ClassCounts() map[Class]int {
	counts := make(map[Class]int)
	for _, in := range p.Insts {
		counts[ClassOf(in.Op)]++
	}
	return counts
}
