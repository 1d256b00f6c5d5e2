package isa

import (
	"fmt"

	"repro/internal/mem"
)

// Commit records one architecturally executed instruction: what the
// out-of-order core must produce at its commit stage. The OoO core's tests
// compare its commit stream against an ArchSim-produced stream.
type Commit struct {
	PC     uint64
	Inst   Inst
	Rd     Reg    // destination, X0 if none
	Value  uint64 // value written to Rd (if any)
	Addr   uint64 // effective address for loads/stores
	Taken  bool   // branch outcome
	Target uint64 // next PC
}

// ArchSim is the in-order architectural reference simulator. It executes a
// Program functionally with no timing. Its data memory is a mem.Main, the
// paged memory the out-of-order core holds, so the two machines' images
// compare page by page. The zero value is not usable; use NewArchSim, or
// Reset a sim that has run before.
type ArchSim struct {
	prog   *Program
	regs   [NumRegs]uint64
	mem    mem.Main
	pc     uint64
	halted bool
	count  uint64
}

// NewArchSim returns a reference simulator with the program's initial data
// image loaded. It is new(ArchSim) plus Reset.
func NewArchSim(p *Program) *ArchSim {
	s := new(ArchSim)
	s.Reset(p)
	return s
}

// Reset re-initialises s exactly as NewArchSim builds a sim for p: the
// registers are cleared, the memory hands its pages back to mem's page
// pool and takes in p's data image segment-wise, and execution starts at
// p.Entry. A sim that has been Reset is reflect.DeepEqual to a new one.
func (s *ArchSim) Reset(p *Program) {
	s.mem.Reset()
	*s = ArchSim{prog: p, mem: s.mem, pc: p.Entry}
	for _, seg := range p.Data {
		s.mem.WriteRange(seg.Addr, seg.Words)
	}
}

// Halted reports whether the machine has executed Halt.
func (s *ArchSim) Halted() bool { return s.halted }

// PC returns the current program counter.
func (s *ArchSim) PC() uint64 { return s.pc }

// Reg returns the current value of an architectural register.
func (s *ArchSim) Reg(r Reg) uint64 { return s.regs[r] }

// Mem returns the current value of a data word.
func (s *ArchSim) Mem(addr uint64) uint64 { return s.mem.Read(addr &^ 7) }

// InstCount returns the number of instructions executed so far.
func (s *ArchSim) InstCount() uint64 { return s.count }

// Registers returns a copy of the architectural register file.
func (s *ArchSim) Registers() [NumRegs]uint64 { return s.regs }

// Memory returns the sim's data memory: the program's initial image plus
// every store executed so far. The differential oracle compares it with
// the out-of-order core's committed memory.
func (s *ArchSim) Memory() *mem.Main { return &s.mem }

// Step executes one instruction and returns its commit record. Stepping a
// halted machine returns a Halt record without advancing.
func (s *ArchSim) Step() Commit {
	in := s.prog.At(s.pc)
	c := Commit{PC: s.pc, Inst: in, Target: s.pc + 1}
	if s.halted || in.Op == Halt {
		s.halted = true
		c.Target = s.pc
		return c
	}
	s.count++
	a, b2 := s.regs[in.Rs1], s.regs[in.Rs2]
	switch ClassOf(in.Op) {
	case ClassALU, ClassMul, ClassDiv:
		c.Value = EvalALU(in.Op, a, b2, in.Imm)
		s.write(in.Rd, c.Value)
		c.Rd = in.Rd
	case ClassLoad:
		c.Addr = (a + uint64(in.Imm)) &^ 7
		c.Value = s.mem.Read(c.Addr)
		s.write(in.Rd, c.Value)
		c.Rd = in.Rd
	case ClassStore:
		c.Addr = (a + uint64(in.Imm)) &^ 7
		s.mem.Write(c.Addr, b2)
		c.Value = b2
	case ClassBranch:
		c.Taken = BranchTaken(in.Op, a, b2)
		if c.Taken {
			c.Target = uint64(int64(s.pc) + in.Imm)
		}
	case ClassJump:
		link := s.pc + 1
		if in.Op == Jal {
			c.Target = uint64(int64(s.pc) + in.Imm)
		} else {
			c.Target = a + uint64(in.Imm)
		}
		c.Taken = true
		if in.Rd != X0 {
			s.write(in.Rd, link)
			c.Rd = in.Rd
			c.Value = link
		}
	case ClassNop:
		// nothing
	}
	s.pc = c.Target
	return c
}

func (s *ArchSim) write(r Reg, v uint64) {
	if r != X0 {
		s.regs[r] = v
	}
}

// Run executes until Halt or until max instructions have executed,
// returning the number executed. It errors if the limit is hit, which in
// tests indicates a program that fails to terminate.
func (s *ArchSim) Run(max uint64) (uint64, error) {
	start := s.count
	for !s.halted && s.count-start < max {
		s.Step()
	}
	if !s.halted {
		return s.count - start, fmt.Errorf("isa: %s did not halt within %d instructions", s.prog.Name, max)
	}
	return s.count - start, nil
}
