package core

import "repro/internal/isa"

// mkUop allocates an arena slot for a hand-built uop in unit tests. The
// cold body is copied wholesale; seq and the decoded class land in the hot
// slices, exactly as rename would place them. The slot starts in
// stateWaiting; tests that need a different lifecycle state set
// a.state[u] directly.
func mkUop(a *uopArena, seq uint64, b uop) int32 {
	u := a.alloc()
	a.body[u] = b
	a.seq[u] = seq
	a.cls[u] = isa.ClassOf(b.inst.Op)
	return u
}

// Unit-test constructors for the core's structures: each is a zero value
// put through the reset Core.Reset uses.

func newUopArena() *uopArena {
	a := new(uopArena)
	a.reset()
	return a
}

func newEventWheel() *eventWheel {
	w := new(eventWheel)
	w.reset(make([]uint64, 2))
	return w
}

func newROB(size int, a *uopArena) *rob {
	r := new(rob)
	r.reset(size, a)
	return r
}

func newPhysRegFile(n int) *physRegFile {
	p := new(physRegFile)
	p.reset(n)
	return p
}

func newCheckpointFile(n int) *checkpointFile {
	c := new(checkpointFile)
	c.reset(n)
	return c
}

func newLSU(a *uopArena) *lsu {
	l := new(lsu)
	l.reset(a)
	return l
}

func newMemDepPredictor() *memDepPredictor {
	m := new(memDepPredictor)
	m.reset()
	return m
}

func newFrontend(cfg *Config, prog *isa.Program) *frontend {
	f := new(frontend)
	f.reset(cfg, prog)
	return f
}
