package core

import (
	"repro/internal/branch"
	"repro/internal/isa"
)

// fetchEntry is one instruction in the fetch buffer, annotated with the
// front end's predictions.
type fetchEntry struct {
	pc         uint64
	inst       isa.Inst
	predTaken  bool
	predTarget uint64
	predHist   uint64 // GHR before this instruction's own prediction
	rasTop     int    // RAS top after this instruction's push/pop
	readyAt    uint64 // cycle the entry reaches rename (front-end depth)
}

// frontend is the fetch unit: PC, direction predictor, BTB, RAS, global
// history, and the fetch buffer feeding rename.
type frontend struct {
	cfg  *Config
	prog *isa.Program
	dir  *branch.TAGELite
	btb  *branch.BTB
	ras  *branch.RAS

	pc  uint64
	ghr uint64
	// The fetch buffer is a head-indexed deque over a fixed backing array:
	// queue[head:] are the live entries. Consuming by reslicing (q = q[1:])
	// would walk the slice along its array until the next append
	// reallocates — a steady drip of garbage from the hottest producer in
	// the simulator. push compacts the consumed prefix in place instead,
	// so the buffer never allocates after construction.
	queue   []fetchEntry
	head    int
	stalled bool // fetched a Halt (possibly wrong-path); wait for redirect

	// Statistics.
	fetched     uint64
	btbMissesNT uint64 // predicted-taken branches forced not-taken by a BTB miss
}

func newFrontend(cfg *Config, prog *isa.Program) *frontend {
	return &frontend{
		cfg:   cfg,
		prog:  prog,
		dir:   branch.NewDefaultTAGE(),
		btb:   branch.NewBTB(btbSize),
		ras:   branch.NewRAS(rasDepth),
		pc:    prog.Entry,
		queue: make([]fetchEntry, 0, cfg.fetchBufSize()),
	}
}

// qlen returns the number of buffered (unconsumed) fetch entries.
func (f *frontend) qlen() int { return len(f.queue) - f.head }

// push appends a fetch entry, compacting the consumed prefix in place when
// the backing array is exhausted. The caller guarantees qlen < fetchBufSize,
// so the post-compaction append always fits in the original allocation.
func (f *frontend) push(e fetchEntry) {
	if len(f.queue) == cap(f.queue) && f.head > 0 {
		n := copy(f.queue, f.queue[f.head:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, e)
}

// step fetches up to Width instructions along the predicted path.
func (f *frontend) step(now uint64) {
	if f.stalled {
		return
	}
	for n := 0; n < f.cfg.Width; n++ {
		if f.qlen() >= f.cfg.fetchBufSize() {
			return
		}
		in := f.prog.At(f.pc)
		e := fetchEntry{
			pc:       f.pc,
			inst:     in,
			predHist: f.ghr,
			rasTop:   f.ras.Top(),
			readyAt:  now + frontendDelay,
		}
		f.fetched++
		redirected := false
		switch isa.ClassOf(in.Op) {
		case isa.ClassHalt:
			f.push(e)
			f.stalled = true
			return
		case isa.ClassBranch:
			pred := f.dir.Predict(f.pc, f.ghr)
			if pred {
				if target, _, _, hit := f.btb.Lookup(f.pc); hit {
					e.predTaken = true
					e.predTarget = target
					f.pc = target
					redirected = true
				} else {
					// Without a target the front end cannot redirect;
					// fall through (an effective not-taken prediction).
					f.btbMissesNT++
					pred = false
				}
			}
			if !pred {
				e.predTarget = e.pc + 1
			}
			f.ghr = f.ghr<<1 | b2u(e.predTaken)
		case isa.ClassJump:
			if in.Op == isa.Jal {
				e.predTaken = true
				e.predTarget = uint64(int64(f.pc) + in.Imm)
				if in.Rd == isa.RegLink {
					f.ras.Push(f.pc + 1)
				}
				f.pc = e.predTarget
				redirected = true
			} else { // jalr
				e.predTaken = true
				if in.Rd == isa.X0 && in.Rs1 == isa.RegLink {
					if target, ok := f.ras.Pop(); ok {
						e.predTarget = target
					} else {
						e.predTarget = f.pc + 1
					}
				} else if target, _, _, hit := f.btb.Lookup(f.pc); hit {
					e.predTarget = target
				} else {
					e.predTarget = f.pc + 1
				}
				if in.Rd == isa.RegLink {
					f.ras.Push(f.pc + 1)
				}
				f.pc = e.predTarget
				redirected = true
			}
		}
		e.rasTop = f.ras.Top()
		if !redirected {
			e.predTarget = e.pc + 1
			f.pc = e.pc + 1
		}
		f.push(e)
		// A taken control instruction ends the fetch group.
		if redirected && e.predTarget != e.pc+1 {
			return
		}
	}
}

// redirect restarts fetch at pc, discarding the buffer.
func (f *frontend) redirect(pc uint64) {
	f.queue = f.queue[:0]
	f.head = 0
	f.stalled = false
	f.pc = pc
}

// peek returns the oldest fetch entry if it has cleared the front-end
// pipeline by cycle now, without consuming it.
func (f *frontend) peek(now uint64) (fetchEntry, bool) {
	if f.qlen() == 0 || f.queue[f.head].readyAt > now {
		return fetchEntry{}, false
	}
	return f.queue[f.head], true
}

// consume removes the oldest fetch entry (after a successful peek).
func (f *frontend) consume() {
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
