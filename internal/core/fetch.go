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

// reset re-initialises the front end to fetch prog from its entry point
// with untrained predictors and an empty fetch buffer.
func (f *frontend) reset(cfg *Config, prog *isa.Program) {
	dir, btb, ras := f.dir, f.btb, f.ras
	if dir == nil {
		dir, btb, ras = branch.NewDefaultTAGE(), branch.NewBTB(btbSize), branch.NewRAS(rasDepth)
	} else {
		dir.Reset()
		btb.Reset()
		ras.Reset()
	}
	queue := f.queue[:0]
	if cap(queue) < cfg.fetchBufSize() {
		queue = make([]fetchEntry, 0, cfg.fetchBufSize())
	}
	*f = frontend{cfg: cfg, prog: prog, dir: dir, btb: btb, ras: ras, pc: prog.Entry, queue: queue}
}

// qlen returns the number of buffered (unconsumed) fetch entries.
func (f *frontend) qlen() int { return len(f.queue) - f.head }

// push appends a zeroed fetch entry for the caller to fill in place,
// compacting the consumed prefix when the backing array is exhausted. The
// caller guarantees qlen < fetchBufSize, so the post-compaction append
// always fits in the original allocation.
func (f *frontend) push() *fetchEntry {
	if len(f.queue) == cap(f.queue) && f.head > 0 {
		n := copy(f.queue, f.queue[f.head:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, fetchEntry{})
	return &f.queue[len(f.queue)-1]
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
		e := f.push()
		e.pc = f.pc
		e.inst = in
		e.predHist = f.ghr
		e.rasTop = f.ras.Top()
		e.readyAt = now + frontendDelay
		f.fetched++
		redirected := false
		switch isa.ClassOf(in.Op) {
		case isa.ClassHalt:
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
// pipeline by cycle now, without consuming it, and nil otherwise. The
// entry stays valid until the next push.
func (f *frontend) peek(now uint64) *fetchEntry {
	if f.qlen() == 0 || f.queue[f.head].readyAt > now {
		return nil
	}
	return &f.queue[f.head]
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
