package diffsim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/mem"
)

// maxRefInsts bounds the in-order reference run; a generated program is
// counted-loop bounded and executes far fewer instructions.
const maxRefInsts = 1_000_000

// Case identifies one fuzz case: everything needed to regenerate its
// program and rerun its oracle checks.
type Case struct {
	Seed uint64
	Mask FeatureMask
}

func (c Case) String() string {
	return fmt.Sprintf("seed=%d mask=%#x (%v)", c.Seed, uint16(c.Mask), c.Mask)
}

// ReplayCommand returns the cmd/shadowbinding invocation that replays
// this case, configuration selection included.
func (c Case) ReplayCommand() string {
	return fmt.Sprintf("shadowbinding -fuzz-seed %d -fuzz-mask %#x", c.Seed, uint16(c.Mask))
}

// CaseForIndex derives the i'th case of a campaign with the given base
// seed. The schedule front-loads coverage — each single feature first,
// then the full mask — before switching to random feature mixes, so even
// a short campaign isolates every feature at least once.
func CaseForIndex(base uint64, i int) Case {
	seed := base + uint64(i)
	var mask FeatureMask
	switch {
	case i < numFeatures:
		mask = 1 << i
	case i == numFeatures:
		mask = FeatAll
	default:
		rng := seeded(int64(seed)*0x9E3779B9 + 1)
		mask = FeatureMask(1 + rng.Intn(int(FeatAll)))
		rngPool.Put(rng)
	}
	return Case{Seed: seed, Mask: mask}
}

// caseConfigs is the roster ConfigForCase indexes: the four Table 1
// configurations, copied once.
var caseConfigs = core.Configs()

// ConfigForCase picks the Table 1 configuration a case runs on. Derived
// from the seed alone so a replay from a printed (seed, mask) pair
// selects the same core.
func ConfigForCase(c Case) core.Config {
	return caseConfigs[c.Seed%uint64(len(caseConfigs))]
}

// caseErr wraps a check failure with everything needed to replay it.
func caseErr(c Case, cfg core.Config, kind core.SchemeKind, format string, args ...any) error {
	return fmt.Errorf("diffsim: case %v on %s/%s: %s; replay: %s",
		c, cfg.Name, kind, fmt.Sprintf(format, args...), c.ReplayCommand())
}

// invariantObserver collects security-invariant violations from the
// core's observation stream.
type invariantObserver struct {
	taintTracking bool // STT: a tainted transmitter must never issue
	delayedNDA    bool // NDA: a speculative load broadcast must never release
	noSpecMSHR    bool // DoM/InvisiSpec: no speculative load occupies an MSHR
	invisibleOnly bool // InvisiSpec: speculative accesses must be invisible
	violations    []string
}

// newInvariantObserver maps a scheme to the invariants the oracle asserts
// on it — each scheme's one-line security argument, stated over events.
func newInvariantObserver(kind core.SchemeKind) *invariantObserver {
	return &invariantObserver{
		taintTracking: kind == core.KindSTTRename || kind == core.KindSTTIssue,
		delayedNDA:    kind == core.KindNDA,
		noSpecMSHR:    kind == core.KindDoM || kind == core.KindInvisiSpec,
		invisibleOnly: kind == core.KindInvisiSpec,
	}
}

// asserts reports whether any invariant applies.
func (p *invariantObserver) asserts() bool {
	return p.taintTracking || p.delayedNDA || p.noSpecMSHR || p.invisibleOnly
}

func (p *invariantObserver) violatef(format string, args ...any) {
	if len(p.violations) < 8 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

// Observe checks the events an invariant is stated over and returns at
// once for the rest. An NDA release at commit (StageCommit) needs no
// check: commit is the definitive visibility point; exposures at commit
// are reported as StageVP and are checked.
func (p *invariantObserver) Observe(ev core.Event) {
	switch ev.Stage {
	case core.StageIssue:
		if p.taintTracking && ev.Transmitter && ev.Tainted {
			p.violatef("cycle %d: tainted transmitter issued (pc %d, %v, seq %d, part %d)",
				ev.Cycle, ev.PC, ev.Op, ev.Seq, ev.Part)
		}
	case core.StageBroadcast:
		p.broadcast(ev)
	case core.StageCacheAccess:
		p.cacheAccess(ev)
	case core.StageVP:
		if ev.Annot&core.AnnotNDAReleased != 0 {
			p.broadcast(ev)
		}
		if ev.Annot&core.AnnotExposure != 0 {
			p.cacheAccess(ev)
		}
	}
}

func (p *invariantObserver) broadcast(ev core.Event) {
	if p.delayedNDA && ev.Speculative {
		p.violatef("cycle %d: speculative load broadcast released (pc %d, seq %d, delayed=%v)",
			ev.Cycle, ev.PC, ev.Seq, ev.Annot&core.AnnotNDAReleased != 0)
	}
}

// accessKind numbers a cache access the way violation messages report
// it: 0 demand, 1 invisible, 2 exposure.
func accessKind(ev core.Event) int {
	switch {
	case ev.Annot&core.AnnotInvisible != 0:
		return 1
	case ev.Annot&core.AnnotExposure != 0:
		return 2
	}
	return 0
}

func (p *invariantObserver) cacheAccess(ev core.Event) {
	// The invisible-only invariant is the stricter of the two (it fires on
	// speculative hits too), so it is checked first: an InvisiSpec failure
	// reports its own argument, not the weaker MSHR consequence.
	if p.invisibleOnly && ev.Speculative && ev.Annot&core.AnnotInvisible == 0 {
		p.violatef("cycle %d: speculative load reached the cache side-effect path before exposure (pc %d, seq %d, addr %#x, kind %d)",
			ev.Cycle, ev.PC, ev.Seq, ev.Addr, accessKind(ev))
		return
	}
	// Neither an L1 hit nor invisible: the access occupies an MSHR.
	if p.noSpecMSHR && ev.Speculative && ev.Annot&(core.AnnotL1Hit|core.AnnotInvisible) == 0 {
		p.violatef("cycle %d: speculative load occupied an MSHR past the L1 (pc %d, seq %d, addr %#x)",
			ev.Cycle, ev.PC, ev.Seq, ev.Addr)
	}
}

// The reference side of a case is recycled like the core side: the
// in-order sim and the commit-stream buffer come from these pools and go
// back when the case ends. A pooled sim has handed its pages back to
// mem's page pool, so an idle one pins no memory, and a stream longer
// than maxPooledStream records is dropped rather than pooled, so one
// pathological case cannot pin maxRefInsts records.
var (
	simPool    = sync.Pool{New: func() any { return new(isa.ArchSim) }}
	streamPool = sync.Pool{New: func() any { return new([]isa.Commit) }}
)

const maxPooledStream = 1 << 16

// reference runs the in-order architectural simulator to completion,
// returning its commit stream and the final machine, both drawn from the
// pools; release hands them back.
func reference(c Case, prog *isa.Program) ([]isa.Commit, *isa.ArchSim, error) {
	sim := simPool.Get().(*isa.ArchSim)
	sim.Reset(prog)
	stream := (*streamPool.Get().(*[]isa.Commit))[:0]
	for len(stream) < maxRefInsts {
		rec := sim.Step()
		if sim.Halted() {
			return stream, sim, nil
		}
		stream = append(stream, rec)
	}
	release(stream, sim)
	return nil, nil, fmt.Errorf("diffsim: case %v: reference did not halt within %d instructions; replay: %s",
		c, maxRefInsts, c.ReplayCommand())
}

// release returns a reference's stream and sim to their pools. Neither
// may be used afterwards.
func release(stream []isa.Commit, sim *isa.ArchSim) {
	sim.Memory().Reset()
	simPool.Put(sim)
	if cap(stream) <= maxPooledStream {
		stream = stream[:0]
		streamPool.Put(&stream)
	}
}

// CheckCase generates the case's program and checks every given scheme
// against the in-order reference on cfg: committed-instruction-stream
// equality, final architectural register and memory equality, liveness
// within a cycle bound, and the schemes' security invariants via the
// observation stream. The first failure is returned, tagged with the case's
// replay command.
func CheckCase(cfg core.Config, kinds []core.SchemeKind, c Case) error {
	prog := Generate(c)
	if err := prog.Validate(); err != nil {
		return fmt.Errorf("diffsim: case %v: generated program invalid: %w; replay: %s",
			c, err, c.ReplayCommand())
	}
	want, sim, err := reference(c, prog)
	if err != nil {
		return err
	}
	defer release(want, sim)
	cc := newCaseCheck(c, cfg, prog, want, sim)
	recycled := core.Pooled()
	defer recycled.Recycle()
	for _, kind := range kinds {
		if err := cc.check(recycled, kind); err != nil {
			return err
		}
	}
	return nil
}

// cycleBound returns the liveness bound for a program with n committed
// instructions: generous enough for the slowest scheme on the narrowest
// core (DRAM-bound worst case), tight enough that a livelock fails fast.
func cycleBound(n int) uint64 {
	return 50_000 + uint64(n)*200
}

// caseCheck is one case made ready to check schemes against: its program
// on its configuration, and what every scheme must reproduce — the
// reference's commit stream, final registers and final memory. CheckCase
// builds it once per case, not once per scheme.
type caseCheck struct {
	cs   Case
	cfg  core.Config
	prog *isa.Program
	want []isa.Commit
	regs [isa.NumRegs]uint64
	mem  *mem.Main
}

func newCaseCheck(cs Case, cfg core.Config, prog *isa.Program, want []isa.Commit, sim *isa.ArchSim) *caseCheck {
	return &caseCheck{cs: cs, cfg: cfg, prog: prog, want: want, regs: sim.Registers(), mem: sim.Memory()}
}

// check runs the case under one scheme on c, reset for the run, and
// compares it with the reference.
func (cc *caseCheck) check(c *core.Core, kind core.SchemeKind) error {
	cs, cfg, want := cc.cs, cc.cfg, cc.want
	if err := c.Reset(cfg, kind, cc.prog); err != nil {
		return caseErr(cs, cfg, kind, "core.New: %v", err)
	}
	// Reset left c.Observer nil: a scheme with no invariant (the
	// baseline) keeps it so, and its run builds no event stream.
	obs := newInvariantObserver(kind)
	if obs.asserts() {
		c.Observer = obs
	}

	// The commit stream is checked as it arrives: only its length and its
	// first divergent record are kept, never a copy of the stream.
	committed := 0
	divergence := -1
	var diverged isa.Commit
	c.CommitHook = func(rec isa.Commit) {
		if divergence < 0 && (committed >= len(want) || rec != want[committed]) {
			divergence, diverged = committed, rec
		}
		committed++
	}

	res, err := c.Run(core.RunLimits{MaxCycles: cycleBound(len(want))})
	if err != nil {
		return caseErr(cs, cfg, kind, "deadlock: %v", err)
	}
	if !res.Halted {
		return caseErr(cs, cfg, kind,
			"liveness: no halt within %d cycles (%d/%d instructions committed)",
			cycleBound(len(want)), committed, len(want))
	}

	// Committed-instruction-stream equality against the reference.
	switch {
	case divergence >= 0 && divergence < len(want):
		return caseErr(cs, cfg, kind, "commit stream diverged at instruction %d:\n  got  %+v\n  want %+v",
			divergence, diverged, want[divergence])
	case divergence >= 0:
		return caseErr(cs, cfg, kind, "commit stream too long: %d committed, reference executed %d (first extra: %+v)",
			committed, len(want), diverged)
	case committed < len(want):
		return caseErr(cs, cfg, kind, "commit stream too short: %d committed, reference executed %d (next expected: %+v)",
			committed, len(want), want[committed])
	}

	// Final architectural register state.
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if got, want := c.ArchReg(r), cc.regs[r]; got != want {
			return caseErr(cs, cfg, kind, "final %v = %#x, reference has %#x", r, got, want)
		}
	}

	if err := cc.finalMemory(c, kind); err != nil {
		return err
	}

	// Security invariants checked over the observation stream.
	if len(obs.violations) > 0 {
		return caseErr(cs, cfg, kind, "security invariant violated:\n  %s",
			obs.violations[0])
	}
	return nil
}

// finalMemory compares the core's final memory image with the
// reference's over every word of every page either machine touched, and
// reports the lowest differing word.
func (cc *caseCheck) finalMemory(c *core.Core, kind core.SchemeKind) error {
	if a, got, want, differ := c.Memory().FirstDiff(cc.mem); differ {
		return caseErr(cc.cs, cc.cfg, kind, "final M[%#x] = %#x, reference has %#x", a, got, want)
	}
	return nil
}

// Campaign runs n cases derived from the base seed — CaseForIndex(base, i)
// for i in [0, n) — on the harness's shared worker pool, checking every
// scheme for each case. The first failure cancels the rest and
// is returned (lowest index among the cases that ran; every failure's
// message carries its own replay command either way). progress, when
// non-nil, receives one line per completed case; calls are serialized.
func Campaign(ctx context.Context, base uint64, n, parallelism int, progress func(format string, args ...any)) error {
	var mu sync.Mutex
	done := 0
	kinds := core.SchemeKinds()
	return harness.ParallelDo(ctx, n, parallelism, func(i int) error {
		cs := CaseForIndex(base, i)
		cfg := ConfigForCase(cs)
		if err := CheckCase(cfg, kinds, cs); err != nil {
			return err
		}
		if progress != nil {
			mu.Lock()
			done++
			progress("diffsim: [%d/%d] ok %v on %s", done, n, cs, cfg.Name)
			mu.Unlock()
		}
		return nil
	})
}
