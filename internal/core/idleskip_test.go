package core

import (
	"testing"

	"repro/internal/isa"
)

// missChaseProgram is the idle-skip stress workload: an LCG walks a 1 MiB
// region (larger than the L2), so nearly every load is a DRAM miss, the
// varying stride defeats the prefetcher, and — when mispredict is set — a
// pseudo-random branch keeps control speculation honest. The address chain
// lives in registers, not loaded data, so the program is miss-heavy without
// needing a data image.
func missChaseProgram(iters int64, mispredict bool) *isa.Program {
	name := "misschase"
	if !mispredict {
		name = "misschase-predictable"
	}
	b := isa.NewBuilder(name)
	const base = 0x10_0000
	b.Li(isa.X5, base)
	b.Li(isa.X6, 12345)      // LCG state
	b.Li(isa.X7, iters)      // trip count
	b.Li(isa.X8, 1103515245) // LCG multiplier
	b.Li(isa.X10, 0)         // accumulator
	b.Label("loop")
	b.Mul(isa.X6, isa.X6, isa.X8)
	b.Addi(isa.X6, isa.X6, 12345)
	b.Srli(isa.X9, isa.X6, 7) // discard the weak low LCG bits
	b.Andi(isa.X9, isa.X9, (1<<17)-1)
	b.Slli(isa.X9, isa.X9, 3)
	b.Add(isa.X9, isa.X9, isa.X5)
	b.Ld(isa.X11, isa.X9, 0)
	b.Add(isa.X10, isa.X10, isa.X11)
	if mispredict {
		b.Srli(isa.X12, isa.X6, 9)
		b.Andi(isa.X12, isa.X12, 1)
		b.Beq(isa.X12, isa.X0, "even")
		b.Addi(isa.X10, isa.X10, 3)
		b.Label("even")
	}
	b.Addi(isa.X7, isa.X7, -1)
	b.Bne(isa.X7, isa.X0, "loop")
	b.Halt()
	return b.MustBuild()
}

// missPointerChaseProgram is the serialized-miss workload: each load's address
// comes from the previously loaded value (a random permutation over a
// 1 MiB table, larger than the L2), so misses cannot overlap and the
// machine drains completely between fills — the mcf-style access pattern
// the idle-cycle warp exists for.
func missPointerChaseProgram(iters int64) *isa.Program {
	const words = 1 << 17
	table := make([]uint64, words)
	for i := range table {
		table[i] = uint64(i*1103515245+12345) & (words - 1) // bijective: odd multiplier mod 2^k
	}
	b := isa.NewBuilder("ptrchase")
	const base = 0x10_0000
	b.Data(base, table)
	b.Li(isa.X5, base)
	b.Li(isa.X6, 1) // current index
	b.Li(isa.X7, iters)
	b.Label("loop")
	b.Slli(isa.X9, isa.X6, 3)
	b.Add(isa.X9, isa.X9, isa.X5)
	b.Ld(isa.X6, isa.X9, 0) // next index = table[current]
	b.Addi(isa.X7, isa.X7, -1)
	b.Bne(isa.X7, isa.X0, "loop")
	b.Halt()
	return b.MustBuild()
}

// runTicking is Run without the idle-cycle warp: the plain cycle-by-cycle
// machine, used as the equivalence reference.
func runTicking(c *Core, lim RunLimits) Result {
	if lim.MaxCycles == 0 {
		lim.MaxCycles = ^uint64(0)
	}
	if lim.MaxInsts == 0 {
		lim.MaxInsts = ^uint64(0)
	}
	for !c.halted && c.cycle < lim.MaxCycles && c.Stats.Committed < lim.MaxInsts {
		c.Step()
	}
	return c.result()
}

// TestIdleSkipEquivalence is the idle-cycle skipper's contract test: Run
// (which warps over idle stretches) and a pure Step loop must produce the
// same commit stream, the same Result, and the same Stats — cycle counts,
// stall attributions, scheme counters, everything. Skipping may never
// change which cycle anything happens on, only how fast we get there.
func TestIdleSkipEquivalence(t *testing.T) {
	kinds := []SchemeKind{KindBaseline, KindSTTRename, KindSTTIssue, KindNDA, KindDoM, KindInvisiSpec}

	cases := []struct {
		name string
		cfg  Config
		prog *isa.Program
		lim  RunLimits
	}{
		// Miss-dominated with mispredicts: long idle windows punctuated by
		// squashes; the MaxCycles limit binds, so the warp's end-of-window
		// clamp is exercised too.
		{"chase/small", SmallConfig(), missChaseProgram(20_000, true), RunLimits{MaxCycles: 30_000}},
		{"chase/mega", MegaConfig(), missChaseProgram(20_000, true), RunLimits{MaxCycles: 30_000}},
		// Serialized data-dependent misses: the deepest idle windows.
		{"ptrchase/small", SmallConfig(), missPointerChaseProgram(20_000), RunLimits{MaxCycles: 30_000}},
		{"ptrchase/mega", MegaConfig(), missPointerChaseProgram(20_000), RunLimits{MaxCycles: 30_000}},
		// Runs to Halt: the terminal drain must match.
		{"chase-halt/mega", MegaConfig(), missChaseProgram(150, true), RunLimits{}},
		// Busy loops with almost no idle cycles: the skipper must stay out
		// of the way. MaxInsts binds on the second.
		{"sum/mega", MegaConfig(), sumProgram(2_000), RunLimits{}},
		{"storeload/small", SmallConfig(), storeLoadProgram(800), RunLimits{MaxInsts: 5_000}},
	}

	for _, tc := range cases {
		for _, kind := range kinds {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				var skipCommits, tickCommits []isa.Commit

				cs := MustNew(tc.cfg, kind, tc.prog)
				cs.CommitHook = func(rec isa.Commit) { skipCommits = append(skipCommits, rec) }
				skipRes, err := cs.Run(tc.lim)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}

				ct := MustNew(tc.cfg, kind, tc.prog)
				ct.CommitHook = func(rec isa.Commit) { tickCommits = append(tickCommits, rec) }
				tickRes := runTicking(ct, tc.lim)

				if len(skipCommits) != len(tickCommits) {
					t.Fatalf("commit count diverged: skip %d, tick %d", len(skipCommits), len(tickCommits))
				}
				for i := range skipCommits {
					if skipCommits[i] != tickCommits[i] {
						t.Fatalf("commit #%d diverged:\nskip: %+v\ntick: %+v", i, skipCommits[i], tickCommits[i])
					}
				}
				if skipRes != tickRes {
					t.Errorf("results diverged:\nskip: %+v\ntick: %+v", skipRes, tickRes)
				}
			})
		}
	}
}

// TestIdleSkipEngages guards the point of the tentpole: on a miss-dominated
// workload the warp must actually fire, covering a large share of the
// simulated cycles. (The equivalence test alone would pass even if nextWake
// never found a window.)
func TestIdleSkipEngages(t *testing.T) {
	prog := missPointerChaseProgram(20_000)
	for _, kind := range []SchemeKind{KindBaseline, KindDoM, KindInvisiSpec} {
		c := MustNew(MegaConfig(), kind, prog)
		const limit = 30_000
		if _, err := c.Run(RunLimits{MaxCycles: limit}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		stepped := c.stepped
		if stepped == 0 || c.cycle < limit/2 {
			t.Fatalf("%v: degenerate run: stepped=%d cycle=%d", kind, stepped, c.cycle)
		}
		warped := c.cycle - stepped
		if warped*2 < c.cycle {
			t.Errorf("%v: idle warp covered %d of %d cycles (<50%%) on a serialized-miss chase", kind, warped, c.cycle)
		}
	}
}

// TestSteadyStateZeroAlloc pins the allocation-free hot loop: once warmed
// up, the core must simulate at zero heap allocations per cycle. Both
// phases of the uop lifecycle are covered: the predictable case exercises
// the commit path (slots recycle at retirement), and the mispredicting
// case hammers the squash path — wrong-path uops must recycle through the
// arena free list the moment they are reclaimed, since a squashed slot's
// lingering references (pending events, wakeup lists, the broadcast queue)
// are generation-checked handles, not liveness keep-alives. The observed
// cases attach a counting observer: the by-value event stream must not
// cost an allocation either.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name       string
		mispredict bool
		observe    bool
	}{
		{"predictable", false, false},
		{"squash-heavy", true, false},
		{"predictable/observed", false, true},
		{"squash-heavy/observed", true, true},
	}
	for _, tc := range cases {
		for _, kind := range []SchemeKind{KindBaseline, KindSTTRename, KindDoM, KindInvisiSpec} {
			prog := missChaseProgram(1<<40, tc.mispredict)
			c := MustNew(MegaConfig(), kind, prog)
			if tc.observe {
				c.Observer = &countingObserver{}
			}
			// Warm every pool past its high-water mark: arena, event heap,
			// queues, memory pages, predictor tables.
			if _, err := c.Run(RunLimits{MaxCycles: 20_000}); err != nil {
				t.Fatalf("%s/%v: warmup: %v", tc.name, kind, err)
			}
			target := c.Cycle()
			avg := testing.AllocsPerRun(50, func() {
				target += 500
				if _, err := c.Run(RunLimits{MaxCycles: target}); err != nil {
					t.Fatalf("%s/%v: %v", tc.name, kind, err)
				}
			})
			if avg != 0 {
				t.Errorf("%s/%v: steady-state Run allocates: %.2f allocs per 500 cycles", tc.name, kind, avg)
			}
		}
	}
}
