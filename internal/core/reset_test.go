package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/workloads"
)

// eventLog records the Observer event stream.
type eventLog []Event

func (l *eventLog) Observe(ev Event) { *l = append(*l, ev) }

// resetParts names the structures Reset re-initialises, paired between
// two cores, so a failed comparison can say which one differs.
func resetParts(x, y *Core) []struct {
	name string
	x, y any
} {
	return []struct {
		name string
		x, y any
	}{
		{"hier", x.hier, y.hier},
		{"main", x.main, y.main},
		{"fe", x.fe, y.fe},
		{"a", x.a, y.a},
		{"rob", x.rob, y.rob},
		{"prf", x.prf, y.prf},
		{"rat", x.rat, y.rat},
		{"arat", x.arat, y.arat},
		{"ckpts", x.ckpts, y.ckpts},
		{"iq", x.iq, y.iq},
		{"events", x.events, y.events},
		{"lsu", x.lsu, y.lsu},
		{"mdp", x.mdp, y.mdp},
		{"nonSpecLoadQ", x.nonSpecLoadQ, y.nonSpecLoadQ},
		{"taint", x.taint, y.taint},
		{"Stats", x.Stats, y.Stats},
	}
}

// taintPopulated reports whether an STT taint unit holds any taint.
func taintPopulated(u taintUnit) bool {
	var taints []int64
	switch s := u.(type) {
	case *sttRename:
		taints = s.taint[:]
	case *sttIssue:
		taints = s.taint
	}
	return slices.ContainsFunc(taints, func(y int64) bool { return y != noYRoT })
}

// stopMidFlight steps c past predictor warm-up and on to a cycle where
// the ROB, an MSHR, the event queue, the issue queue, the load queue, the
// broadcast queue and the taint unit are all occupied.
func stopMidFlight(t *testing.T, c *Core) {
	t.Helper()
	const warm, limit = 20_000, 200_000
	for c.cycle < limit {
		c.Step()
		if c.cycle >= warm && c.rob.len() > 0 && c.hier.OutstandingMisses(c.cycle) > 0 &&
			!c.events.empty() && len(c.iq) > 0 && c.lsu.lqLen() > 0 && len(c.nonSpecLoadQ) > 0 &&
			taintPopulated(c.taint) {
			return
		}
		if c.halted {
			break
		}
	}
	t.Fatalf("%s/%s: never stopped mid-flight (cycle %d)", c.cfg.Name, c.kind, c.cycle)
}

// TestResetMatchesNew holds Reset to New by structure. For every
// configuration row and scheme, a core stopped mid-flight on another
// program, row and scheme is Reset and must be reflect.DeepEqual to New's
// core on the whole Core value; the two then run to halt with identical
// Result, Stats, commit stream and Observer event stream.
func TestResetMatchesNew(t *testing.T) {
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	dirtyProg := prof.Build(1)
	prog := branchyProgram(300)
	for row := range configs {
		for _, kind := range SchemeKinds() {
			cfg := configs[row]
			dirtyKind := KindSTTRename
			if kind == KindSTTRename {
				dirtyKind = KindSTTIssue
			}
			c := MustNew(configs[(row+1)%len(configs)], dirtyKind, dirtyProg)
			c.CommitHook = func(isa.Commit) {}
			c.Observer = new(eventLog)
			stopMidFlight(t, c)
			// The dependence predictor trains only on memory-ordering
			// violations, which the dirty run need not have had.
			c.mdp.record(c.fe.pc)

			fresh := MustNew(cfg, kind, prog)
			// Every structure must be dirty before Reset, or the equality
			// below would prove nothing about it.
			for _, p := range resetParts(c, fresh) {
				if reflect.DeepEqual(p.x, p.y) {
					t.Fatalf("%s/%s: the dirty core's %s already equals a new core's", cfg.Name, kind, p.name)
				}
			}
			if err := c.Reset(cfg, kind, prog); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*c, *fresh) {
				for _, p := range resetParts(c, fresh) {
					if !reflect.DeepEqual(p.x, p.y) {
						t.Errorf("%s/%s: after Reset, %s differs from New's", cfg.Name, kind, p.name)
					}
				}
				t.Fatalf("%s/%s: after Reset, the core differs from New's", cfg.Name, kind)
			}

			run := func(c *Core) (Result, []isa.Commit, eventLog) {
				var commits []isa.Commit
				var events eventLog
				c.CommitHook = func(rec isa.Commit) { commits = append(commits, rec) }
				c.Observer = &events
				res, err := c.Run(RunLimits{})
				if err != nil || !res.Halted {
					t.Fatalf("%s/%s: halted=%v err=%v", cfg.Name, kind, res.Halted, err)
				}
				return res, commits, events
			}
			gotRes, gotCommits, gotEvents := run(c)
			wantRes, wantCommits, wantEvents := run(fresh)
			if gotRes != wantRes {
				t.Errorf("%s/%s: recycled Result\n  %+v\nnew\n  %+v", cfg.Name, kind, gotRes, wantRes)
			}
			if !slices.Equal(gotCommits, wantCommits) {
				t.Errorf("%s/%s: commit streams differ (recycled %d, new %d)", cfg.Name, kind, len(gotCommits), len(wantCommits))
			}
			if !slices.Equal(gotEvents, wantEvents) {
				t.Errorf("%s/%s: event streams differ (recycled %d, new %d)", cfg.Name, kind, len(gotEvents), len(wantEvents))
			}
		}
	}
}

// TestResetAllocs pins what recycling saves. On a core that has run a
// Mega cell, a Reset to another scheme on the same configuration and
// program allocates nothing but the program's data pages and the new
// scheme's taint unit.
func TestResetAllocs(t *testing.T) {
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := prof.Build(1)
	cfg := MegaConfig()
	// Main memory allocates one page per 4 KiB of address space written.
	pages := map[uint64]bool{}
	for _, seg := range prog.Data {
		for i := range seg.Words {
			pages[(seg.Addr+8*uint64(i))>>12] = true
		}
	}
	c := MustNew(cfg, KindBaseline, prog)
	if _, err := c.Run(RunLimits{MaxCycles: 40_000}); err != nil {
		t.Fatal(err)
	}
	taintAllocs := func(kind SchemeKind) float64 {
		newTaint := roster[kind].taint
		if newTaint == nil {
			return 0
		}
		return testing.AllocsPerRun(10, func() { newTaint(c) })
	}
	kinds := SchemeKinds()
	for i, kind := range kinds {
		next := kinds[(i+1)%len(kinds)]
		bound := 2*float64(len(pages)) + taintAllocs(kind) + taintAllocs(next)
		got := testing.AllocsPerRun(10, func() {
			if err := c.Reset(cfg, kind, prog); err != nil {
				t.Fatal(err)
			}
			if err := c.Reset(cfg, next, prog); err != nil {
				t.Fatal(err)
			}
		})
		if got > bound {
			t.Errorf("Reset to %s then %s: %.1f allocations, want at most %.0f (%d data pages each, plus the taint units)",
				kind, next, got, bound, len(pages))
		}
	}
}
