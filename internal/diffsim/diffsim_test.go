package diffsim

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
)

// TestGenerateDeterministic: a case must regenerate byte-identically —
// reproducibility from a printed (seed, mask) pair is the whole contract.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		c := CaseForIndex(1, i)
		a, b := Generate(c), Generate(c)
		if !reflect.DeepEqual(a.Insts, b.Insts) || !reflect.DeepEqual(a.Data, b.Data) {
			t.Fatalf("case %v: two generations differ", c)
		}
	}
}

// TestGenerateSeedsDiffer: distinct seeds must not collapse to the same
// program.
func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Case{Seed: 100, Mask: FeatAll})
	b := Generate(Case{Seed: 101, Mask: FeatAll})
	if reflect.DeepEqual(a.Insts, b.Insts) {
		t.Fatal("seeds 100 and 101 generated identical instruction streams")
	}
}

// TestGeneratedProgramsHalt: every generated program must validate and
// terminate on the in-order reference — the generator's termination-by-
// construction argument, checked over a seed spread.
func TestGeneratedProgramsHalt(t *testing.T) {
	for i := 0; i < 50; i++ {
		c := CaseForIndex(500, i)
		p := Generate(c)
		if err := p.Validate(); err != nil {
			t.Fatalf("case %v: %v", c, err)
		}
		sim := isa.NewArchSim(p)
		if _, err := sim.Run(maxRefInsts); err != nil {
			t.Fatalf("case %v: %v", c, err)
		}
	}
}

// TestFeatureMasksEmitTheirClasses: a single-feature mask must emit the
// instruction classes its feature promises.
func TestFeatureMasksEmitTheirClasses(t *testing.T) {
	cases := []struct {
		mask FeatureMask
		want []isa.Class
	}{
		{FeatALU, []isa.Class{isa.ClassALU}},
		{FeatMulDiv, []isa.Class{isa.ClassMul}},
		{FeatPointerChase, []isa.Class{isa.ClassLoad}},
		{FeatIndirectLoad, []isa.Class{isa.ClassLoad}},
		{FeatDataDepBranch, []isa.Class{isa.ClassBranch, isa.ClassLoad}},
		{FeatStoreAlias, []isa.Class{isa.ClassStore, isa.ClassLoad}},
		{FeatCallReturn, []isa.Class{isa.ClassJump}},
		{FeatIndirectCall, []isa.Class{isa.ClassJump, isa.ClassLoad}},
	}
	for _, tc := range cases {
		counts := Generate(Case{Seed: 42, Mask: tc.mask}).ClassCounts()
		for _, cls := range tc.want {
			if counts[cls] == 0 {
				t.Errorf("mask %v: no %v instructions emitted (%v)", tc.mask, cls, counts)
			}
		}
	}
}

// TestCaseForIndexCoversFeatures: the campaign schedule must isolate each
// feature before mixing them.
func TestCaseForIndexCoversFeatures(t *testing.T) {
	for i := 0; i < numFeatures; i++ {
		if got := CaseForIndex(1, i).Mask; got != 1<<i {
			t.Errorf("case %d mask = %#x, want %#x", i, got, 1<<i)
		}
	}
	if got := CaseForIndex(1, numFeatures).Mask; got != FeatAll {
		t.Errorf("case %d mask = %#x, want FeatAll", numFeatures, got)
	}
}

// TestReplayCommand: the failure-message replay invocation must carry the
// exact seed and mask.
func TestReplayCommand(t *testing.T) {
	c := Case{Seed: 123, Mask: 0x2f}
	cmd := c.ReplayCommand()
	for _, want := range []string{"-fuzz-seed 123", "-fuzz-mask 0x2f"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("replay command %q missing %q", cmd, want)
		}
	}
}

// TestConfigForCaseStable: a replayed case must land on the same core
// configuration its campaign run used.
func TestConfigForCaseStable(t *testing.T) {
	c := CaseForIndex(1, 17)
	if a, b := ConfigForCase(c).Name, ConfigForCase(c).Name; a != b {
		t.Fatalf("config selection unstable: %s vs %s", a, b)
	}
}

// corpusSize returns the case count of TestDifferentialCorpus and
// TestIdleSkipCorpus. The default
// 208-case corpus — every single-feature mask, the full mask, and 199
// random mixes — is the PR-smoke budget: it stays in the low seconds even
// as the scheme roster grows (each case checks EVERY scheme, so the
// corpus got 6/4 wider when DoM and InvisiSpec landed). The nightly
// CI job scales the same deterministic schedule up via DIFFSIM_CORPUS=N
// without touching the smoke cost.
func corpusSize(t *testing.T) int {
	t.Helper()
	const def = 208
	s := os.Getenv("DIFFSIM_CORPUS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("DIFFSIM_CORPUS=%q: want a positive case count", s)
	}
	return n
}

// TestDifferentialCorpus is the standing correctness gate: a deterministic
// corpus of generated programs (corpusSize; 208 by default) must pass the
// differential oracle for every scheme. Any failure prints the
// (seed, mask) pair and the shadowbinding invocation that replays it.
func TestDifferentialCorpus(t *testing.T) {
	n := corpusSize(t)
	if err := Campaign(context.Background(), 1, n, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIdleSkipCorpus holds the idle-cycle warp to its contract on every
// corpus case, not just the hand-written kernels of core's
// TestIdleSkipEquivalence: under every scheme, Run (which warps over idle
// stretches) and a plain Step loop must commit the same stream and return
// the same Result. A third leg holds recycled cores to the fresh run: per
// scheme, a core carried over from the previous case, which ran on a
// different configuration, must after Reset commit the same stream and
// return the same Result. It stays out of CheckCase, so a fuzz campaign
// pays nothing for it.
func TestIdleSkipCorpus(t *testing.T) {
	n := corpusSize(t)
	kinds := core.SchemeKinds()
	// Cases run in order within a chunk, so each chunk carries its cores
	// from one case to the next. A chunk's first case takes over cores
	// that ran the case before it (case 1 for case 0): consecutive seeds
	// select different configurations.
	const chunk = 8
	err := harness.ParallelDo(context.Background(), (n+chunk-1)/chunk, 0, func(k int) error {
		first := k * chunk
		carried := make([]*core.Core, len(kinds))
		prev := first - 1
		if first == 0 {
			prev = 1
		}
		prevCase := CaseForIndex(1, prev)
		for j, kind := range kinds {
			carried[j] = new(core.Core)
			if _, _, err := runCase(carried[j], ConfigForCase(prevCase), kind, Generate(prevCase), core.RunLimits{}, false); err != nil {
				return caseErr(prevCase, ConfigForCase(prevCase), kind, "%v", err)
			}
		}
		for i := first; i < min(first+chunk, n); i++ {
			cs := CaseForIndex(1, i)
			cfg := ConfigForCase(cs)
			prog := Generate(cs)
			want, _, err := reference(cs, prog)
			if err != nil {
				return err
			}
			lim := core.RunLimits{MaxCycles: cycleBound(len(want))}
			for j, kind := range kinds {
				if err := skipMatchesTick(cfg, kind, prog, lim, carried[j]); err != nil {
					return caseErr(cs, cfg, kind, "%v", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runCase resets c for prog and runs it, through Run or, with tick, a
// public Step loop, returning the Result and the commit stream.
func runCase(c *core.Core, cfg core.Config, kind core.SchemeKind, prog *isa.Program, lim core.RunLimits, tick bool) (core.Result, []isa.Commit, error) {
	if err := c.Reset(cfg, kind, prog); err != nil {
		return core.Result{}, nil, err
	}
	var commits []isa.Commit
	c.CommitHook = func(rec isa.Commit) { commits = append(commits, rec) }
	if !tick {
		res, err := c.Run(lim)
		return res, commits, err
	}
	for !c.Halted() && c.Cycle() < lim.MaxCycles {
		c.Step()
	}
	return core.Result{Cycles: c.Cycle(), Insts: c.Stats.Committed, IPC: c.Stats.IPC(),
		Halted: c.Halted(), Stats: c.Stats}, commits, nil
}

// skipMatchesTick runs prog on a new core through Run and through a
// public Step loop, then on the recycled core through Run, and reports a
// difference in commit stream or Result.
func skipMatchesTick(cfg core.Config, kind core.SchemeKind, prog *isa.Program, lim core.RunLimits, recycled *core.Core) error {
	skip, skipCommits, err := runCase(new(core.Core), cfg, kind, prog, lim, false)
	if err != nil {
		return err
	}
	tick, tickCommits, _ := runCase(new(core.Core), cfg, kind, prog, lim, true)
	if !slices.Equal(skipCommits, tickCommits) {
		return fmt.Errorf("skip-vs-tick commit streams diverge (skip %d commits, tick %d)",
			len(skipCommits), len(tickCommits))
	}
	if skip != tick {
		return fmt.Errorf("skip-vs-tick results diverge:\n  skip %+v\n  tick %+v", skip, tick)
	}
	rec, recCommits, err := runCase(recycled, cfg, kind, prog, lim, false)
	if err != nil {
		return fmt.Errorf("recycled core: %w", err)
	}
	if !slices.Equal(recCommits, skipCommits) {
		return fmt.Errorf("recycled-vs-new commit streams diverge (recycled %d commits, new %d)",
			len(recCommits), len(skipCommits))
	}
	if rec != skip {
		return fmt.Errorf("recycled-vs-new results diverge:\n  recycled %+v\n  new %+v", rec, skip)
	}
	return nil
}

// TestCheckCaseSchemesExplicit runs one rich case against each scheme
// individually, so a scheme regression is attributed even if the corpus
// is skipped.
func TestCheckCaseSchemesExplicit(t *testing.T) {
	c := Case{Seed: 99, Mask: FeatAll}
	for _, kind := range core.SchemeKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			if err := CheckCase(core.MegaConfig(), []core.SchemeKind{kind}, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckSchemeCommitMismatchMessages feeds the oracle a doctored
// reference stream three ways — one record altered, the last record
// dropped, one extra record appended — and pins each failure message,
// byte for byte: the instruction index or counts, and the got/want,
// first-extra or next-expected record.
func TestCheckSchemeCommitMismatchMessages(t *testing.T) {
	cs := Case{Seed: 99, Mask: FeatAll}
	cfg := ConfigForCase(cs)
	kind := core.KindBaseline
	prog := Generate(cs)
	want, sim, err := reference(cs, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := newCaseCheck(cs, cfg, prog, want, sim).check(new(core.Core), kind); err != nil {
		t.Fatalf("undoctored stream: %v", err)
	}
	n := len(want)
	prefix := fmt.Sprintf("diffsim: case %v on %s/%s: ", cs, cfg.Name, kind)
	suffix := "; replay: " + cs.ReplayCommand()

	k := n / 2
	altered := slices.Clone(want)
	altered[k].Value ^= 1
	extra := isa.Commit{PC: 0xdead, Rd: 3, Value: 7}
	cases := []struct {
		name string
		want []isa.Commit
		msg  string
	}{
		{"altered", altered, fmt.Sprintf("commit stream diverged at instruction %d:\n  got  %+v\n  want %+v",
			k, want[k], altered[k])},
		{"tail dropped", want[:n-1], fmt.Sprintf("commit stream too long: %d committed, reference executed %d (first extra: %+v)",
			n, n-1, want[n-1])},
		{"extra appended", append(slices.Clone(want), extra), fmt.Sprintf("commit stream too short: %d committed, reference executed %d (next expected: %+v)",
			n, n+1, extra)},
	}
	for _, tc := range cases {
		err := newCaseCheck(cs, cfg, prog, tc.want, sim).check(new(core.Core), kind)
		if err == nil {
			t.Errorf("%s: doctored stream accepted", tc.name)
			continue
		}
		if got := err.Error(); got != prefix+tc.msg+suffix {
			t.Errorf("%s: message\n%s\nwant\n%s", tc.name, got, prefix+tc.msg+suffix)
		}
	}
}

// TestFinalMemoryCoversTouchedPages: the final-memory check compares
// every word of every page either machine touched, not only the words the
// reference wrote. A core whose memory differs from the reference's at
// one word of a touched page, a word neither the data image nor any
// store wrote, must fail with the pinned message.
func TestFinalMemoryCoversTouchedPages(t *testing.T) {
	cs := Case{Seed: 99, Mask: FeatAll}
	cfg := ConfigForCase(cs)
	kind := core.KindBaseline
	prog := Generate(cs)
	want, sim, err := reference(cs, prog)
	if err != nil {
		t.Fatal(err)
	}
	cc := newCaseCheck(cs, cfg, prog, want, sim)
	c := new(core.Core)
	if err := cc.check(c, kind); err != nil {
		t.Fatalf("unaltered core: %v", err)
	}

	// A word in the alias buffer's page, past the buffer.
	addr := uint64(aliasBase + 8*aliasWords + 8*100)
	for _, seg := range prog.Data {
		if addr >= seg.Addr && addr < seg.Addr+8*uint64(len(seg.Words)) {
			t.Fatalf("%#x is in the data image", addr)
		}
	}
	for _, rec := range want {
		if isa.ClassOf(rec.Inst.Op) == isa.ClassStore && rec.Addr == addr {
			t.Fatalf("the reference stores to %#x", addr)
		}
	}
	c.Memory().Write(addr, 0xbad)
	msg := fmt.Sprintf("diffsim: case %v on %s/%s: final M[%#x] = 0xbad, reference has 0x0; replay: %s",
		cs, cfg.Name, kind, addr, cs.ReplayCommand())
	if err := cc.finalMemory(c, kind); err == nil || err.Error() != msg {
		t.Errorf("final memory check: %v\nwant %s", err, msg)
	}
}

// TestCampaignAllocs pins what recycling the reference saves a fuzz
// campaign. Once a first campaign has filled the pools, a 100-case
// campaign at parallelism 1 allocates per case what the generated
// program, the six schemes' observers and the check's closures need, not
// a commit stream: perCase is half the mean size of the cases' reference
// streams, which the oracle appended into a fresh slice, at up to twice
// that size, for every case before the stream was pooled. caseBytes caps
// it further: a case measured 10.2 kB while Generate grew each program's
// instruction slice by doubling and rebuilt the configuration roster,
// and 8.4 kB once the slice is reserved at genInsts (4 kB) and the roster
// is copied once.
func TestCampaignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const cases = 100
	streamBytes := 0
	for i := range cases {
		want, sim, err := reference(CaseForIndex(1, i), Generate(CaseForIndex(1, i)))
		if err != nil {
			t.Fatal(err)
		}
		streamBytes += len(want) * int(unsafe.Sizeof(isa.Commit{}))
		release(want, sim)
	}
	const caseBytes = 9 << 10
	perCase := min(uint64(streamBytes/cases/2), caseBytes)

	run := func() {
		if err := Campaign(context.Background(), 1, cases, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// The best of three campaigns: a collection in mid-campaign empties
	// the pools.
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if got := best / cases; got > perCase {
		t.Errorf("Campaign allocated %d bytes a case, want at most %d", got, perCase)
	}
	t.Logf("%d bytes a case; bound %d", best/cases, perCase)
}
