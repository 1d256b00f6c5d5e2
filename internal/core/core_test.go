package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
)

// runChecked runs prog on a core and verifies every committed instruction
// against the in-order architectural reference simulator. It returns the
// result for further assertions.
func runChecked(t *testing.T, cfg Config, kind SchemeKind, prog *isa.Program, lim RunLimits) Result {
	t.Helper()
	oracle := isa.NewArchSim(prog)
	c := MustNew(cfg, kind, prog)
	var nChecked uint64
	c.CommitHook = func(got isa.Commit) {
		want := oracle.Step()
		nChecked++
		if got.PC != want.PC || got.Inst != want.Inst {
			t.Fatalf("%s/%s: commit #%d: stream diverged: got pc=%d %v, want pc=%d %v",
				cfg.Name, kind, nChecked, got.PC, got.Inst, want.PC, want.Inst)
		}
		if got != want {
			t.Fatalf("%s/%s: commit #%d (pc=%d %v): got %+v, want %+v",
				cfg.Name, kind, nChecked, got.PC, got.Inst, got, want)
		}
	}
	res, err := c.Run(lim)
	if err != nil {
		t.Fatalf("%s/%s: %v\n%s", cfg.Name, kind, err, c.Stats)
	}
	return res
}

func sumProgram(n int64) *isa.Program {
	b := isa.NewBuilder("sum")
	b.Li(isa.X5, 0)
	b.Li(isa.X6, n)
	b.Li(isa.X10, 0)
	b.Label("loop")
	b.Add(isa.X10, isa.X10, isa.X5)
	b.Addi(isa.X5, isa.X5, 1)
	b.Blt(isa.X5, isa.X6, "loop")
	b.Halt()
	return b.MustBuild()
}

// storeLoadProgram exercises store-to-load forwarding and memory-order
// speculation: stores and immediately dependent loads to a tiny region.
func storeLoadProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("storeload")
	const base = 0x2000
	b.Li(isa.X5, base)
	b.Li(isa.X6, 0)     // i
	b.Li(isa.X7, iters) // limit
	b.Li(isa.X10, 0)    // acc
	b.Label("loop")
	b.Andi(isa.X8, isa.X6, 7)
	b.Slli(isa.X8, isa.X8, 3)
	b.Add(isa.X8, isa.X8, isa.X5) // addr = base + 8*(i&7)
	b.Sd(isa.X6, isa.X8, 0)       // M[addr] = i
	b.Ld(isa.X9, isa.X8, 0)       // forward
	b.Add(isa.X10, isa.X10, isa.X9)
	b.Addi(isa.X6, isa.X6, 1)
	b.Blt(isa.X6, isa.X7, "loop")
	b.Halt()
	return b.MustBuild()
}

// pointerChaseProgram builds a shuffled linked list and walks it: a
// long-latency dependent-load chain.
func pointerChaseProgram(nodes, hops int) *isa.Program {
	b := isa.NewBuilder("chase")
	const base = 0x10000
	// next[i] = (i*7+1) mod nodes, a full cycle when gcd(7,nodes)=1.
	words := make([]uint64, nodes)
	for i := range words {
		words[i] = base + uint64((i*7+1)%nodes)*8
	}
	b.Data(base, words)
	b.Li(isa.X5, base)
	b.Li(isa.X6, 0)
	b.Li(isa.X7, int64(hops))
	b.Label("loop")
	b.Ld(isa.X5, isa.X5, 0)
	b.Addi(isa.X6, isa.X6, 1)
	b.Blt(isa.X6, isa.X7, "loop")
	b.Halt()
	return b.MustBuild()
}

// branchyProgram mixes data-dependent branches over loaded values.
func branchyProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("branchy")
	const base = 0x3000
	words := make([]uint64, 64)
	for i := range words {
		words[i] = uint64(i*i*2654435761) >> 7
	}
	b.Data(base, words)
	b.Li(isa.X5, base)
	b.Li(isa.X6, 0)
	b.Li(isa.X7, iters)
	b.Li(isa.X10, 0)
	b.Label("loop")
	b.Andi(isa.X8, isa.X6, 63)
	b.Slli(isa.X8, isa.X8, 3)
	b.Add(isa.X8, isa.X8, isa.X5)
	b.Ld(isa.X9, isa.X8, 0)
	b.Andi(isa.X11, isa.X9, 1)
	b.Beq(isa.X11, isa.X0, "even")
	b.Addi(isa.X10, isa.X10, 3)
	b.J("next")
	b.Label("even")
	b.Addi(isa.X10, isa.X10, 1)
	b.Label("next")
	b.Addi(isa.X6, isa.X6, 1)
	b.Blt(isa.X6, isa.X7, "loop")
	b.Halt()
	return b.MustBuild()
}

func callProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("calls")
	b.Li(isa.X6, 0)
	b.Li(isa.X7, iters)
	b.Li(isa.X10, 0)
	b.Label("loop")
	b.Call("addone")
	b.Addi(isa.X6, isa.X6, 1)
	b.Blt(isa.X6, isa.X7, "loop")
	b.Halt()
	b.Label("addone")
	b.Addi(isa.X10, isa.X10, 1)
	b.Ret()
	return b.MustBuild()
}

func allSchemes() []SchemeKind { return SchemeKinds() }

func TestCoreMatchesOracleOnKernels(t *testing.T) {
	progs := []*isa.Program{
		sumProgram(200),
		storeLoadProgram(150),
		pointerChaseProgram(64, 300),
		branchyProgram(200),
		callProgram(100),
	}
	for _, cfg := range Configs() {
		for _, kind := range allSchemes() {
			for _, p := range progs {
				t.Run(fmt.Sprintf("%s/%s/%s", cfg.Name, kind, p.Name), func(t *testing.T) {
					res := runChecked(t, cfg, kind, p, RunLimits{MaxCycles: 2_000_000})
					if !res.Halted {
						t.Fatalf("did not halt: %+v", res)
					}
				})
			}
		}
	}
}

func TestCoreFinalArchState(t *testing.T) {
	p := sumProgram(100)
	oracle := isa.NewArchSim(p)
	if _, err := oracle.Run(10_000); err != nil {
		t.Fatal(err)
	}
	for _, kind := range allSchemes() {
		c := MustNew(MegaConfig(), kind, p)
		res, err := c.Run(RunLimits{MaxCycles: 1_000_000})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Insts != oracle.InstCount() {
			t.Errorf("%s: committed %d, oracle %d", kind, res.Insts, oracle.InstCount())
		}
		// The committed value of x10 is visible via the committed RAT.
		got := c.prf.read(c.arat[isa.X10])
		if got != oracle.Reg(isa.X10) {
			t.Errorf("%s: x10 = %d, want %d", kind, got, oracle.Reg(isa.X10))
		}
	}
}

func TestCoreMemoryStateMatchesOracle(t *testing.T) {
	p := storeLoadProgram(100)
	oracle := isa.NewArchSim(p)
	if _, err := oracle.Run(100_000); err != nil {
		t.Fatal(err)
	}
	for _, kind := range allSchemes() {
		c := MustNew(MegaConfig(), kind, p)
		if _, err := c.Run(RunLimits{MaxCycles: 1_000_000}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := uint64(0); i < 8; i++ {
			addr := 0x2000 + i*8
			if got, want := c.Memory().Read(addr), oracle.Mem(addr); got != want {
				t.Errorf("%s: mem[%#x] = %d, want %d", kind, addr, got, want)
			}
		}
	}
}

// TestSchemeIPCOrdering checks the paper's first-order performance facts on
// a memory-plus-compute workload: baseline >= STT-Issue and STT variants
// >= NDA is not universal per benchmark, but baseline must dominate all
// secure schemes, and every scheme must still make progress.
func TestSchemeIPCOrdering(t *testing.T) {
	p := branchyProgram(400)
	ipc := map[SchemeKind]float64{}
	for _, kind := range allSchemes() {
		c := MustNew(MegaConfig(), kind, p)
		res, err := c.Run(RunLimits{MaxCycles: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ipc[kind] = res.IPC
	}
	if ipc[KindBaseline] < ipc[KindSTTRename] || ipc[KindBaseline] < ipc[KindSTTIssue] || ipc[KindBaseline] < ipc[KindNDA] {
		t.Errorf("baseline must dominate secure schemes: %v", ipc)
	}
	for k, v := range ipc {
		if v <= 0 {
			t.Errorf("%s: IPC %v", k, v)
		}
	}
}

// dependentChaseProgram is the Spectre-shaped kernel: a long-latency
// pointer chase over a large shuffled list feeds a data-dependent branch
// (a slow-resolving C-shadow), under which a small, fast (L1-resident)
// load chain executes speculatively. The fast chain's dependent load and
// branch have ready operands long before the slow shadow resolves, so STT
// must block/nop them and NDA must withhold the fast loads' broadcasts.
func dependentChaseProgram(hops int) *isa.Program {
	b := isa.NewBuilder("depchase")
	const big = 0x100000
	const small = 0x8000
	const bigNodes = 4096 // 32 KiB footprint per lap x sparse layout: misses
	bigWords := make([]uint64, bigNodes*8)
	for i := 0; i < bigNodes; i++ {
		next := (i*2654435761 + 1) % bigNodes // pseudo-random permutation walk
		bigWords[i*8] = big + uint64(next)*64
	}
	b.Data(big, bigWords)
	smallWords := make([]uint64, 64)
	for i := range smallWords {
		smallWords[i] = small + uint64((i*7+1)%64)*8
	}
	b.Data(small, smallWords)

	b.Li(isa.X20, big)  // slow chase pointer
	b.Li(isa.X5, small) // fast chase pointer
	b.Li(isa.X6, 0)     // i
	b.Li(isa.X7, int64(hops))
	b.Label("loop")
	b.Ld(isa.X8, isa.X20, 0)      // slow load (cache miss)
	b.Beq(isa.X8, isa.X0, "done") // slow-resolving shadow over the rest
	b.Add(isa.X20, isa.X8, isa.X0)
	b.Ld(isa.X9, isa.X5, 0)        // fast speculative load (taint root)
	b.Ld(isa.X10, isa.X9, 0)       // dependent load: tainted transmitter
	b.Add(isa.X5, isa.X10, isa.X0) // keep the fast chain live
	b.Addi(isa.X6, isa.X6, 1)
	b.Blt(isa.X6, isa.X7, "loop")
	b.Label("done")
	b.Halt()
	return b.MustBuild()
}

func TestSTTBlocksTaintedTransmitters(t *testing.T) {
	p := dependentChaseProgram(300)

	cRen := MustNew(MegaConfig(), KindSTTRename, p)
	if _, err := cRen.Run(RunLimits{MaxCycles: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if cRen.Stats.TaintBlockedSelects == 0 {
		t.Error("STT-Rename recorded no taint-blocked selections")
	}
	if cRen.Stats.TaintedRenames == 0 {
		t.Error("STT-Rename recorded no tainted renames")
	}

	cIss := MustNew(MegaConfig(), KindSTTIssue, p)
	if _, err := cIss.Run(RunLimits{MaxCycles: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if cIss.Stats.TaintNopSlots == 0 {
		t.Error("STT-Issue wasted no issue slots (nops expected)")
	}
}

func TestNDADelaysBroadcasts(t *testing.T) {
	p := dependentChaseProgram(200)
	c := MustNew(MegaConfig(), KindNDA, p)
	if _, err := c.Run(RunLimits{MaxCycles: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.DelayedBroadcasts == 0 {
		t.Error("NDA recorded no delayed broadcasts")
	}
}

// TestNDAIgnoresSpecWakeup pins Section 5.1's design: NDA removes the
// speculative L1-hit wake-up logic, so Config.SpecWakeup cannot change
// anything it does — not the commit stream, not one statistic. The
// baseline runs the same pair of configurations and must differ, which
// shows the knob reaches the pipeline on this kernel.
func TestNDAIgnoresSpecWakeup(t *testing.T) {
	run := func(kind SchemeKind, specWakeup bool) (Result, []isa.Commit) {
		cfg := MegaConfig()
		cfg.SpecWakeup = specWakeup
		c := MustNew(cfg, kind, dependentChaseProgram(200))
		var commits []isa.Commit
		c.CommitHook = func(rec isa.Commit) { commits = append(commits, rec) }
		res, err := c.Run(RunLimits{MaxCycles: 20_000})
		if err != nil {
			t.Fatalf("%v/SpecWakeup=%v: %v", kind, specWakeup, err)
		}
		return res, commits
	}
	on, onCommits := run(KindNDA, true)
	off, offCommits := run(KindNDA, false)
	if !slices.Equal(onCommits, offCommits) {
		t.Errorf("NDA commit streams differ with SpecWakeup: %d vs %d commits", len(onCommits), len(offCommits))
	}
	if on != off {
		t.Errorf("NDA results differ with SpecWakeup:\non:  %+v\noff: %+v", on, off)
	}
	baseOn, _ := run(KindBaseline, true)
	baseOff, _ := run(KindBaseline, false)
	if baseOn == baseOff {
		t.Error("baseline results identical with and without SpecWakeup: the test cannot bite")
	}
}

func TestBaselineSpeculatesLoads(t *testing.T) {
	p := branchyProgram(300)
	c := MustNew(MegaConfig(), KindBaseline, p)
	if _, err := c.Run(RunLimits{MaxCycles: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.SpecLoadsExecuted == 0 {
		t.Error("baseline executed no speculative loads; speculation machinery inert")
	}
	if c.Stats.Mispredicts == 0 {
		t.Error("branchy workload produced no mispredictions")
	}
}

func TestForwardingAndViolations(t *testing.T) {
	p := storeLoadProgram(200)
	c := MustNew(MegaConfig(), KindBaseline, p)
	if _, err := c.Run(RunLimits{MaxCycles: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.FwdHits == 0 {
		t.Error("no store-to-load forwards on a forwarding-heavy kernel")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := MegaConfig()
	bad.Width = 0
	if _, err := New(bad, KindBaseline, sumProgram(1)); err == nil {
		t.Error("invalid config accepted")
	}
	// The bounds admit the memory-port ablation on Mega and the largest
	// configuration they state, and reject one step past each bound.
	for _, ports := range []int{1, 2, 4} {
		cfg := MegaConfig()
		cfg.MemPorts = ports
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d ports: %v", ports, err)
		}
	}
	edge := Config{Name: "edge", Width: 8, MemPorts: 8, ROBSize: 512, MaxBranches: 64}
	if _, err := New(edge, KindSTTRename, sumProgram(1)); err != nil {
		t.Errorf("largest bounded config: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"width":       func(c *Config) { c.Width++ },
		"ports":       func(c *Config) { c.Width-- },
		"no ports":    func(c *Config) { c.MemPorts = 0 },
		"rob":         func(c *Config) { c.ROBSize++ },
		"small rob":   func(c *Config) { c.ROBSize = 2*c.Width - 1 },
		"branches":    func(c *Config) { c.MaxBranches++ },
		"no branches": func(c *Config) { c.MaxBranches = 0 },
	} {
		c := edge
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: out-of-bounds config accepted: %+v", name, c)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "large", "mega", "gem5-stt", "gem5-nda"} {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
	}
	if _, err := ConfigByName("giga"); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestSchemeKindByName(t *testing.T) {
	for _, k := range SchemeKinds() {
		got, ok := SchemeKindByName(k.String())
		if !ok || got != k {
			t.Errorf("round trip failed for %v", k)
		}
	}
	if _, ok := SchemeKindByName("specshield"); ok {
		t.Error("unknown scheme accepted")
	}
}

func TestDeterminism(t *testing.T) {
	p := branchyProgram(300)
	run := func() (uint64, uint64) {
		c := MustNew(MegaConfig(), KindSTTIssue, p)
		res, err := c.Run(RunLimits{MaxCycles: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, res.Insts
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestROBRing(t *testing.T) {
	a := newUopArena()
	r := newROB(4, a)
	if !r.empty() || r.full() {
		t.Fatal("fresh ROB state wrong")
	}
	for i := uint64(1); i <= 4; i++ {
		r.push(mkUop(a, i, uop{}))
	}
	if !r.full() {
		t.Fatal("ROB should be full")
	}
	n := r.squashYoungerThan(2, func(u int32) { a.release(u) })
	if n != 2 || r.len() != 2 {
		t.Fatalf("squash removed %d, len %d", n, r.len())
	}
	if a.seq[r.pop()] != 1 || a.seq[r.pop()] != 2 {
		t.Fatal("pop order wrong after squash")
	}
	// Wrap-around behaviour.
	r.push(mkUop(a, 5, uop{}))
	r.push(mkUop(a, 6, uop{}))
	var seen []uint64
	r.forEach(func(u int32) bool { seen = append(seen, a.seq[u]); return true })
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 6 {
		t.Fatalf("forEach after wrap = %v", seen)
	}
}

func TestPhysRegFile(t *testing.T) {
	p := newPhysRegFile(40)
	if !p.readyBy(noReg, 0) {
		t.Error("noReg must always be ready")
	}
	if p.read(noReg) != 0 {
		t.Error("noReg must read zero")
	}
	if !p.readyBy(5, 0) {
		t.Error("initial architectural registers must be ready")
	}
	r := p.alloc()
	if p.readyBy(r, 1_000_000) {
		t.Error("fresh register must not be ready")
	}
	p.release(r)
	r2 := p.alloc()
	if r2 != r {
		t.Errorf("LIFO free list expected: got %d want %d", r2, r)
	}
	free := len(p.free)
	want := 40 - 32 - 1
	if free != want {
		t.Errorf("free count %d, want %d", free, want)
	}
}

func TestCheckpointFile(t *testing.T) {
	f := newCheckpointFile(2)
	a := f.alloc()
	b := f.alloc()
	if a < 0 || b < 0 || f.hasFree() {
		t.Fatal("allocation bookkeeping wrong")
	}
	if f.alloc() != -1 {
		t.Fatal("over-allocation allowed")
	}
	f.release(a)
	if !f.hasFree() {
		t.Fatal("release did not free")
	}
	f.releaseAll()
	if f.alloc() == -1 || f.alloc() == -1 {
		t.Fatal("releaseAll did not free everything")
	}
}
