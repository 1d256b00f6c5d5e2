package harness

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestRunCellsRecycledMatchesFresh: cells run on pooled cores, Reset
// from whatever cell a worker ran last, over recycled memory pages and a
// program shared by a benchmark's cells, must match cells run on a fresh
// core.New. The job list interleaves benchmarks with different data
// footprints across all six configuration rows (both Gem5Memory rows
// included, whose hierarchy differs) and all six schemes, and runs on two
// workers, so the race detector also checks the program the concurrent
// cores share.
func TestRunCellsRecycledMatchesFresh(t *testing.T) {
	configs := append(core.Configs(), core.Gem5STTConfig(), core.Gem5NDAConfig())
	benches := sessionBenches(t, "503.bwaves", "505.mcf", "548.exchange2")
	jobs := enumerateJobs(configs, core.SchemeKinds(), benches)
	opts := sessionOptions()
	opts.Parallelism = 2

	runs, err := NewEngine(nil, "test/v1").RunCells(context.Background(), jobs, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		c, err := core.New(job.Config, job.Scheme, job.Bench.Build(opts.Scale))
		if err != nil {
			t.Fatal(err)
		}
		want, err := measure(c, job.Bench.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs[i], want) {
			t.Errorf("%s/%s/%s: recycled run\n  %+v\nfresh run\n  %+v",
				job.Config.Name, job.Scheme, job.Bench.Name, runs[i], want)
		}
	}
}

// TestRunCellsAllocs pins what recycling saves a sweep. Once a first call
// has filled the core and page pools, a 24-cell RunCells (one proxy on
// the four BOOM rows under all six schemes, no cache) allocates the
// proxy's program once plus a little per cell; building each cell's core,
// data image and program afresh cost about 1.5 MB a cell.
func TestRunCellsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const perCell = 64 << 10 // bytes
	jobs := enumerateJobs(core.Configs(), core.SchemeKinds(), sessionBenches(t, "505.mcf"))
	opts := sessionOptions()
	opts.Parallelism = 1
	e := NewEngine(nil, "test/v1")
	run := func() {
		if _, err := e.RunCells(context.Background(), jobs, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// The best of three calls: a collection in mid-call empties the pools.
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if got := best / uint64(len(jobs)); got > perCell {
		t.Errorf("RunCells allocated %d bytes a cell, want at most %d", got, perCell)
	}
	t.Logf("%d bytes a cell", best/uint64(len(jobs)))
}

// TestWarmRunCellsAllocs: a warm RunCells over a MemoryCache makes no
// single-flight record per cell, since no request joins another's, and
// with no Progress set no progress line is formatted, so the only
// allocation a cell adds is its key. While every cell made a flight
// record and its done channel, and boxed its progress line's arguments
// with nobody listening, a warm cell cost 8 allocations.
func TestWarmRunCellsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	jobs := enumerateJobs(core.Configs(), core.SchemeKinds(), sessionBenches(t, "505.mcf"))
	twice := append(slices.Clone(jobs), jobs...)
	opts := sessionOptions()
	opts.Parallelism = 1 // no request joins another's flight
	e := NewEngine(NewMemoryCache(0), "test/v1")
	allocs := func(jobs []CellJob) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := e.RunCells(context.Background(), jobs, opts, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(jobs) // simulates every cell into the cache
	if st := e.Stats(); st.Simulated != len(jobs) {
		t.Fatalf("simulated %d cells, want %d", st.Simulated, len(jobs))
	}
	// The extra cells of the doubled list cost their share alone: the
	// call's fixed costs (keys slice, plan, pool) cancel out.
	perCell := (allocs(twice) - allocs(jobs)) / float64(len(jobs))
	if perCell > 1 {
		t.Errorf("a warm cell cost %.2f allocations, want at most 1 (its key)", perCell)
	}
	if st := e.Stats(); st.Simulated != len(jobs) {
		t.Errorf("warm calls simulated %d cells", st.Simulated-len(jobs))
	}
}

// TestDispatchPlan: RunCells dispatches jobs grouped by benchmark, the
// groups in order of first appearance and each group's jobs in job
// order; a group builds its program once, on first use, and drops it
// when its last job resolves.
func TestDispatchPlan(t *testing.T) {
	b := sessionBenches(t, "505.mcf", "503.bwaves")
	jobs := []CellJob{
		{Scheme: core.KindBaseline, Bench: b[0]},
		{Scheme: core.KindBaseline, Bench: b[1]},
		{Scheme: core.KindNDA, Bench: b[0]},
		{Scheme: core.KindNDA, Bench: b[1]},
		{Scheme: core.KindDoM, Bench: b[0]},
	}
	_, bench, nbench := cellKeys("test/v1", jobs, sessionOptions())
	order, progs := dispatchPlan(jobs, bench, nbench, 1)
	if want := []int{0, 2, 4, 1, 3}; !slices.Equal(order, want) {
		t.Errorf("dispatch order %v, want %v", order, want)
	}
	if progs[0] != progs[2] || progs[0] != progs[4] || progs[1] != progs[3] || progs[0] == progs[1] {
		t.Fatal("jobs are not grouped by benchmark")
	}
	g := progs[1]
	if g.prog != nil {
		t.Fatal("program built before any job asked for it")
	}
	p := g.get()
	if p == nil || p.Name != "503.bwaves" || g.get() != p {
		t.Fatalf("get built %v, then %p; want 503.bwaves once", p, g.get())
	}
	g.resolved()
	if g.prog == nil {
		t.Fatal("program dropped with one of its jobs still pending")
	}
	g.resolved()
	if g.prog != nil {
		t.Error("program kept after its last job resolved")
	}
}

// TestDispatchPlanAllocs: a plan is the same four allocations (the
// groups, the job-to-group table, the order and the counting sort's
// offsets) whether a call spans one benchmark or all 22 proxies, so an
// all-hit call pays nothing per benchmark for programs it never builds.
func TestDispatchPlanAllocs(t *testing.T) {
	for _, benches := range [][]workloads.Profile{sessionBenches(t, "505.mcf"), workloads.Suite()} {
		jobs := enumerateJobs(core.Configs(), core.SchemeKinds(), benches)
		_, bench, nbench := cellKeys("test/v1", jobs, sessionOptions())
		allocs := testing.AllocsPerRun(10, func() { dispatchPlan(jobs, bench, nbench, 1) })
		if allocs != 4 {
			t.Errorf("%d benchmarks: dispatchPlan made %v allocations, want 4", nbench, allocs)
		}
	}
}
