package harness

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func sessionOptions() Options {
	o := DefaultOptions()
	o.WarmupCycles = 1_000
	o.MeasureCycles = 3_000
	return o
}

// diskStack is the standard persistent stack: a memory LRU over an
// on-disk store in dir.
func diskStack(dir string) (CellCache, error) {
	disk, err := NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	return NewTieredCache(NewMemoryCache(0), disk), nil
}

func sessionBenches(t *testing.T, names ...string) []workloads.Profile {
	t.Helper()
	var out []workloads.Profile
	for _, name := range names {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestSessionCellAccounting: overlapping matrix requests within one
// session must be served from the cache, with hits and simulations
// accounted cell by cell.
func TestSessionCellAccounting(t *testing.T) {
	ctx := context.Background()
	s := NewSession(SessionConfig{Options: sessionOptions()})
	ns := len(core.SchemeKinds())

	mega := []core.Config{core.MegaConfig()}
	if _, err := s.Matrix(ctx, MatrixSpec{Name: "a", Configs: mega,
		Benches: sessionBenches(t, "505.mcf")}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Cells != ns || st.Simulated != ns || st.Hits != 0 {
		t.Fatalf("after first matrix: %+v, want %d simulated cells", st, ns)
	}
	if st.SimCycles == 0 {
		t.Error("simulated cycles not accounted")
	}

	// A superset spec re-hits the shared cells and simulates only the new
	// benchmark column.
	if _, err := s.Matrix(ctx, MatrixSpec{Name: "b", Configs: mega,
		Benches: sessionBenches(t, "505.mcf", "525.x264")}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Cells != 3*ns || st.Simulated != 2*ns || st.Hits != ns {
		t.Errorf("after superset matrix: %+v, want %d hits / %d simulated", st, ns, 2*ns)
	}

	// An identical spec under a different name is memoized at the matrix
	// layer: no new cell requests at all.
	if _, err := s.Matrix(ctx, MatrixSpec{Name: "b2", Configs: mega,
		Benches: sessionBenches(t, "505.mcf", "525.x264")}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != st {
		t.Errorf("re-requesting an assembled matrix changed cell stats: %+v -> %+v", st, got)
	}
}

// TestSessionMatrixMemo: the session reuses an assembled matrix for a
// spec equal to its own by value, even one built from fresh slices, and
// assembles a new one when a Profile field, the scheme order or a
// configuration differs. The matrix keeps its own copies of the axes, so
// a caller that changes its spec's slices afterwards changes neither.
func TestSessionMatrixMemo(t *testing.T) {
	ctx := context.Background()
	s := NewSession(SessionConfig{Options: sessionOptions()})
	spec := func() MatrixSpec {
		return MatrixSpec{Name: "memo", Configs: []core.Config{core.SmallConfig()},
			Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA}, Benches: sessionBenches(t, "505.mcf")}
	}
	matrix := func(spec MatrixSpec) *Matrix {
		t.Helper()
		m, err := s.Matrix(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	reused := spec()
	first := matrix(reused)
	if matrix(spec()) != first {
		t.Error("a spec equal by value, built from fresh slices, assembled a new matrix")
	}
	profile, order, config := spec(), spec(), spec()
	profile.Benches[0].Iters++
	slices.Reverse(order.Schemes)
	config.Configs[0] = core.MediumConfig()
	for what, sp := range map[string]MatrixSpec{"a Profile field": profile, "the scheme order": order, "a configuration": config} {
		if matrix(sp) == first {
			t.Errorf("a spec differing in %s reused the assembled matrix", what)
		}
	}
	reused.Benches[0].Iters++
	if first.Benches[0] != spec().Benches[0] || matrix(spec()) != first {
		t.Error("changing a requested spec's slice changed the assembled matrix")
	}
}

// TestSessionWarmDiskCacheZeroSimulation: a second session over the same
// disk cache — a fresh process, in effect — must answer without running
// the simulator at all, with byte-identical figure text.
func TestSessionWarmDiskCacheZeroSimulation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := MatrixSpec{Name: "warm", Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
		Benches: sessionBenches(t, "505.mcf", "525.x264")}

	open := func() *Session {
		cache, err := diskStack(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewSession(SessionConfig{Options: sessionOptions(), Cache: cache})
	}

	cold := open()
	m1, err := cold.Matrix(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Simulated != st.Cells || st.Hits != 0 {
		t.Fatalf("cold session: %+v, want all simulated", st)
	}

	warm := open()
	m2, err := warm.Matrix(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Simulated != 0 || st.SimCycles != 0 {
		t.Errorf("warm session simulated %d cells / %d cycles, want zero", st.Simulated, st.SimCycles)
	}
	if st.Hits != st.Cells || st.Cells == 0 {
		t.Errorf("warm session: %+v, want all hits", st)
	}
	for _, fig := range []struct{ name, a, b string }{
		{"Figure6", Figure6(m1), Figure6(m2)},
		{"Figure7", Figure7(m1), Figure7(m2)},
		{"Table1", Table1(m1), Table1(m2)},
	} {
		if fig.a != fig.b {
			t.Errorf("%s differs between cold and warm sessions:\n--- cold ---\n%s\n--- warm ---\n%s",
				fig.name, fig.a, fig.b)
		}
	}
}

// TestSessionInvalidation: a version-stamp bump or an Options change must
// orphan persisted entries — stale results are re-simulated, never
// served.
func TestSessionInvalidation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := MatrixSpec{Name: "inv", Configs: []core.Config{core.MegaConfig()},
		Benches: sessionBenches(t, "505.mcf")}

	run := func(version string, opts Options) SessionStats {
		cache, err := diskStack(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(SessionConfig{Options: opts, Cache: cache, Version: version})
		if _, err := s.Matrix(ctx, spec); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	if st := run("v1", sessionOptions()); st.Simulated != st.Cells {
		t.Fatalf("first run: %+v, want all simulated", st)
	}
	if st := run("v1", sessionOptions()); st.Hits != st.Cells {
		t.Errorf("same version+options: %+v, want all hits", st)
	}
	if st := run("v2", sessionOptions()); st.Simulated != st.Cells {
		t.Errorf("bumped version served stale cells: %+v", st)
	}
	longer := sessionOptions()
	longer.MeasureCycles += 1_000
	if st := run("v1", longer); st.Simulated != st.Cells {
		t.Errorf("changed options served stale cells: %+v", st)
	}
	// And the original keys are still intact afterwards.
	if st := run("v1", sessionOptions()); st.Hits != st.Cells {
		t.Errorf("original version+options lost its entries: %+v", st)
	}
}

// TestSessionStreamDeterminism: RunCells' callback delivers every cell
// exactly once, and the cell set — like the matrix the session assembles
// from the same cells — is identical at any parallelism.
func TestSessionStreamDeterminism(t *testing.T) {
	ctx := context.Background()
	spec := MatrixSpec{Name: "stream", Configs: []core.Config{core.SmallConfig(), core.MegaConfig()},
		Benches: sessionBenches(t, "503.bwaves", "505.mcf", "525.x264")}

	type delivery struct {
		key string
		ipc float64
		sim bool
	}
	collect := func(parallelism int) ([]delivery, *Matrix) {
		opts := sessionOptions()
		opts.Parallelism = parallelism
		s := NewSession(SessionConfig{Options: opts})
		var mu sync.Mutex
		var got []delivery
		jobs := enumerateJobs(spec.Configs, s.Schemes(), spec.Benches)
		if _, err := s.engine.RunCells(ctx, jobs, opts, func(r CellResult) {
			mu.Lock()
			got = append(got, delivery{key: r.Key, ipc: r.Run.IPC, sim: !r.Cached})
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		m, err := s.Matrix(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Simulated != len(jobs) {
			t.Fatalf("matrix re-simulated delivered cells: %+v", st)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].key < got[j].key })
		return got, m
	}

	seq, mseq := collect(1)
	par, mpar := collect(8)
	if len(seq) != 2*len(core.SchemeKinds())*3 {
		t.Fatalf("stream delivered %d cells, want %d", len(seq), 2*len(core.SchemeKinds())*3)
	}
	for i := range seq {
		if i > 0 && seq[i].key == seq[i-1].key {
			t.Errorf("cell %s delivered twice", seq[i].key)
		}
		if seq[i] != par[i] {
			t.Errorf("stream diverged at %d: seq %+v, par %+v", i, seq[i], par[i])
		}
	}
	if Figure6(mseq) != Figure6(mpar) {
		t.Error("figures differ between sequential and parallel sessions")
	}
}

// TestRunCellsCallbackIsolation: each RunCells call owns its callback, so
// one whose callback blocks stalls only itself. A second call on the same
// engine, for the same key or a different one, returns while the first is
// still blocked.
func TestRunCellsCallbackIsolation(t *testing.T) {
	e := NewEngine(NewMemoryCache(0), "test/v1")
	opts := sessionOptions()
	benches := sessionBenches(t, "505.mcf", "503.bwaves")
	blocked := CellJob{Config: core.SmallConfig(), Scheme: core.KindBaseline, Bench: benches[0]}
	other := CellJob{Config: core.SmallConfig(), Scheme: core.KindBaseline, Bench: benches[1]}

	entered, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := e.RunCells(context.Background(), []CellJob{blocked}, opts, func(CellResult) {
			close(entered)
			<-release
		})
		first <- err
	}()
	<-entered
	defer close(release)

	for _, job := range []CellJob{blocked, other} {
		second := make(chan error, 1)
		go func() {
			_, err := e.RunCells(context.Background(), []CellJob{job}, opts, func(CellResult) {})
			second <- err
		}()
		select {
		case err := <-second:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("RunCells(%s) stalled behind another call's blocked callback", job.Bench.Name)
		}
	}
	select {
	case err := <-first:
		t.Fatalf("first RunCells returned (err %v) while its callback was blocked", err)
	default:
	}
}

// TestSessionExperimentCellAccounting is the laziness acceptance check:
// fig6 simulates exactly the Boom matrix cells (4 configs × schemes × 22
// benchmarks) and nothing else; table5 adds only the gem5 cells; the
// analytical experiments add none.
func TestSessionExperimentCellAccounting(t *testing.T) {
	ctx := context.Background()
	s := NewSession(SessionConfig{Options: sessionOptions()})
	ns := len(core.SchemeKinds())
	boomCells := 4 * ns * len(workloads.Suite())
	gem5Cells := 2 * ns * len(workloads.Gem5Comparable())

	if _, err := s.Experiment(ctx, "fig6"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != boomCells {
		t.Errorf("fig6 simulated %d cells, want exactly the %d Boom cells", st.Simulated, boomCells)
	}

	// The other Boom-only experiments re-use the same matrix: no new cells.
	for _, id := range []string{"table1", "fig1", "fig7", "fig8", "fig10", "table3"} {
		if _, err := s.Experiment(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Simulated != boomCells {
		t.Errorf("Boom-only experiments re-simulated: %d cells, want %d", st.Simulated, boomCells)
	}

	// Analytical experiments cost nothing.
	for _, id := range []string{"fig9", "table4"} {
		if _, err := s.Experiment(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Cells != boomCells {
		t.Errorf("analytical experiments requested cells: %+v", st)
	}

	// table5 adds exactly the gem5 matrix.
	if _, err := s.Experiment(ctx, "table5"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != boomCells+gem5Cells {
		t.Errorf("table5 simulated %d cells total, want %d", st.Simulated, boomCells+gem5Cells)
	}

	if _, err := s.Experiment(ctx, "fig99"); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: err = %v", err)
	}
}

// TestEngineSingleFlight: requests for one key — concurrent (coalesced
// in flight) or sequential (cache-served) — run the simulator exactly
// once.
func TestEngineSingleFlight(t *testing.T) {
	e := NewEngine(NewMemoryCache(0), "test/v1")
	job := CellJob{Config: core.MegaConfig(), Scheme: core.KindBaseline,
		Bench: sessionBenches(t, "505.mcf")[0]}
	opts := sessionOptions()

	const callers = 8
	var wg sync.WaitGroup
	runs := make([]Run, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := e.RunCells(context.Background(), []CellJob{job}, opts, nil)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = rs[0]
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Simulated != 1 || st.Hits != callers-1 || st.Cells != callers {
		t.Errorf("single-flight stats %+v, want 1 simulated / %d hits", st, callers-1)
	}
	for i := 1; i < callers; i++ {
		if runs[i] != runs[0] {
			t.Errorf("caller %d got a different run", i)
		}
	}
}

// gatedCache is a MemoryCache whose first Get waits for release, after
// announcing itself on entered.
type gatedCache struct {
	*MemoryCache
	entered, release chan struct{}
	once             sync.Once
}

func (c *gatedCache) Get(key string) (Run, bool, error) {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	return c.MemoryCache.Get(key)
}

// TestEngineWaitersRetryFailedHolder: requests that join an in-flight
// resolution whose holder then fails do not inherit the failure. They
// retry: one of them simulates the cell, once, and the others are served
// its run.
func TestEngineWaitersRetryFailedHolder(t *testing.T) {
	cache := &gatedCache{MemoryCache: NewMemoryCache(0),
		entered: make(chan struct{}), release: make(chan struct{})}
	e := NewEngine(cache, "test/v1")
	job := CellJob{Config: core.MegaConfig(), Scheme: core.KindBaseline,
		Bench: sessionBenches(t, "505.mcf")[0]}
	opts := sessionOptions()
	key := CellFingerprint("test/v1", job.Config, job.Scheme, job.Bench, opts)

	// The holder's program halts inside the window, so its cell fails.
	short := job.Bench
	short.Iters = 1
	holder := make(chan error, 1)
	go func() {
		_, err := e.cell(key, job, opts, func() *isa.Program { return short.Build(1) })
		holder <- err
	}()
	<-cache.entered // the holder has claimed the key and waits in its cache read

	const waiters = 4
	type result struct {
		run Run
		err error
	}
	results := make(chan result, waiters)
	for range waiters {
		go func() {
			res, err := e.cell(key, job, opts, func() *isa.Program { return job.Bench.Build(1) })
			results <- result{res.Run, err}
		}()
	}
	// Wait until a waiter has joined, making the key's flight. The others
	// join it or come after the holder; either way each must get the run.
	for joined := false; !joined; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		joined = e.inflight[key] != nil
		e.mu.Unlock()
	}
	close(cache.release)

	if err := <-holder; err == nil {
		t.Fatal("the holder's halting program did not fail its cell")
	}
	want, err := RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	for range waiters {
		r := <-results
		if r.err != nil {
			t.Fatalf("a waiter inherited its holder's failure: %v", r.err)
		}
		if r.run != want {
			t.Errorf("a waiter got\n  %+v\nwant\n  %+v", r.run, want)
		}
	}
	if st := e.Stats(); st.Simulated != 1 || st.Cells != waiters || st.Hits != waiters-1 {
		t.Errorf("stats %+v, want %d cells: 1 simulated, %d hits", st, waiters, waiters-1)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.inflight) != 0 {
		t.Errorf("%d keys still in flight", len(e.inflight))
	}
}

// TestStreamCellsRepeatedJobs: a spec whose axes name cells more than
// once streams each distinct cell once. start gets the number of distinct
// keys, each is handed every key exactly once, and every cell's run is
// the one RunCells resolves for it.
func TestStreamCellsRepeatedJobs(t *testing.T) {
	benches := sessionBenches(t, "505.mcf", "541.leela")
	distinct := enumerateJobs([]core.Config{core.MegaConfig()},
		[]core.SchemeKind{core.KindBaseline, core.KindNDA}, benches)
	spec := MatrixSpec{
		Name:    "repeated",
		Configs: []core.Config{core.MegaConfig(), core.MegaConfig()},
		Schemes: []core.SchemeKind{core.KindNDA, core.KindBaseline, core.KindNDA},
		Benches: append(slices.Clone(benches), benches[1]),
	}
	opts := sessionOptions()
	e := NewEngine(NewMemoryCache(0), "test/v1")
	want, err := NewEngine(nil, "test/v1").RunCells(context.Background(), distinct, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]Run)
	for i, job := range distinct {
		wantByKey[CellFingerprint("test/v1", job.Config, job.Scheme, job.Bench, opts)] = want[i]
	}

	var mu sync.Mutex
	started := -1
	got := make(map[string]int)
	err = e.StreamCells(context.Background(), spec, opts, func(cells int) {
		started = cells
	}, func(res CellResult) {
		mu.Lock()
		defer mu.Unlock()
		got[res.Key]++
		if res.Run != wantByKey[res.Key] {
			t.Errorf("cell %s: run\n  %+v\nwant\n  %+v", res.Key, res.Run, wantByKey[res.Key])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if started != len(distinct) {
		t.Errorf("start got %d cells, want %d", started, len(distinct))
	}
	if len(got) != len(distinct) {
		t.Errorf("streamed %d keys, want %d", len(got), len(distinct))
	}
	for key, n := range got {
		if _, ok := wantByKey[key]; !ok {
			t.Errorf("streamed unknown key %s", key)
		}
		if n != 1 {
			t.Errorf("key %s streamed %d times", key, n)
		}
	}
	if st := e.Stats(); st.Simulated != len(distinct) {
		t.Errorf("simulated %d cells, want %d", st.Simulated, len(distinct))
	}
}
