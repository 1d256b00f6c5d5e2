package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"time"

	sb "repro"
	"repro/internal/farm"
	"repro/internal/harness"
)

// env is what every workload shares: the inputs' seed, j, a scratch
// directory inside the checkout, this binary (for the fill child) and the
// expected table1 output.
type env struct {
	seed uint64
	par  int
	dir  string
	exe  string
	ref  reference
}

// A workload prepares a start state and runs passes against it. Each pass
// is one user-visible operation; the loop is closed (one pass at a time).
type workload interface {
	// setup brings the process to the workload's start state. It runs
	// several times per run; the last state is the one measured.
	setup(ctx context.Context) error
	// pass runs pass i and returns the duration of the operation alone
	// (set-up and output checks excluded). tr is nil outside traced runs;
	// with a tracer the pass records its layer spans.
	pass(ctx context.Context, i int, tr *tracer) (time.Duration, error)
	close()
}

// workloadByName maps each workload name to its constructor. Why each exists is
// in README.md and BENCHMARK.json.
var workloadByName = map[string]func(*env) workload{
	"table1-cold":      func(e *env) workload { return &table1Cold{env: e} },
	"table1-farm-warm": func(e *env) workload { return &table1FarmWarm{env: e} },
	"fuzz-oracle":      func(e *env) workload { return &fuzzOracle{env: e} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadByName))
	for n := range workloadByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, e *env) (workload, error) {
	mk, ok := workloadByName[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
	}
	return mk(e), nil
}

// timePass times op as pass i, as the root span of the pass when traced.
func timePass(tr *tracer, i int, op func() error) (time.Duration, error) {
	if tr != nil {
		tr.beginPass("pass", fmt.Sprintf("pass-%d", i))
		defer tr.endPass()
	}
	start := time.Now()
	err := op()
	return time.Since(start), err
}

// cacheStack opens the standard memory-over-disk or memory-over-farm cell
// cache. Untraced it is exactly sb.OpenCache; traced, each layer is
// wrapped with span recording, layered the way OpenCache layers them.
func cacheStack(dir, remote string, tr *tracer) (sb.CellCache, error) {
	if tr == nil {
		return sb.OpenCache(sb.CacheOptions{Dir: dir, Remote: remote, RemoteCompute: remote != ""})
	}
	var lower harness.CellCache
	name := "cache.remote"
	if remote != "" {
		lower = farm.NewHTTPCache(remote, farm.HTTPCacheOptions{Compute: true})
	} else {
		disk, err := harness.NewDiskCache(dir)
		if err != nil {
			return nil, err
		}
		lower, name = disk, "cache.disk"
	}
	return harness.NewTieredCache(
		tr.timed("cache.mem", harness.NewMemoryCache(0), false),
		tr.timed(name, lower, true),
	), nil
}

// table1Pass renders table1 through cache as pass i, then checks the
// output against the reference and the session's accounting with check.
func (e *env) table1Pass(ctx context.Context, i int, cache sb.CellCache, tr *tracer, check func(sb.SessionStats) error) (time.Duration, error) {
	var (
		text string
		s    *sb.Session
	)
	d, err := timePass(tr, i, func() (err error) {
		text, s, err = table1(ctx, cache)
		return err
	})
	if err != nil {
		return d, err
	}
	got, err := table1Summary(ctx, s, text)
	if err != nil {
		return d, err
	}
	if got != e.ref {
		return d, fmt.Errorf("table1 differs from the reference: got %+v, want %+v", got, e.ref)
	}
	st := s.Stats()
	if tr != nil {
		tr.sessionStats(st)
	}
	return d, check(st)
}

// fill runs the fill child: table1 simulated cold into a new store under
// the run directory, in its own process.
func (e *env) fill(ctx context.Context) (string, error) {
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, e.exe, "-fill", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("fill %s: %w", dir, err)
	}
	return dir, nil
}

// table1Cold is the first `shadowbinding -cache DIR -experiment table1`
// run: all 528 cells simulated and written to a fresh on-disk store.
type table1Cold struct {
	*env
}

// setup warms the process with a slice of table1 (the Mega baseline row,
// 22 cells) simulated into a fresh store, so the first timed pass does not
// pay first-touch costs the later ones skip.
func (w *table1Cold) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.dir, "setup-")
	if err != nil {
		return err
	}
	cache, err := sb.OpenCache(sb.CacheOptions{Dir: dir})
	if err != nil {
		return err
	}
	s := sb.NewSession(sb.SessionConfig{Options: options(), Cache: cache})
	_, err = s.Matrix(ctx, sb.MatrixSpec{
		Name:    "warm-up",
		Configs: []sb.Config{sb.MegaConfig()},
		Benches: sb.Benchmarks(),
		Schemes: []sb.Scheme{sb.Baseline},
	})
	return err
}

func (w *table1Cold) pass(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	dir, err := os.MkdirTemp(w.dir, "pass-")
	if err != nil {
		return 0, err
	}
	cache, err := cacheStack(dir, "", tr)
	if err != nil {
		return 0, err
	}
	return w.table1Pass(ctx, i, cache, tr, func(st sb.SessionStats) error {
		if st.Simulated != w.ref.Cells {
			return fmt.Errorf("cold pass simulated %d cells, want %d", st.Simulated, w.ref.Cells)
		}
		return nil
	})
}

func (w *table1Cold) close() {}

// warmCheck requires a pass to have simulated nothing.
func warmCheck(ref reference) func(sb.SessionStats) error {
	return func(st sb.SessionStats) error {
		if st.Simulated != 0 || st.Hits != ref.Cells {
			return fmt.Errorf("warm pass simulated %d cells and hit %d, want 0 and %d", st.Simulated, st.Hits, ref.Cells)
		}
		return nil
	}
}

// table1FarmWarm is `shadowbinding -remote URL -remote-compute -experiment
// table1` against a pre-warmed farm server in this process, over a real
// loopback socket: one POST /v1/experiments streams every cell.
type table1FarmWarm struct {
	*env
	farm *farmServer
}

func (w *table1FarmWarm) setup(ctx context.Context) error {
	w.close()
	store, err := w.fill(ctx)
	if err != nil {
		return err
	}
	cache, err := sb.OpenCache(sb.CacheOptions{Dir: store})
	if err != nil {
		return err
	}
	w.farm, err = startFarm(cache, w.par, nil)
	if err != nil {
		return err
	}
	// One streamed pass loads the server's memory layer from its store.
	_, err = w.pass(ctx, -1, nil)
	return err
}

func (w *table1FarmWarm) pass(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	before := w.farm.srv.Stats()
	cache, err := cacheStack("", w.farm.url, tr)
	if err != nil {
		return 0, err
	}
	return w.table1Pass(ctx, i, cache, tr, func(st sb.SessionStats) error {
		if err := warmCheck(w.ref)(st); err != nil {
			return err
		}
		after := w.farm.srv.Stats()
		if n, cells := after.Experiments-before.Experiments, after.StreamedCells-before.StreamedCells; n != 1 || cells != int64(w.ref.Cells) {
			return fmt.Errorf("farm pass made %d experiment requests streaming %d cells, want 1 and %d", n, cells, w.ref.Cells)
		}
		if sim := after.EngineSimulated - before.EngineSimulated; sim != 0 {
			return fmt.Errorf("pre-warmed farm simulated %d cells", sim)
		}
		return nil
	})
}

func (w *table1FarmWarm) close() {
	if w.farm != nil {
		w.farm.close()
		w.farm = nil
	}
}

// farmServer is an in-process farm server on a real 127.0.0.1 listener.
type farmServer struct {
	srv  *sb.FarmServer
	hs   *http.Server
	url  string
	done chan error
}

// startFarm serves a farm over cache; with a tracer, every request the
// server handles is recorded as a farm.server span.
func startFarm(cache sb.CellCache, par int, tr *tracer) (*farmServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &farmServer{
		srv:  sb.NewFarmServer(sb.FarmServerConfig{Cache: cache, Parallelism: par}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	h := f.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := tr.now()
			inner.ServeHTTP(w, r)
			tr.add("farm.server", start, tr.now())
		})
	}
	f.hs = &http.Server{Handler: h}
	go func() { f.done <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the server and waits for its serve loop to return.
func (f *farmServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	if err := <-f.done; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "shadowbench: farm server:", err)
	}
	f.srv.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// fuzzOracle is `shadowbinding -fuzz 400`: generated programs checked
// under every scheme against the architectural reference. Pass i checks
// its own 400 cases, derived from the run's seed.
type fuzzOracle struct {
	*env
	setups uint64
}

// Fuzz campaign sizes: casesPerPass per timed pass, setupCases per set-up.
const (
	casesPerPass = 400
	setupCases   = 48
	seedStride   = 1_000_000 // base seeds of one run stay within seed*seedStride + [0, seedStride)
)

// setup warms the process with a short campaign on cases no pass uses.
func (w *fuzzOracle) setup(ctx context.Context) error {
	base := w.seed*seedStride + seedStride - setupCases*(w.setups+1)
	w.setups++
	return sb.FuzzCampaign(ctx, base, setupCases, w.par, nil)
}

func (w *fuzzOracle) pass(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	base := w.seed*seedStride + uint64(i)*casesPerPass
	return timePass(tr, i, func() error {
		return sb.FuzzCampaign(ctx, base, casesPerPass, w.par, nil)
	})
}

func (w *fuzzOracle) close() {}
