package harness

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/workloads"
)

// The cell engine. Every (config, scheme, benchmark, options) cell is an
// independent, content-addressed job: its key is CellFingerprint of the
// inputs plus a simulator version stamp. The engine executes each key at
// most once — concurrent requests for the same key coalesce onto one
// simulation (single-flight), repeated requests are served from the
// CellCache — schedules misses on the shared bounded pool (ParallelDo),
// and streams every completed cell to its subscribers. Sessions
// (session.go) assemble matrices and experiments on top of it.

// CellJob names one cell to execute.
type CellJob struct {
	Config core.Config
	Scheme core.SchemeKind
	Bench  workloads.Profile
}

// CellResult is one completed cell, streamed to subscribers the moment it
// resolves (from cache or simulation) — completion order, not enumeration
// order.
type CellResult struct {
	Key    string
	Job    CellJob
	Run    Run
	Cached bool // served from the CellCache without simulating
}

// EngineStats is the engine's cell accounting. Cells = Hits + Simulated:
// every request either hit the cache or ran the simulator (single-flight
// waiters count as hits — the work ran once). Coalesced splits the hits:
// it counts the waiters that joined an in-flight execution rather than
// reading a finished cache entry.
type EngineStats struct {
	Cells     int    // cell requests resolved
	Hits      int    // served from the cache (or a coalesced in-flight run)
	Coalesced int    // subset of Hits: waiters that joined an in-flight run
	Simulated int    // actually simulated by this engine
	SimCycles uint64 // simulated cycles executed (warmup included), misses only
}

// HitRate returns the fraction of requests served without simulation.
func (s EngineStats) HitRate() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Cells)
}

// flight is one in-progress cell resolution; concurrent requests for the
// same key wait on done and share res/err instead of re-simulating.
type flight struct {
	done chan struct{}
	res  CellResult
	err  error
}

// Engine executes content-addressed cells at most once per key.
type Engine struct {
	version string
	cache   CellCache     // may be nil: single-flight dedup only
	gate    chan struct{} // bounds concurrent simulations (nil: unbounded)

	mu       sync.Mutex
	inflight map[string]*flight
	stats    EngineStats

	emitMu  sync.Mutex // serializes progress lines and subscriber calls
	subsMu  sync.Mutex
	subs    map[int]func(CellResult)
	nextSub int
}

// NewEngine returns an engine persisting through cache under a
// fingerprint version stamp (empty: core.SimVersion). With a nil cache
// only concurrent requests coalesce — at-most-once execution across
// sequential requests needs the cache, which is why NewSession always
// supplies one.
func NewEngine(cache CellCache, version string) *Engine {
	if version == "" {
		version = core.SimVersion
	}
	return &Engine{
		version:  version,
		cache:    cache,
		inflight: make(map[string]*flight),
		subs:     make(map[int]func(CellResult)),
	}
}

// Stats returns a snapshot of the engine's cell accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SetSimulationBound caps concurrent simulations at n (zero or negative:
// unbounded). Only the simulator run itself queues on the bound — cache
// hits, coalesced waiters, and resolver forwards are never held up — so a
// server can bound its local compute load to the CPU count without
// serializing its I/O. Set before the engine is shared; the bound is not
// safe to change mid-run.
func (e *Engine) SetSimulationBound(n int) {
	if n > 0 {
		e.gate = make(chan struct{}, n)
	} else {
		e.gate = nil
	}
}

// Subscribe registers fn to receive every completed cell until the
// returned cancel function runs. Calls are serialized by the engine but
// arrive in completion order; fn must not block long (it stalls the
// completing worker) and must not call back into the engine.
func (e *Engine) Subscribe(fn func(CellResult)) (cancel func()) {
	e.subsMu.Lock()
	id := e.nextSub
	e.nextSub++
	e.subs[id] = fn
	e.subsMu.Unlock()
	return func() {
		e.subsMu.Lock()
		delete(e.subs, id)
		e.subsMu.Unlock()
	}
}

// emit reports one completed cell. The done counter is advanced inside
// the emission critical section so progress lines and subscriber calls
// carry strictly monotone [done/total] numbering.
func (e *Engine) emit(r CellResult, opts Options, done *int, total int) {
	e.emitMu.Lock()
	defer e.emitMu.Unlock()
	*done++
	suffix := ""
	if r.Cached {
		suffix = " (cached)"
	}
	opts.logf("harness: [%d/%d] %s/%s/%s IPC %.4f%s",
		*done, total, r.Run.Config, r.Run.Scheme, r.Run.Bench, r.Run.IPC, suffix)
	e.subsMu.Lock()
	fns := make([]func(CellResult), 0, len(e.subs))
	for _, fn := range e.subs {
		fns = append(fns, fn)
	}
	e.subsMu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
}

// Key returns the content-addressed key of a job under this engine's
// version stamp and the result-affecting fields of opts.
func (e *Engine) Key(job CellJob, opts Options) string {
	return CellFingerprint(e.version, job.Config, job.Scheme, job.Bench, opts)
}

// cell resolves one key: cache lookup, then single-flight simulation —
// the map that coalesces duplicate in-flight requests (fleet-wide, inside
// the farm server) onto one simulation. Errors are never cached — a
// failed cell is retried by the next request.
func (e *Engine) cell(job CellJob, opts Options) (CellResult, error) {
	key := e.Key(job, opts)
	for {
		e.mu.Lock()
		if f, busy := e.inflight[key]; busy {
			e.mu.Unlock()
			<-f.done
			if f.err != nil {
				continue // the holder failed; claim the key and retry
			}
			res := f.res
			res.Cached = true // coalesced onto the in-flight execution
			e.mu.Lock()
			e.stats.Cells++
			e.stats.Hits++
			e.stats.Coalesced++
			e.mu.Unlock()
			return res, nil
		}
		f := &flight{done: make(chan struct{})}
		e.inflight[key] = f
		e.mu.Unlock()

		f.res, f.err = e.resolve(key, job, opts)

		e.mu.Lock()
		delete(e.inflight, key)
		if f.err == nil {
			e.stats.Cells++
			if f.res.Cached {
				e.stats.Hits++
			} else {
				e.stats.Simulated++
				e.stats.SimCycles += f.res.Run.TotalCycles
			}
		}
		e.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// resolve serves key from the cache or simulates it.
func (e *Engine) resolve(key string, job CellJob, opts Options) (CellResult, error) {
	if e.cache != nil {
		if r, ok, err := cacheLookup(e.cache, key, job, opts); ok {
			return CellResult{Key: key, Job: job, Run: r, Cached: true}, nil
		} else if err != nil {
			opts.logf("harness: cell cache read %s: %v (re-simulating)", key, err)
		}
	}
	if e.gate != nil {
		e.gate <- struct{}{}
	}
	r, err := RunOne(job.Config, job.Scheme, job.Bench, opts)
	if e.gate != nil {
		<-e.gate
	}
	if err != nil {
		return CellResult{}, err
	}
	if e.cache != nil {
		if err := e.cache.Put(key, r); err != nil {
			opts.logf("harness: cell cache write %s: %v", key, err)
		}
	}
	return CellResult{Key: key, Job: job, Run: r}, nil
}

// PrefetchExperiment resolves a whole spec through the cache's experiment
// path when it has one (ExperimentResolver — the farm client in compute
// mode as the slowest tier): one streaming request warms the faster cache
// layers with every cell, so the per-cell resolution that follows is all
// local hits and a cold remote experiment costs one request, not one per
// cell. Returns the number of cells delivered. Failures follow the cache
// contract — report through opts.Progress and fall back to per-cell
// resolution, never fail the run.
func (e *Engine) PrefetchExperiment(ctx context.Context, spec MatrixSpec, opts Options) int {
	er, ok := e.cache.(ExperimentResolver)
	if !ok || len(spec.Schemes) == 0 {
		return 0
	}
	n, err := er.ResolveExperiment(ctx, spec, opts, nil)
	if err != nil {
		opts.logf("harness: experiment %q stream: %v (%d cells delivered; resolving per cell)",
			spec.Name, err, n)
	}
	return n
}

// RunCells resolves jobs on a bounded pool of opts.Parallelism workers
// (zero: all CPUs) and returns their runs in job order. Semantics match
// the evaluation engine's: fail-fast on the first error, prompt
// cancellation through ctx, results independent of scheduling order.
// Progress lines and subscriber streams fire per cell in completion order.
func (e *Engine) RunCells(ctx context.Context, jobs []CellJob, opts Options) ([]Run, error) {
	runs := make([]Run, len(jobs))
	var done int
	err := ParallelDo(ctx, len(jobs), opts.Parallelism, func(i int) error {
		res, err := e.cell(jobs[i], opts)
		if err != nil {
			return err
		}
		runs[i] = res.Run
		e.emit(res, opts, &done, len(jobs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}
