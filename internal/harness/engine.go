package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// The cell engine. Every (config, scheme, benchmark, options) cell is an
// independent, content-addressed job: its key is CellFingerprint of the
// inputs plus a simulator version stamp. The engine executes each key at
// most once — concurrent requests for the same key coalesce onto one
// simulation (single-flight), repeated requests are served from the
// CellCache — schedules misses on the shared bounded pool (ParallelDo),
// and hands every completed cell to the RunCells call that asked for it.
// Sessions (session.go) assemble matrices and experiments on top of it.

// CellJob names one cell to execute.
type CellJob struct {
	Config core.Config
	Scheme core.SchemeKind
	Bench  workloads.Profile
}

// CellResult is one completed cell, handed to its RunCells callback the
// moment it resolves (from cache or simulation) — completion order, not
// enumeration order.
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

// flight is one in-progress cell resolution that another request joined:
// the joiners wait on done and share res/err instead of re-simulating. A
// key whose holder nobody joined maps to a nil flight, so a resolution no
// other request asks for — every cache hit of a warm pass — makes none.
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
	inflight map[string]*flight // nil until a second request joins
	stats    EngineStats
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

// cell resolves job under its key: cache lookup, then single-flight
// simulation — the map that coalesces duplicate in-flight requests
// (fleet-wide, inside the farm server) onto one simulation. The holder
// claims a key with a nil flight; the first request that finds it held
// makes the flight, and the holder hands its result to the flight, if
// there is one, when done. So a cell nobody else asked for allocates
// nothing here. prog supplies the job's program and is called only if the
// cell is simulated. Errors are never cached — a failed cell is retried by
// the next request, and its waiters retry too.
func (e *Engine) cell(key string, job CellJob, opts Options, prog func() *isa.Program) (CellResult, error) {
	for {
		e.mu.Lock()
		if f, busy := e.inflight[key]; busy {
			if f == nil {
				f = &flight{done: make(chan struct{})}
				e.inflight[key] = f
			}
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
		e.inflight[key] = nil
		e.mu.Unlock()

		res, err := e.resolve(key, job, opts, prog)

		e.mu.Lock()
		f := e.inflight[key]
		delete(e.inflight, key)
		if err == nil {
			e.stats.Cells++
			if res.Cached {
				e.stats.Hits++
			} else {
				e.stats.Simulated++
				e.stats.SimCycles += res.Run.TotalCycles
			}
		}
		if f != nil {
			f.res, f.err = res, err
			close(f.done)
		}
		e.mu.Unlock()
		return res, err
	}
}

// resolve serves key from the cache or simulates it on prog's program.
func (e *Engine) resolve(key string, job CellJob, opts Options, prog func() *isa.Program) (CellResult, error) {
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
	r, err := runProgram(job.Config, job.Scheme, prog(), opts, nil)
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
// (zero: all CPUs) and returns their runs in job order. Every job's key
// is derived up front, in one pass. Jobs are dispatched grouped by
// benchmark — benchmarks in order of first appearance, each group's jobs
// in job order — so each benchmark's program is built once, by the first
// of its cells that simulates, and dropped when its last cell resolves;
// only a few programs are alive at a time. Semantics match the evaluation engine's: fail-fast on the first
// error, prompt cancellation through ctx, results independent of
// scheduling order. When several jobs fail, the error reported is the one
// earliest in dispatch order among those that ran, not the one with the
// lowest job index. When opts.Progress is set, each resolved cell logs one
// progress line, with strictly monotone [done/total] numbering. Each cell
// is then handed to each (when non-nil) on the worker that resolved it.
// Calls to each run concurrently, outside any engine lock — the callee
// does its own locking — and all of them return before RunCells does.
func (e *Engine) RunCells(ctx context.Context, jobs []CellJob, opts Options, each func(CellResult)) ([]Run, error) {
	keys, bench, nbench := cellKeys(e.version, jobs, opts)
	runs := make([]Run, len(jobs))
	err := e.run(ctx, jobs, keys, bench, nbench, opts, func(i int, res CellResult) {
		runs[i] = res.Run
		if each != nil {
			each(res)
		}
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// StreamCells resolves each distinct cell of jobs once, as RunCells does,
// and hands it to each without collecting runs: the farm's experiment
// stream carries one line per key. It keys the jobs in one pass and drops,
// in place, every job whose key an earlier job has, so jobs is
// overwritten; then, before resolving anything, it calls start with the
// number of distinct cells.
func (e *Engine) StreamCells(ctx context.Context, jobs []CellJob, opts Options, start func(cells int), each func(CellResult)) error {
	keys, bench, nbench := cellKeys(e.version, jobs, opts)
	seen := make(map[string]struct{}, len(keys))
	n := 0
	for i, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		jobs[n], keys[n], bench[n] = jobs[i], k, bench[i]
		n++
	}
	start(n)
	return e.run(ctx, jobs[:n], keys[:n], bench[:n], nbench, opts, func(_ int, res CellResult) { each(res) })
}

// run resolves jobs under their keys on the bounded pool, grouped by
// bench (cellKeys' numbering), and hands each cell with its job index to
// each.
func (e *Engine) run(ctx context.Context, jobs []CellJob, keys []string, bench []int32, nbench int, opts Options, each func(i int, res CellResult)) error {
	order, progs := dispatchPlan(jobs, bench, nbench, max(opts.Scale, 1))
	var mu sync.Mutex
	done := 0
	return ParallelDo(ctx, len(jobs), opts.Parallelism, func(n int) error {
		i := order[n]
		res, err := e.cell(keys[i], jobs[i], opts, progs[i].get)
		progs[i].resolved()
		if err != nil {
			return err
		}
		if opts.Progress != nil {
			suffix := ""
			if res.Cached {
				suffix = " (cached)"
			}
			mu.Lock()
			done++
			opts.Progress("harness: [%d/%d] %s/%s/%s IPC %.4f%s",
				done, len(jobs), res.Run.Config, res.Run.Scheme, res.Run.Bench, res.Run.IPC, suffix)
			mu.Unlock()
		}
		each(i, res)
		return nil
	})
}

// benchProgram is one benchmark's program, shared by the jobs of one
// RunCells call that run it: built by the first of them that simulates,
// dropped when the last of them resolves.
type benchProgram struct {
	prof    workloads.Profile
	scale   int
	once    sync.Once
	prog    *isa.Program
	pending atomic.Int32 // the group's jobs not yet resolved
}

func (b *benchProgram) get() *isa.Program {
	b.once.Do(func() { b.prog = b.prof.Build(b.scale) })
	return b.prog
}

// resolved marks one of the group's jobs resolved, dropping the program
// with the last one.
func (b *benchProgram) resolved() {
	if b.pending.Add(-1) == 0 {
		b.prog = nil
	}
}

// dispatchPlan groups jobs by benchmark, as cellKeys numbered them: bench[i]
// is job i's benchmark, the nbench benchmarks in order of first
// appearance. order lists job indices in dispatch order: the groups in
// that order, each group's jobs in job order. progs[i] is job i's group.
// The plan is four allocations, whatever the number of benchmarks.
func dispatchPlan(jobs []CellJob, bench []int32, nbench, scale int) (order []int, progs []*benchProgram) {
	groups := make([]benchProgram, nbench)
	progs = make([]*benchProgram, len(jobs))
	order = make([]int, len(jobs))
	// A counting sort: start[b] is where group b's jobs begin in order.
	start := make([]int, nbench+1)
	for i, job := range jobs {
		g := &groups[bench[i]]
		if g.pending.Add(1) == 1 {
			g.prof, g.scale = job.Bench, scale
		}
		progs[i] = g
		start[bench[i]+1]++
	}
	for b := range nbench {
		start[b+1] += start[b]
	}
	for i := range jobs {
		order[start[bench[i]]] = i
		start[bench[i]]++
	}
	return order, progs
}
