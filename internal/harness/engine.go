package harness

import (
	"context"
	"slices"
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
			return CellResult{Key: key, Run: r, Cached: true}, nil
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
	return CellResult{Key: key, Run: r}, nil
}

// runMatrix resolves the cells of spec (Schemes filled) and returns their
// runs in enumeration order, keying the cells once. When the cache
// resolves whole experiments (ExperimentResolver: the farm client in
// compute mode), one streaming request comes first, carrying the keys in
// its context (WithKeySet) so the resolver need not derive them again, and
// each streamed run goes straight into the slot of its key's cell as a
// hit, logged as it arrives. Only the cells left empty are walked per
// cell, as RunCells walks them, each cell's job built when the walk
// reaches it, so a warm remote matrix builds no job. A failed stream
// follows the cache contract: reported through opts.Progress, it costs the
// walk of what it did not deliver, never the run.
func (e *Engine) runMatrix(ctx context.Context, spec MatrixSpec, opts Options) ([]Run, error) {
	n := len(spec.Configs) * len(spec.Schemes) * len(spec.Benches)
	cells := crossProduct(spec.Configs, spec.Schemes, spec.Benches)
	keys, bench, nbench := cellKeys(e.version, n, cells, opts)
	runs, filled, hits := make([]Run, n), make([]bool, n), 0
	if er, ok := e.cache.(ExperimentResolver); ok && n > 0 {
		set := NewKeySet(keys)
		got, err := er.ResolveExperiment(WithKeySet(ctx, set), spec, opts, func(key string, r Run) {
			if i, ok := set.Index(key); ok && !filled[i] {
				runs[i], filled[i] = r, true
				hits++
				if opts.Progress != nil {
					opts.Progress("harness: [%d/%d] %s/%s/%s IPC %.4f (streamed)", hits, n, r.Config, r.Scheme, r.Bench, r.IPC)
				}
			}
		})
		if err != nil {
			opts.logf("harness: experiment %q stream: %v (%d cells delivered; resolving per cell)", spec.Name, err, got)
		}
		e.mu.Lock()
		e.stats.Cells += hits
		e.stats.Hits += hits
		e.mu.Unlock()
	}
	if hits == n {
		return runs, nil
	}
	// The walk's keys and bench numbers are the empty cells', compacted
	// in place (the stream's KeySet is done with them); at maps each back
	// to its cell, whose job is built only when the walk comes to it.
	at := make([]int, 0, n-hits)
	for i := range n {
		if !filled[i] {
			keys[len(at)], bench[len(at)] = keys[i], bench[i]
			at = append(at, i)
		}
	}
	err := e.run(ctx, func(i int) CellJob { return spec.cell(at[i]) }, keys[:len(at)], bench[:len(at)], nbench, opts, func(i int, res CellResult) {
		runs[at[i]] = res.Run
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
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
	keys, bench, nbench := cellKeys(e.version, len(jobs), slices.Values(jobs), opts)
	runs := make([]Run, len(jobs))
	err := e.run(ctx, func(i int) CellJob { return jobs[i] }, keys, bench, nbench, opts, func(i int, res CellResult) {
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

// StreamCells resolves each distinct cell of spec (Schemes filled) once,
// as RunCells does, and hands it to each without collecting runs: the
// farm's experiment stream carries one line per key. It keys the cells
// straight from the cross product, as runMatrix does, and drops every cell
// whose key an earlier cell has; then, before resolving anything, it
// calls start with the number of distinct cells. It builds no job list: a
// cell's job is made from the spec's axes when the cell is resolved.
func (e *Engine) StreamCells(ctx context.Context, spec MatrixSpec, opts Options, start func(cells int), each func(CellResult)) error {
	n := len(spec.Configs) * len(spec.Schemes) * len(spec.Benches)
	keys, bench, nbench := cellKeys(e.version, n, crossProduct(spec.Configs, spec.Schemes, spec.Benches), opts)
	seen := make(map[string]struct{}, n)
	at := make([]int, 0, n) // the distinct cells' indices in the cross product
	for i, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys[len(at)], bench[len(at)] = k, bench[i]
		at = append(at, i)
	}
	start(len(at))
	return e.run(ctx, func(i int) CellJob { return spec.cell(at[i]) }, keys[:len(at)], bench[:len(at)], nbench, opts,
		func(_ int, res CellResult) { each(res) })
}

// run resolves the cells of keys on the bounded pool, grouped by bench
// (cellKeys' numbering), and hands each cell with its index to each. job
// builds the job of cell i; it is called when the cell is dispatched and
// resolved, so no caller needs a job list.
func (e *Engine) run(ctx context.Context, job func(i int) CellJob, keys []string, bench []int32, nbench int, opts Options, each func(i int, res CellResult)) error {
	order, progs := dispatchPlan(job, bench, nbench, max(opts.Scale, 1))
	var mu sync.Mutex
	done := 0
	return ParallelDo(ctx, len(keys), opts.Parallelism, func(n int) error {
		i := order[n]
		res, err := e.cell(keys[i], job(i), opts, progs[i].get)
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
				done, len(keys), res.Run.Config, res.Run.Scheme, res.Run.Bench, res.Run.IPC, suffix)
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

// dispatchPlan groups cells by benchmark, as cellKeys numbered them:
// bench[i] is cell i's benchmark, the nbench benchmarks in order of first
// appearance, and job(i) is cell i's job, asked for only by the first
// cell of each group. order lists cell indices in dispatch order: the
// groups in that order, each group's cells in index order. progs[i] is
// cell i's group. The plan is four allocations, whatever the number of
// benchmarks.
func dispatchPlan(job func(i int) CellJob, bench []int32, nbench, scale int) (order []int, progs []*benchProgram) {
	groups := make([]benchProgram, nbench)
	progs = make([]*benchProgram, len(bench))
	order = make([]int, len(bench))
	// A counting sort: start[b] is where group b's cells begin in order.
	start := make([]int, nbench+1)
	for i, b := range bench {
		g := &groups[b]
		if g.pending.Add(1) == 1 {
			g.prof, g.scale = job(i).Bench, scale
		}
		progs[i] = g
		start[b+1]++
	}
	for b := range nbench {
		start[b+1] += start[b]
	}
	for i, b := range bench {
		order[start[b]] = i
		start[b]++
	}
	return order, progs
}
