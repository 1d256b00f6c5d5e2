// Package harness drives the paper's evaluation: it sweeps (configuration
// × scheme × benchmark), aggregates IPC the way the paper does, folds in
// the synthesis model's timing, and renders every table and figure of the
// evaluation section as text (see figures.go).
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// Options bounds individual simulation runs. The harness measures a fixed
// cycle window after a warmup period, mirroring the paper's methodology of
// running each benchmark for a fixed cycle budget on FireSim (Section 7):
// with equal cycle windows, the arithmetic-mean IPC aggregation weights
// benchmarks equally.
type Options struct {
	Scale         int    // workload iteration multiplier
	WarmupCycles  uint64 // cycles before measurement (caches/predictors warm)
	MeasureCycles uint64 // measured window

	// Parallelism bounds the engine's cell worker pool; zero or negative
	// means runtime.NumCPU(). Matrix contents are identical at any
	// setting — only wall-clock time changes.
	Parallelism int

	// Progress, when set, receives progress lines. The engine may invoke
	// it from multiple worker goroutines, but never concurrently: calls
	// are serialized by the harness.
	Progress func(format string, args ...any)
}

// DefaultOptions returns run bounds sized for the benchmark harness: large
// enough for stable steady-state IPC, small enough that the 528-cell Boom
// matrix completes in seconds. Parallelism defaults to all cores.
func DefaultOptions() Options {
	return Options{Scale: 1, WarmupCycles: 8_000, MeasureCycles: 32_000}
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Run is one (benchmark, configuration, scheme) measurement.
type Run struct {
	Bench  string
	Config string
	Scheme core.SchemeKind
	Cycles uint64
	Insts  uint64
	IPC    float64
	Stats  core.Stats

	// TotalCycles is the cell's full simulated cycle count, warmup
	// included (Cycles covers the measured window only);
	// Matrix.TotalSimCycles sums it for simulated-cycles accounting.
	TotalCycles uint64
}

// RunOne simulates one cell of the evaluation matrix: warmup, then a fixed
// measurement window. The proxies are sized to outlast both; an early halt
// is reported as an error because it would corrupt the equal-window
// aggregation.
func RunOne(cfg core.Config, kind core.SchemeKind, prof workloads.Profile, opts Options) (Run, error) {
	return RunOneRecorded(cfg, kind, prof, opts, nil)
}

// RunOneRecorded is RunOne with an observer (a trace recorder) attached for the whole
// simulation (warmup included — trace cycle stamps are monotonic across
// both phases). Observers are observational, so the returned Run is
// identical to an unrecorded one; callers flush the recorder themselves.
func RunOneRecorded(cfg core.Config, kind core.SchemeKind, prof workloads.Profile, opts Options, obs core.Observer) (Run, error) {
	return runProgram(cfg, kind, prof.Build(max(opts.Scale, 1)), opts, obs)
}

// runProgram is RunOneRecorded on an already built proxy program. It runs
// on a pooled core, Reset for the cell, so a sweep reuses one machine per
// worker instead of allocating one per cell.
func runProgram(cfg core.Config, kind core.SchemeKind, prog *isa.Program, opts Options, obs core.Observer) (Run, error) {
	c := core.Pooled()
	defer c.Recycle()
	if err := c.Reset(cfg, kind, prog); err != nil {
		return Run{}, err
	}
	c.Observer = obs
	return measure(c, prog.Name, opts)
}

// measure runs the warmup and the measured window of bench on c, which is
// set up for its cell and not yet run.
func measure(c *core.Core, bench string, opts Options) (Run, error) {
	cfg, kind := c.Config(), c.Scheme()
	warm, err := c.Run(core.RunLimits{MaxCycles: opts.WarmupCycles})
	if err != nil {
		return Run{}, fmt.Errorf("harness: %s/%s/%s (warmup): %w", cfg.Name, kind, bench, err)
	}
	res, err := c.Run(core.RunLimits{MaxCycles: opts.WarmupCycles + opts.MeasureCycles})
	if err != nil {
		return Run{}, fmt.Errorf("harness: %s/%s/%s: %w", cfg.Name, kind, bench, err)
	}
	if res.Halted {
		return Run{}, fmt.Errorf("harness: %s/%s/%s: proxy halted inside the measurement window (cycle %d); increase Iters or Scale",
			cfg.Name, kind, bench, res.Cycles)
	}
	cycles := res.Cycles - warm.Cycles
	insts := res.Insts - warm.Insts
	return Run{
		Bench:       bench,
		Config:      cfg.Name,
		Scheme:      kind,
		Cycles:      cycles,
		Insts:       insts,
		IPC:         float64(insts) / float64(cycles),
		Stats:       res.Stats,
		TotalCycles: res.Cycles,
	}, nil
}

// Cell aggregates one (configuration, scheme) across a benchmark suite.
type Cell struct {
	Config  core.Config
	Scheme  core.SchemeKind
	Runs    []Run
	MeanIPC float64 // paper's arithmetic-mean-of-means IPC (Section 8.1)
}

func (c *Cell) run(bench string) (Run, bool) {
	for _, r := range c.Runs {
		if r.Bench == bench {
			return r, true
		}
	}
	return Run{}, false
}

// Matrix is the full evaluation cross product.
type Matrix struct {
	Configs []core.Config
	Schemes []core.SchemeKind
	Benches []workloads.Profile
	cells   map[string]map[core.SchemeKind]*Cell
}

// Cell returns the aggregate for one (configuration, scheme).
func (m *Matrix) Cell(cfgName string, kind core.SchemeKind) (*Cell, bool) {
	row, ok := m.cells[cfgName]
	if !ok {
		return nil, false
	}
	c, ok := row[kind]
	return c, ok
}

// TotalSimCycles sums the simulated cycles (warmup + measurement) behind
// every run in the matrix.
func (m *Matrix) TotalSimCycles() uint64 {
	var total uint64
	for _, row := range m.cells {
		for _, cell := range row {
			for _, r := range cell.Runs {
				total += r.TotalCycles
			}
		}
	}
	return total
}

// NumRuns returns the number of (config, scheme, benchmark) cells.
func (m *Matrix) NumRuns() int {
	return len(m.Configs) * len(m.Schemes) * len(m.Benches)
}

// MeanIPC returns the suite-mean IPC for a (configuration, scheme).
func (m *Matrix) MeanIPC(cfgName string, kind core.SchemeKind) float64 {
	c, ok := m.Cell(cfgName, kind)
	if !ok {
		return 0
	}
	return c.MeanIPC
}

// NormIPC returns the scheme's suite-mean IPC normalized to baseline.
func (m *Matrix) NormIPC(cfgName string, kind core.SchemeKind) float64 {
	base := m.MeanIPC(cfgName, core.KindBaseline)
	if base == 0 {
		return 0
	}
	return m.MeanIPC(cfgName, kind) / base
}

// BenchNormIPC returns one benchmark's IPC normalized to baseline.
func (m *Matrix) BenchNormIPC(cfgName string, kind core.SchemeKind, bench string) float64 {
	c, ok := m.Cell(cfgName, kind)
	if !ok {
		return 0
	}
	b, ok := m.Cell(cfgName, core.KindBaseline)
	if !ok {
		return 0
	}
	rs, ok1 := c.run(bench)
	rb, ok2 := b.run(bench)
	if !ok1 || !ok2 || rb.IPC == 0 {
		return 0
	}
	return rs.IPC / rb.IPC
}
