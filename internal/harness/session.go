package harness

import (
	"context"
	"iter"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/workloads"
)

// The Session API. A Session is a long-lived evaluation context over the
// cell engine: it holds one Options set, one scheme set, and one CellCache,
// and answers matrix and experiment requests lazily — only the cells an
// answer actually needs are simulated, each at most once per
// content-addressed key, and a warm cache answers without simulating at
// all.

// MatrixSpec declares a cell set as a (configurations × benchmarks) cross
// product; the scheme axis comes from the Session (or the optional
// Schemes override). Experiments declare their needs as MatrixSpecs.
type MatrixSpec struct {
	Name    string
	Configs []core.Config
	Benches []workloads.Profile
	// Schemes overrides the session's scheme set when non-empty.
	Schemes []core.SchemeKind
}

// BoomSpec is the paper's main matrix: the four Table 1 BOOM
// configurations over the full 22-benchmark proxy suite.
func BoomSpec() MatrixSpec {
	return MatrixSpec{Name: "boom", Configs: core.Configs(), Benches: workloads.Suite()}
}

// ExtSpec is the Boom matrix with its scheme axis pinned to every
// scheme: the cell set behind the extended (6-scheme)
// comparison, complete regardless of the session's -schemes filter. It
// shares the "boom" name deliberately: the cells are the same
// content-addressed jobs, so a session whose scheme axis is already every
// scheme reuses its Boom matrix outright.
func ExtSpec() MatrixSpec {
	s := BoomSpec()
	s.Schemes = core.SchemeKinds()
	return s
}

// Gem5Spec is the Section 8.6 comparison matrix: the two gem5-style
// configurations over the 19-benchmark comparable suite.
func Gem5Spec() MatrixSpec {
	return MatrixSpec{
		Name:    "gem5",
		Configs: []core.Config{core.Gem5STTConfig(), core.Gem5NDAConfig()},
		Benches: workloads.Gem5Comparable(),
	}
}

// SessionConfig parameterizes NewSession.
type SessionConfig struct {
	// Options bounds every cell run; result-affecting fields participate
	// in cell fingerprints (Parallelism and Progress do not).
	Options Options
	// Schemes is the scheme axis of every matrix; empty means every
	// scheme. The set is used exactly as given — callers that
	// need baseline-normalized figures should include the baseline (see
	// the facade's WithBaseline).
	Schemes []core.SchemeKind
	// Cache persists cell results; nil gives the session a private
	// in-memory LRU (lazy and deduplicated, but nothing survives the
	// process). The facade's OpenCache assembles the standard memory,
	// disk and farm stacks.
	Cache CellCache
	// Version overrides the fingerprint version stamp (tests); empty
	// means core.SimVersion.
	Version string
}

// SessionStats is the session's cell accounting (the engine's view):
// requests, cache hits, simulations, and simulated cycles.
type SessionStats = EngineStats

// Session is a lazy, cache-backed evaluation context.
type Session struct {
	opts    Options
	schemes []core.SchemeKind
	engine  *Engine

	mu       sync.Mutex
	matrices []*Matrix // assembled so far, each over its own axes
}

// NewSession opens a session. The zero SessionConfig is usable: default
// options semantics are the caller's (pass DefaultOptions() for the
// standard windows), every scheme, private in-memory cache.
func NewSession(cfg SessionConfig) *Session {
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = core.SchemeKinds()
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewMemoryCache(0)
	}
	return &Session{
		opts:    cfg.Options,
		schemes: append([]core.SchemeKind(nil), schemes...),
		engine:  NewEngine(cache, cfg.Version),
	}
}

// Schemes returns the session's scheme axis.
func (s *Session) Schemes() []core.SchemeKind {
	return append([]core.SchemeKind(nil), s.schemes...)
}

// Options returns the session's run bounds.
func (s *Session) Options() Options { return s.opts }

// Stats snapshots the session's cell accounting.
func (s *Session) Stats() SessionStats { return s.engine.Stats() }

// specSchemes resolves a spec's scheme axis against the session's.
func (s *Session) specSchemes(spec MatrixSpec) []core.SchemeKind {
	if len(spec.Schemes) > 0 {
		return spec.Schemes
	}
	return s.schemes
}

// assembled returns the matrix the session already assembled over spec's
// configurations, scheme axis (resolved) and benchmarks, or nil. The axes
// are flat structs of scalars, so == compares them field by field, and a
// spec equal by value to an earlier one reuses its aggregation (cells are
// deduplicated by the engine regardless; this only skips re-assembly and
// repeated summary logging). The caller holds s.mu.
func (s *Session) assembled(spec MatrixSpec) *Matrix {
	for _, m := range s.matrices {
		if slices.Equal(m.Configs, spec.Configs) && slices.Equal(m.Schemes, spec.Schemes) && slices.Equal(m.Benches, spec.Benches) {
			return m
		}
	}
	return nil
}

// crossProduct yields the cross product in the canonical enumeration
// order (config-major, then scheme, then benchmark) shared with matrix
// assembly.
func crossProduct(configs []core.Config, schemes []core.SchemeKind, benches []workloads.Profile) iter.Seq[CellJob] {
	return func(yield func(CellJob) bool) {
		for _, cfg := range configs {
			for _, kind := range schemes {
				for _, prof := range benches {
					if !yield(CellJob{Config: cfg, Scheme: kind, Bench: prof}) {
						return
					}
				}
			}
		}
	}
}

// cell returns the job of the spec's i-th cell in crossProduct's order.
func (s MatrixSpec) cell(i int) CellJob {
	nb, ns := len(s.Benches), len(s.Schemes)
	return CellJob{Config: s.Configs[i/(nb*ns)], Scheme: s.Schemes[i/nb%ns], Bench: s.Benches[i%nb]}
}

// enumerateJobs collects the cross product into a job list.
func enumerateJobs(configs []core.Config, schemes []core.SchemeKind, benches []workloads.Profile) []CellJob {
	jobs := make([]CellJob, 0, len(configs)*len(schemes)*len(benches))
	return slices.AppendSeq(jobs, crossProduct(configs, schemes, benches))
}

// Matrix materializes one spec: the cells the spec needs are resolved
// through the engine (one whole-spec stream when the cache has one, then
// cache first, then at-most-once simulation on the bounded pool) and
// assembled in enumeration order, so matrix contents —
// and every figure rendered from them — are bit-for-bit identical at any
// Parallelism and any cache temperature.
func (s *Session) Matrix(ctx context.Context, spec MatrixSpec) (*Matrix, error) {
	spec.Schemes = s.specSchemes(spec)
	s.mu.Lock()
	m := s.assembled(spec)
	s.mu.Unlock()
	if m != nil {
		return m, nil
	}

	// The matrix keeps copies of the axes it is looked up by, so a caller
	// that reuses its spec's slices cannot change an assembled matrix.
	spec.Configs, spec.Schemes, spec.Benches = slices.Clone(spec.Configs), slices.Clone(spec.Schemes), slices.Clone(spec.Benches)
	runs, err := s.engine.runMatrix(ctx, spec, s.opts)
	if err != nil {
		return nil, err
	}
	m = assembleMatrix(spec.Configs, spec.Schemes, spec.Benches, runs, s.opts)
	s.mu.Lock()
	s.matrices = append(s.matrices, m)
	s.mu.Unlock()
	return m, nil
}

// Run resolves a single cell through the session's engine and cache.
func (s *Session) Run(ctx context.Context, cfg core.Config, kind core.SchemeKind, prof workloads.Profile) (Run, error) {
	runs, err := s.engine.RunCells(ctx, []CellJob{{Config: cfg, Scheme: kind, Bench: prof}}, s.opts, nil)
	if err != nil {
		return Run{}, err
	}
	return runs[0], nil
}

// Experiment renders one experiment by id, simulating only the cell sets
// the experiment needs (see experiments.go) — Figure 6 costs the Boom
// matrix, Table 4 costs nothing, and a warm cache costs zero simulation
// for any of them.
func (s *Session) Experiment(ctx context.Context, id string) (string, error) {
	e, ok := experimentByID(id)
	if !ok {
		return "", unknownExperiment(id)
	}
	ms := make([]*Matrix, len(e.needs))
	for i, need := range e.needs {
		m, err := s.Matrix(ctx, need)
		if err != nil {
			return "", err
		}
		ms[i] = m
	}
	return e.render(ms)
}
