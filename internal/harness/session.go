package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
// registered scheme: the cell set behind the extended (6-scheme)
// comparison, complete regardless of the session's -schemes filter. It
// shares the "boom" name deliberately: the cells are the same
// content-addressed jobs, so a session whose scheme axis is already every
// registered scheme reuses its Boom matrix outright.
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
	// registered scheme. The set is used exactly as given — callers that
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
	matrices map[string]*Matrix
}

// NewSession opens a session. The zero SessionConfig is usable: default
// options semantics are the caller's (pass DefaultOptions() for the
// standard windows), every registered scheme, private in-memory cache.
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
		opts:     cfg.Options,
		schemes:  append([]core.SchemeKind(nil), schemes...),
		engine:   NewEngine(cache, cfg.Version),
		matrices: make(map[string]*Matrix),
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

// matrixKey content-addresses an assembled matrix, so repeated experiment
// requests reuse the aggregation (cells are deduplicated by the engine
// regardless; this only skips re-assembly and repeated summary logging).
func (s *Session) matrixKey(spec MatrixSpec) string {
	schemes := s.specSchemes(spec)
	var in struct {
		Configs []string            `json:"configs"`
		Schemes []string            `json:"schemes"`
		Benches []workloads.Profile `json:"benches"`
	}
	for _, cfg := range spec.Configs {
		in.Configs = append(in.Configs, cfg.Fingerprint())
	}
	for _, k := range schemes {
		in.Schemes = append(in.Schemes, k.String())
	}
	in.Benches = spec.Benches
	data, err := json.Marshal(in)
	if err != nil {
		panic(fmt.Sprintf("harness: matrix key %q: %v", spec.Name, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// enumerateJobs expands the cross product in the canonical enumeration
// order (config-major, then scheme, then benchmark) shared with matrix
// assembly.
func enumerateJobs(configs []core.Config, schemes []core.SchemeKind, benches []workloads.Profile) []CellJob {
	jobs := make([]CellJob, 0, len(configs)*len(schemes)*len(benches))
	for _, cfg := range configs {
		for _, kind := range schemes {
			for _, prof := range benches {
				jobs = append(jobs, CellJob{Config: cfg, Scheme: kind, Bench: prof})
			}
		}
	}
	return jobs
}

// Matrix materializes one spec: the cells the spec needs are resolved
// through the engine (cache first, then at-most-once simulation on the
// bounded pool) and assembled in enumeration order, so matrix contents —
// and every figure rendered from them — are bit-for-bit identical at any
// Parallelism and any cache temperature.
func (s *Session) Matrix(ctx context.Context, spec MatrixSpec) (*Matrix, error) {
	key := s.matrixKey(spec)
	s.mu.Lock()
	if m, ok := s.matrices[key]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()

	schemes := s.specSchemes(spec)
	// With an experiment-capable cache (the farm client in compute mode),
	// one streaming request warms the local layers with the whole cell set
	// before the per-cell walk — the walk then resolves entirely from the
	// fast layers, so a cold remote matrix is one request, not one per cell.
	resolved := spec
	resolved.Schemes = schemes
	s.engine.PrefetchExperiment(ctx, resolved, s.opts)
	runs, err := s.engine.RunCells(ctx, enumerateJobs(spec.Configs, schemes, spec.Benches), s.opts, nil)
	if err != nil {
		return nil, err
	}
	m := assembleMatrix(spec.Configs, schemes, spec.Benches, runs, s.opts)
	s.mu.Lock()
	s.matrices[key] = m
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

// Experiment renders one registered experiment by id, simulating only the
// cell sets the experiment declared (see RegisterExperiment) — Figure 6
// costs the Boom matrix, Table 4 costs nothing, and a warm cache costs
// zero simulation for any of them.
func (s *Session) Experiment(ctx context.Context, id string) (string, error) {
	spec, ok := experimentByID(id)
	if !ok {
		return "", unknownExperiment(id)
	}
	ms := make([]*Matrix, len(spec.Needs))
	for i, need := range spec.Needs {
		m, err := s.Matrix(ctx, need)
		if err != nil {
			return "", err
		}
		ms[i] = m
	}
	return spec.Render(ms)
}
