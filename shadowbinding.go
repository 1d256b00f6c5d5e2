// Package shadowbinding is the public facade of the ShadowBinding
// reproduction: a cycle-level out-of-order CPU model with the paper's
// three in-core secure speculation microarchitectures (STT-Rename,
// STT-Issue, NDA-Permissive) plus the literature's two classic
// comparison points (Delay-on-Miss, InvisiSpec-style invisible loads), a
// SPEC CPU2017 proxy suite, an analytical synthesis model for
// timing/area/power, Spectre v1 / SSB security checks, and an evaluation
// driver that regenerates every table and figure of the paper (Kvalsvik
// & Själander, MICRO 2025) plus the extended 6-scheme comparison
// (fig_ext).
//
// Quick start — open a Session and render one experiment; only the cells
// that experiment needs are simulated, each at most once:
//
//	s := shadowbinding.NewSession(shadowbinding.SessionConfig{Options: shadowbinding.DefaultOptions()})
//	fig, err := s.Experiment(ctx, "fig6")
//
// or run a single benchmark:
//
//	cfg := shadowbinding.MegaConfig()
//	run, err := shadowbinding.RunBenchmark(cfg, shadowbinding.STTIssue, "538.imagick", shadowbinding.DefaultOptions())
//
// A Session is the unit of evaluation: every (configuration, scheme,
// benchmark, options) cell is an independent, content-addressed job —
// keyed by a fingerprint of its inputs plus a simulator version stamp —
// executed at most once per key on a bounded worker pool
// (Options.Parallelism; zero means all CPUs), handed to the request that
// asked for it as it completes, and persisted through a pluggable CellCache — OpenCache
// assembles the standard stack: an in-memory LRU, over an on-disk cell
// record store (CacheOptions.Dir), over a shared farm (CacheOptions.Remote, with
// RemoteCompute asking the farm to simulate misses and stream whole
// experiments) — so a warm re-run simulates nothing. Results are deterministic:
// identical matrices and figure text at any parallelism and any cache
// temperature.
//
// Schemes and experiments are fixed rosters: one table of the six schemes
// in internal/core and one of the eleven experiments in internal/harness.
// Everything here — the Schemes/SecureSchemes/ExperimentIDs enumerations,
// SchemeByName, every Session — reads them, so every cmd and example
// follows the two tables.
package shadowbinding

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/diffsim"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported core types.
type (
	// Config parameterizes a core (Table 1 configurations via the
	// constructors below).
	Config = core.Config
	// Scheme identifies a secure speculation scheme.
	Scheme = core.SchemeKind
	// Options bounds evaluation runs.
	Options = harness.Options
	// Run is one (benchmark, configuration, scheme) measurement.
	Run = harness.Run
	// Matrix is a full (configuration × scheme × benchmark) sweep.
	Matrix = harness.Matrix
	// Benchmark is a SPEC CPU2017 proxy profile.
	Benchmark = workloads.Profile
	// AttackResult is a Spectre v1 verdict.
	AttackResult = attack.Result
	// TraceReport is a digested per-run KPI view.
	TraceReport = trace.Report

	// Session is a long-lived, lazy evaluation context over the cell
	// engine: matrices and experiments are materialized on demand from
	// content-addressed, cacheable cells.
	Session = harness.Session
	// SessionConfig parameterizes NewSession.
	SessionConfig = harness.SessionConfig
	// SessionStats is a session's cell accounting (requests, cache hits,
	// simulations, simulated cycles).
	SessionStats = harness.SessionStats
	// CellCache persists content-addressed cell results.
	CellCache = harness.CellCache
	// CellResult is one completed cell, as the engine's RunCells hands it
	// to its caller.
	CellResult = harness.CellResult
	// MatrixSpec declares a cell set as a configurations × benchmarks
	// cross product (schemes come from the session).
	MatrixSpec = harness.MatrixSpec

	// CellJob names one content-addressed simulation cell.
	CellJob = harness.CellJob
	// ExperimentJobWire is the serializable form of one experiment request
	// — what POST /v1/experiments, the farm's one compute route, carries
	// (a single cell travels as a one-cell experiment); the receiver
	// enumerates the identical per-cell key set.
	ExperimentJobWire = harness.ExperimentJobWire
	// ExperimentResolver is the optional CellCache extension behind
	// streamed experiments: a cache that can resolve a whole MatrixSpec in
	// one round trip (the farm client in compute mode implements it).
	ExperimentResolver = harness.ExperimentResolver

	// FarmServer is the networked cell-farm service (cmd/shadowbindingd):
	// remote CellCache on GET/PUT, streamed compute with fleet-wide
	// single-flight on POST /v1/experiments, rendezvous-hashed worker
	// fan-out with health tracking, /v1/stats counters with latency
	// percentiles.
	FarmServer = farm.Server
	// FarmServerConfig parameterizes NewFarmServer.
	FarmServerConfig = farm.ServerConfig
	// FarmStats is the farm server's counter snapshot.
	FarmStats = farm.Stats
	// StreamClient consumes the farm's experiment stream endpoint
	// directly — OpenCache with RemoteCompute uses it under the hood.
	StreamClient = farm.StreamClient
	// StreamError is the typed failure of an experiment stream; its
	// Delivered count marks how many cells arrived (and remain valid).
	StreamError = farm.StreamError
)

// CacheOptions selects the cell-cache stack OpenCache assembles. The zero
// value is valid and yields a process-private in-memory LRU.
type CacheOptions struct {
	// Dir adds a persistent on-disk cell record layer under the memory layer, so
	// cells survive across processes (the cmds' -cache flag).
	Dir string
	// Remote adds a farm-backed layer (base URL, e.g.
	// "http://127.0.0.1:8484") as the slowest tier — a shared fleet-wide
	// store (the cmds' -remote flag).
	Remote string
	// RemoteCompute additionally asks the farm to simulate missing cells —
	// single cells on miss, and whole experiments as one streaming request
	// (the cmds' -remote-compute flag). Requires Remote.
	RemoteCompute bool
	// MemoryCap bounds the in-memory LRU layer in entries (zero:
	// DefaultMemoryCacheSize).
	MemoryCap int
}

// OpenCache assembles the standard cell-cache stack from options: an
// in-memory LRU, over an on-disk store when Dir is set, over a farm client
// when Remote is set — fastest-first, with every hit backfilling the
// faster layers. With RemoteCompute a session streams each matrix in one
// request: the streamed cells land directly in the matrix and are stored
// on disk when Dir is set, but not in the memory layer. This is the one
// cache constructor.
func OpenCache(opt CacheOptions) (CellCache, error) {
	if opt.RemoteCompute && opt.Remote == "" {
		return nil, fmt.Errorf("shadowbinding: CacheOptions.RemoteCompute needs a Remote farm URL")
	}
	layers := []harness.CellCache{harness.NewMemoryCache(opt.MemoryCap)}
	if opt.Dir != "" {
		disk, err := harness.NewDiskCache(opt.Dir)
		if err != nil {
			return nil, err
		}
		layers = append(layers, disk)
	}
	if opt.Remote != "" {
		layers = append(layers, farm.NewHTTPCache(opt.Remote, farm.HTTPCacheOptions{Compute: opt.RemoteCompute}))
	}
	if len(layers) == 1 {
		return layers[0], nil
	}
	return harness.NewTieredCache(layers...), nil
}

// DefaultMemoryCacheSize is the in-memory layer's default entry bound.
const DefaultMemoryCacheSize = harness.DefaultMemoryCacheSize

// ErrStreamTruncated marks an experiment stream that died before its
// trailer; errors.Is against a StreamClient failure detects it.
var ErrStreamTruncated = farm.ErrStreamTruncated

// The Session API surface, backed by the harness cell engine.
var (
	// NewSession opens a lazy evaluation session.
	NewSession = harness.NewSession

	// NewFarmServer builds the cell-farm HTTP service; serve its
	// Handler() with any http.Server (see cmd/shadowbindingd).
	NewFarmServer = farm.NewServer
	// NewStreamClient returns a client for the farm's experiment stream
	// endpoint (nil *http.Client for defaults).
	NewStreamClient = farm.NewStreamClient
	// WireExperiment flattens a resolved MatrixSpec (Schemes filled) and
	// its run bounds into the experiment wire form.
	WireExperiment = harness.WireExperiment
	// CellKey derives the content-addressed key of one (job, options)
	// cell — the identity streamed experiment cells validate against.
	CellKey = harness.CellKey

	// ExperimentIDs lists the experiment ids accepted by
	// Session.Experiment, in presentation order.
	ExperimentIDs = harness.ExperimentIDs

	// BoomSpec is the paper's main matrix (4 BOOM configs × full suite);
	// Gem5Spec the Section 8.6 comparison matrix; ExtSpec the Boom matrix
	// pinned to every scheme (the fig_ext cell set).
	BoomSpec = harness.BoomSpec
	Gem5Spec = harness.Gem5Spec
	ExtSpec  = harness.ExtSpec
)

// SimVersion is the simulator version stamp embedded in every cell
// fingerprint; cached results from other versions are never served.
const SimVersion = core.SimVersion

// The paper's four schemes (Section 7) plus the two classic alternatives
// the secure-speculation literature compares against: Delay-on-Miss
// (Sakalis et al.) and InvisiSpec-style invisible loads (Yan et al.).
const (
	Baseline   = core.KindBaseline
	STTRename  = core.KindSTTRename
	STTIssue   = core.KindSTTIssue
	NDA        = core.KindNDA
	DoM        = core.KindDoM
	InvisiSpec = core.KindInvisiSpec
)

// Table 1 configurations.
var (
	SmallConfig  = core.SmallConfig
	MediumConfig = core.MediumConfig
	LargeConfig  = core.LargeConfig
	MegaConfig   = core.MegaConfig
	Configs      = core.Configs
	ConfigByName = core.ConfigByName

	// Scheme enumeration, backed by the core roster.
	Schemes       = core.SchemeKinds
	SecureSchemes = core.SecureSchemeKinds
	SchemeNames   = core.SchemeNames
)

// SchemeByName resolves one scheme name ("stt-issue", ...).
func SchemeByName(name string) (Scheme, error) {
	k, ok := core.SchemeKindByName(name)
	if !ok {
		return 0, fmt.Errorf("shadowbinding: unknown scheme %q (known: %s)",
			name, strings.Join(core.SchemeNames(), ", "))
	}
	return k, nil
}

// ParseSchemes parses a comma-separated scheme filter such as
// "stt-rename,nda", dropping duplicates. An empty string selects every
// scheme.
func ParseSchemes(csv string) ([]Scheme, error) {
	if strings.TrimSpace(csv) == "" {
		return Schemes(), nil
	}
	var out []Scheme
	seen := make(map[Scheme]bool)
	for _, name := range strings.Split(csv, ",") {
		k, err := SchemeByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// WithBaseline prepends the baseline when absent: every figure and
// comparison normalizes against it, so a filtered sweep still needs the
// baseline cells.
func WithBaseline(schemes []Scheme) []Scheme {
	for _, k := range schemes {
		if k == Baseline {
			return schemes
		}
	}
	return append([]Scheme{Baseline}, schemes...)
}

// DefaultOptions returns evaluation run bounds (warmup + fixed measurement
// window per run).
func DefaultOptions() Options { return harness.DefaultOptions() }

// Benchmarks returns the 22-benchmark SPEC CPU2017 proxy suite.
func Benchmarks() []Benchmark { return workloads.Suite() }

// BenchmarkByName returns one proxy profile.
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// RunBenchmark measures one (configuration, scheme, benchmark) cell.
func RunBenchmark(cfg Config, kind Scheme, bench string, opts Options) (Run, error) {
	p, err := workloads.ByName(bench)
	if err != nil {
		return Run{}, err
	}
	return harness.RunOne(cfg, kind, p, opts)
}

// RunBenchmarkTraced is RunBenchmark with a per-cycle JSONL trace written
// to w (meta line first, then one stage record per line — see
// internal/trace). The recorder is observational: the returned Run is
// identical to an untraced one.
func RunBenchmarkTraced(cfg Config, kind Scheme, bench string, opts Options, w io.Writer) (Run, error) {
	p, err := workloads.ByName(bench)
	if err != nil {
		return Run{}, err
	}
	rec, err := trace.NewRecorder(w, trace.Meta{
		Bench:  bench,
		Config: cfg.Name,
		Scheme: kind.String(),
		Warmup: opts.WarmupCycles,
		Budget: opts.MeasureCycles,
	})
	if err != nil {
		return Run{}, err
	}
	run, err := harness.RunOneRecorded(cfg, kind, p, opts, rec)
	if ferr := rec.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("shadowbinding: flush trace: %w", ferr)
	}
	return run, err
}

// The trace viewer (internal/trace): RenderTraceHTML renders a
// -trace-out JSONL file as the self-contained viewer page; ServeTrace
// serves it over HTTP, re-rendering the file on each request.
var (
	RenderTraceHTML = trace.RenderTraceFile
	ServeTrace      = trace.ServeTrace
)

// TraceOf digests a run's counters into TraceDoctor-style KPIs.
func TraceOf(r Run) TraceReport { return trace.New(r.Scheme, r.Stats) }

// SpectreV1 runs the Spectre v1 proof of concept under one scheme.
func SpectreV1(cfg Config, kind Scheme) (AttackResult, error) {
	return attack.RunSpectreV1(cfg, kind)
}

// SpectreV1All runs the attack under every scheme.
func SpectreV1All(cfg Config) ([]AttackResult, error) { return attack.RunAll(cfg) }

// SpectreSSB runs the Speculative Store Bypass (Spectre v4) attack under
// one scheme — the D-shadow counterpart of SpectreV1.
func SpectreSSB(cfg Config, kind Scheme) (AttackResult, error) {
	return attack.RunSpectreSSB(cfg, kind)
}

// Differential fuzzing (internal/diffsim): a seeded random-program oracle
// that cross-checks every scheme against the in-order architectural
// reference. Every case is a reproducible (seed, feature mask) pair; a
// failure's error message embeds the replay invocation.
type (
	// FuzzCase identifies one differential fuzz case.
	FuzzCase = diffsim.Case
	// FuzzFeatureMask selects the behaviours a generated program mixes.
	FuzzFeatureMask = diffsim.FeatureMask
)

// FuzzFeatAll enables every generator feature.
const FuzzFeatAll = diffsim.FeatAll

// FuzzCaseForIndex derives the i'th case of a campaign from its base seed.
var FuzzCaseForIndex = diffsim.CaseForIndex

// FuzzConfigForCase returns the Table 1 configuration a case runs on
// (derived from the seed, so replays select the same core).
var FuzzConfigForCase = diffsim.ConfigForCase

// FuzzCampaign checks n generated programs (cases i in [0,n) of the base
// seed) against every scheme on a parallelism-bounded worker pool. The
// first failing case is returned with its replay command embedded
// (fail-fast; lowest index among the cases that ran).
func FuzzCampaign(ctx context.Context, baseSeed uint64, n, parallelism int, progress func(format string, args ...any)) error {
	return diffsim.Campaign(ctx, baseSeed, n, parallelism, progress)
}

// ReplayFuzzCase re-runs one case — typically transcribed from a campaign
// failure message — through the full differential oracle.
func ReplayFuzzCase(c FuzzCase) error {
	return diffsim.CheckCase(diffsim.ConfigForCase(c), core.SchemeKinds(), c)
}

// SecurityReport runs the Spectre v1 matrix on the Mega configuration and
// renders the verdict table (the paper's Section 7 check).
func SecurityReport() (string, error) {
	results, err := attack.RunAll(core.MegaConfig())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Spectre v1 (bounds-check bypass) on the Mega configuration:\n")
	fmt.Fprintf(&b, "%-12s %-8s %-14s %s\n", "scheme", "leaked", "recovered", "hot probe slots")
	for _, r := range results {
		rec := "-"
		if r.GuessedSecret >= 0 {
			rec = fmt.Sprintf("%d (planted %d)", r.GuessedSecret, attack.SecretValue&63)
		}
		fmt.Fprintf(&b, "%-12s %-8v %-14s %v\n", r.Scheme, r.Leaked, rec, r.HotSlots)
	}
	fmt.Fprintf(&b, "\nSpeculative Store Bypass (Spectre v4) on the Mega configuration:\n")
	fmt.Fprintf(&b, "%-12s %-8s %-14s %s\n", "scheme", "leaked", "recovered", "hot probe slots")
	for _, kind := range core.SchemeKinds() {
		r, err := attack.RunSpectreSSB(core.MegaConfig(), kind)
		if err != nil {
			return "", err
		}
		rec := "-"
		if r.GuessedSecret >= 0 {
			rec = fmt.Sprintf("%d (planted %d)", r.GuessedSecret, attack.SSBSecret&63)
		}
		fmt.Fprintf(&b, "%-12s %-8v %-14s %v\n", r.Scheme, r.Leaked, rec, r.HotSlots)
	}
	return b.String(), nil
}
