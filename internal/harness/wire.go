package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/workloads"
)

// The experiment wire form. An ExperimentJobWire is the serializable face
// of one MatrixSpec and its run bounds: everything that participates in
// the cell fingerprints — the full configurations, the schemes' names
// (stable across kind renumbering, exactly like the fingerprint and
// the on-disk cache entries), the full workload profiles, and the
// result-affecting option fields. Parallelism and Progress never cross the
// wire: they change wall-clock behaviour on whichever process simulates,
// never results. The farm protocol (internal/farm) posts this form to its
// one compute endpoint — a single cell travels as a one-cell experiment —
// and a server that resolves it through its own Engine arrives at the same
// content-addressed keys as the client, because the fingerprint hashes
// exactly the fields carried here.

// CellKey returns the content-addressed key of one (job, options) cell
// under the default simulator version stamp — the identity every farm
// process derives for the job, and the one streamed experiment cells are
// validated against on the way back.
func CellKey(job CellJob, opts Options) string {
	return CellFingerprint(core.SimVersion, job.Config, job.Scheme, job.Bench, opts)
}

// ExperimentJobWire is the serializable form of one experiment request.
// The receiver enumerates the cross product in the canonical order
// (config-major, then scheme, then benchmark) and arrives at exactly the
// per-cell keys the sender derives, because every enumerated cell carries
// exactly the fingerprinted fields.
type ExperimentJobWire struct {
	Name    string              `json:"name"`
	Configs []core.Config       `json:"configs"`
	Schemes []string            `json:"schemes"`
	Benches []workloads.Profile `json:"benches"`
	Scale   int                 `json:"scale"`
	Warmup  uint64              `json:"warmup"`
	Measure uint64              `json:"measure"`
}

// maxWireCells bounds the cross product one experiment request may ask a
// server to enumerate — the Boom matrix is 528 cells and all of
// `-experiment all` is 756, so 8192 is generous headroom, not a
// constraint.
const maxWireCells = 8192

// WireExperiment flattens a resolved spec (Schemes filled — the session
// resolves its scheme axis before wiring) and its run bounds.
func WireExperiment(spec MatrixSpec, opts Options) ExperimentJobWire {
	names := make([]string, len(spec.Schemes))
	for i, k := range spec.Schemes {
		names[i] = k.String()
	}
	return ExperimentJobWire{
		Name:    spec.Name,
		Configs: append([]core.Config(nil), spec.Configs...),
		Schemes: names,
		Benches: append([]workloads.Profile(nil), spec.Benches...),
		Scale:   max(opts.Scale, 1), // CellFingerprint and RunOne clamp the same way
		Warmup:  opts.WarmupCycles,
		Measure: opts.MeasureCycles,
	}
}

// Resolve validates the wire form and enumerates its cell jobs in the
// canonical order. Scheme names must resolve in this process's roster,
// and configurations and workload profiles must pass their Validate
// bounds — a request from a binary with a different scheme roster, a
// corrupted body or a hostile value is an error here, not a crash or an
// unbounded allocation inside the simulator — and a degenerate or
// oversized cross product is rejected before any enumeration.
func (w ExperimentJobWire) Resolve() ([]CellJob, Options, error) {
	if len(w.Configs) == 0 || len(w.Schemes) == 0 || len(w.Benches) == 0 {
		return nil, Options{}, fmt.Errorf(
			"harness: wire experiment %q: empty axis (%d configs × %d schemes × %d benches)",
			w.Name, len(w.Configs), len(w.Schemes), len(w.Benches))
	}
	if n := len(w.Configs) * len(w.Schemes) * len(w.Benches); n > maxWireCells {
		return nil, Options{}, fmt.Errorf("harness: wire experiment %q: %d cells exceeds the %d-cell limit",
			w.Name, n, maxWireCells)
	}
	schemes := make([]core.SchemeKind, len(w.Schemes))
	for i, name := range w.Schemes {
		kind, ok := core.SchemeKindByName(name)
		if !ok {
			return nil, Options{}, fmt.Errorf("harness: wire experiment %q: unknown scheme %q (known: %s)",
				w.Name, name, strings.Join(core.SchemeNames(), ", "))
		}
		schemes[i] = kind
	}
	for i := range w.Configs {
		if err := w.Configs[i].Validate(); err != nil {
			return nil, Options{}, fmt.Errorf("harness: wire experiment %q: %w", w.Name, err)
		}
	}
	for _, p := range w.Benches {
		if err := p.Validate(); err != nil {
			return nil, Options{}, fmt.Errorf("harness: wire experiment %q: %w", w.Name, err)
		}
	}
	if w.Measure == 0 {
		return nil, Options{}, fmt.Errorf("harness: wire experiment %q: zero measurement window", w.Name)
	}
	opts := Options{Scale: max(w.Scale, 1), WarmupCycles: w.Warmup, MeasureCycles: w.Measure}
	return enumerateJobs(w.Configs, schemes, w.Benches), opts, nil
}
