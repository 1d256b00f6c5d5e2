// Package cliutil centralizes the flag wiring and process plumbing shared
// by the four cmds (shadowbinding, specrun, spectre, shadowbindingd).
// Every cmd follows the same two-step shape: Register installs the common
// -j/-schemes/-cache/-remote/-remote-compute/-*profile flags,
// and Build finalizes the parsed values into the handles a run starts
// from — resolved scheme axis, assembled cell-cache stack, a lazy Session
// over both, profile collection, and the SIGINT-cancelled root context —
// with one Close undoing all of it.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	sb "repro"
	"repro/internal/trace"
)

// Flags holds the values of the common flags after flag.Parse.
type Flags struct {
	Parallelism int
	SchemesCSV  string
	CacheDir    string
	CPUProfile  string
	MemProfile  string
	// Remote is the -remote farm base URL; when set, OpenCache layers a
	// farm HTTPCache as the slowest tier of the cell cache stack.
	Remote string
	// RemoteCompute is -remote-compute: ask the farm to simulate whole
	// experiments (one stream) and missing cells (one-cell streams)
	// instead of simulating them locally.
	RemoteCompute bool
	// TraceOut is the -trace-out path (registered by RegisterTrace on the
	// cmds that run individual cells).
	TraceOut string
}

// Register installs the common flags on fs (flag.CommandLine in the cmds)
// and returns the struct their values land in. cacheHelp lets a cmd
// qualify what -cache covers for it.
func Register(fs *flag.FlagSet, cacheHelp string) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Parallelism, "j", 0, "worker pool size (0 = all CPUs)")
	fs.StringVar(&f.SchemesCSV, "schemes", "",
		"comma-separated scheme filter (default all: "+strings.Join(sb.SchemeNames(), ",")+")")
	if cacheHelp == "" {
		cacheHelp = "cell cache directory: simulation results are content-addressed and persisted here, so a warm re-run simulates nothing"
	}
	fs.StringVar(&f.CacheDir, "cache", "", cacheHelp)
	fs.StringVar(&f.Remote, "remote", "",
		"shadowbindingd base URL (e.g. http://127.0.0.1:8484): layer the farm's shared cell store under the local cache stack; any network failure degrades to local simulation")
	fs.BoolVar(&f.RemoteCompute, "remote-compute", false,
		"with -remote: delegate experiments and missing cells to the farm (streamed, fleet-wide single-flight, worker fan-out) instead of simulating locally")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this path (go tool pprof)")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an end-of-run heap profile to this path (go tool pprof)")
	return f
}

// RegisterTrace installs the -trace-out flag. Only cmds that run a single
// identifiable cell register it (shadowbinding, specrun); the recorder is
// observational, so a traced run's printed results are identical to an
// untraced run's.
func (f *Flags) RegisterTrace(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a per-cycle JSONL pipeline trace of the run to this path (view with shadowbinding -serve-trace PATH)")
}

// RunTraced runs one cell directly (bypassing the session cell cache — a
// cached result cannot replay its pipeline events) with a JSONL trace
// recorder attached, writing the trace to f.TraceOut. Recorders are
// observational: the returned Run matches an untraced run of the same
// cell exactly.
func (f *Flags) RunTraced(tool string, cfg sb.Config, kind sb.Scheme, bench string, opts sb.Options) sb.Run {
	out, err := os.Create(f.TraceOut)
	if err != nil {
		Fatal(tool, err)
	}
	run, err := sb.RunBenchmarkTraced(cfg, kind, bench, opts, out)
	if err != nil {
		out.Close()
		Fatal(tool, err)
	}
	if err := out.Close(); err != nil {
		Fatal(tool, err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote pipeline trace to %s\n", tool, f.TraceOut)
	return run
}

// TraceDeltaLines renders a sweep's per-scheme trace comparisons against
// the baseline cell of cfgName. When the baseline cell is missing or
// empty the sweep cannot be normalized: the result is one explanatory
// note, never silence. A missing scheme cell likewise gets a note.
func TraceDeltaLines(m *sb.Matrix, cfgName string, schemes []sb.Scheme) []string {
	baseCell, ok := m.Cell(cfgName, sb.Baseline)
	if !ok || len(baseCell.Runs) == 0 {
		return []string{`trace deltas unavailable: no baseline cell in this sweep (add "baseline" to -schemes)`}
	}
	base := sb.TraceOf(baseCell.Runs[0])
	var lines []string
	for _, k := range schemes {
		if k == sb.Baseline {
			continue
		}
		cell, ok := m.Cell(cfgName, k)
		if !ok || len(cell.Runs) == 0 {
			lines = append(lines, fmt.Sprintf("trace delta unavailable for %s: scheme cell missing from this sweep", k))
			continue
		}
		lines = append(lines, trace.Compare(base, sb.TraceOf(cell.Runs[0])).String())
	}
	return lines
}

// StartProfiles starts the -cpuprofile/-memprofile collection and returns
// the function that finalizes both; the caller defers it around the whole
// run. Either flag may be empty. The heap profile is written at stop time
// after a GC, so it reflects live steady-state memory — the
// allocation-free-hot-loop claim the zero-alloc test pins is directly
// inspectable from it.
func (f *Flags) StartProfiles(tool string) (stop func()) {
	var cpuOut *os.File
	if f.CPUProfile != "" {
		var err error
		cpuOut, err = os.Create(f.CPUProfile)
		if err != nil {
			Fatal(tool, err)
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			Fatal(tool, err)
		}
	}
	return func() {
		if cpuOut != nil {
			pprof.StopCPUProfile()
			if err := cpuOut.Close(); err != nil {
				Fatal(tool, err)
			}
		}
		if f.MemProfile != "" {
			memOut, err := os.Create(f.MemProfile)
			if err != nil {
				Fatal(tool, err)
			}
			runtime.GC() // drop dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(memOut); err != nil {
				Fatal(tool, err)
			}
			if err := memOut.Close(); err != nil {
				Fatal(tool, err)
			}
		}
	}
}

// Schemes parses the -schemes filter; withBaseline prepends the baseline
// when absent (figures normalize against it).
func (f *Flags) Schemes(withBaseline bool) ([]sb.Scheme, error) {
	schemes, err := sb.ParseSchemes(f.SchemesCSV)
	if err != nil {
		return nil, err
	}
	if withBaseline {
		schemes = sb.WithBaseline(schemes)
	}
	return schemes, nil
}

// OpenCache opens the cell cache stack selected by -cache and -remote
// through the facade's one constructor: in-memory LRU, then the on-disk
// JSON store (-cache), then the farm client (-remote), fastest-first.
// Without either flag it returns nil and a Session uses its private
// in-memory LRU.
func (f *Flags) OpenCache() (sb.CellCache, error) {
	if f.RemoteCompute && f.Remote == "" {
		return nil, fmt.Errorf("cliutil: -remote-compute needs -remote")
	}
	if !f.CacheEnabled() {
		return nil, nil
	}
	return sb.OpenCache(sb.CacheOptions{
		Dir:           f.CacheDir,
		Remote:        f.Remote,
		RemoteCompute: f.RemoteCompute,
	})
}

// Handles is everything Build assembles from the parsed flags — the
// uniform starting state of all four cmds. Fields a cmd does not need
// (the daemon never touches Session) cost nothing: the session is lazy
// and the cache stack only dials out when used.
type Handles struct {
	// Ctx is the SIGINT-cancelled root context.
	Ctx context.Context
	// Options is the cmd's run bounds with -j applied.
	Options sb.Options
	// Schemes is the resolved -schemes axis (baseline prepended when the
	// cmd's figures normalize against it).
	Schemes []sb.Scheme
	// Cache is the -cache/-remote stack; nil when neither flag was given
	// (the Session then uses its private in-memory LRU).
	Cache sb.CellCache
	// Session is a lazy evaluation session over Options, Schemes, Cache.
	Session *sb.Session

	stops []func()
}

// Close releases everything Build acquired — profiles flushed, signal
// handling restored — in reverse order. Defer it right after Build.
func (h *Handles) Close() {
	for i := len(h.stops) - 1; i >= 0; i-- {
		h.stops[i]()
	}
}

// Build finalizes the parsed flags into run handles. Call once after
// flag.Parse, with the cmd's base options (warmup/measure/scale applied);
// withBaseline prepends the baseline to the scheme axis for cmds whose
// figures normalize against it. CPU profiling starts here — defer Close
// to finalize it.
func (f *Flags) Build(tool string, opts sb.Options, withBaseline bool) (*Handles, error) {
	schemes, err := f.Schemes(withBaseline)
	if err != nil {
		return nil, err
	}
	cache, err := f.OpenCache()
	if err != nil {
		return nil, err
	}
	opts.Parallelism = f.Parallelism
	h := &Handles{Options: opts, Schemes: schemes, Cache: cache}
	h.stops = append(h.stops, f.StartProfiles(tool))
	ctx, stop := SignalContext()
	h.Ctx = ctx
	h.stops = append(h.stops, stop)
	h.Session = sb.NewSession(sb.SessionConfig{Options: opts, Schemes: schemes, Cache: cache})
	return h, nil
}

// CacheEnabled reports whether any persistent or shared cache layer was
// selected — the condition under which the cmds print the cache summary
// line (the one the CI cache and farm smoke steps assert on).
func (f *Flags) CacheEnabled() bool {
	return f.CacheDir != "" || f.Remote != ""
}

// SignalContext returns a context cancelled by SIGINT, so Ctrl-C stops
// worker pools between cell runs instead of killing the process
// mid-write. Call stop to restore default signal handling.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// PrintCacheSummary reports a session's cell accounting to stderr — the
// line the CI cache smoke step asserts on ("0 simulated" on a warm run).
func PrintCacheSummary(tool string, st sb.SessionStats) {
	fmt.Fprintf(os.Stderr, "%s: cache: %d cells, %d hits (%.1f%%), %d simulated\n",
		tool, st.Cells, st.Hits, 100*st.HitRate(), st.Simulated)
}

// Fatal reports err prefixed with the tool name and exits non-zero.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
