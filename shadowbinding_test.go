package shadowbinding

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRunBenchmarkFacade(t *testing.T) {
	opts := DefaultOptions()
	opts.WarmupCycles = 2_000
	opts.MeasureCycles = 8_000
	r, err := RunBenchmark(MegaConfig(), STTIssue, "503.bwaves", opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Errorf("IPC = %v", r.IPC)
	}
	rep := TraceOf(r)
	if rep.Scheme != STTIssue {
		t.Errorf("trace scheme = %v", rep.Scheme)
	}
	if _, err := RunBenchmark(MegaConfig(), NDA, "999.none", opts); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSchemeFacade(t *testing.T) {
	if got := len(Schemes()); got != 6 {
		t.Errorf("registered schemes = %d, want 6", got)
	}
	if got := len(SecureSchemes()); got != 5 {
		t.Errorf("secure schemes = %d, want 5", got)
	}
	k, err := SchemeByName("stt-issue")
	if err != nil || k != STTIssue {
		t.Errorf("SchemeByName(stt-issue) = %v, %v", k, err)
	}
	if k, err := SchemeByName("dom"); err != nil || k != DoM {
		t.Errorf("SchemeByName(dom) = %v, %v", k, err)
	}
	if k, err := SchemeByName("invisispec"); err != nil || k != InvisiSpec {
		t.Errorf("SchemeByName(invisispec) = %v, %v", k, err)
	}
	if _, err := SchemeByName("stt-magic"); err == nil {
		t.Error("unknown scheme name accepted")
	}

	got, err := ParseSchemes(" nda, baseline ,nda")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != NDA || got[1] != Baseline {
		t.Errorf("ParseSchemes must dedupe in order, got %v", got)
	}
	if ws := WithBaseline([]Scheme{NDA}); len(ws) != 2 || ws[0] != Baseline || ws[1] != NDA {
		t.Errorf("WithBaseline = %v", ws)
	}
	if ws := WithBaseline(got); len(ws) != 2 {
		t.Errorf("WithBaseline must not duplicate an existing baseline: %v", ws)
	}
	all, err := ParseSchemes("")
	if err != nil || len(all) != len(Schemes()) {
		t.Errorf("empty filter = %v, %v; want all schemes", all, err)
	}
	if _, err := ParseSchemes("nda,bogus"); err == nil {
		t.Error("bogus filter accepted")
	}
}

// sweep materializes one (configs × schemes × benches) matrix through a
// fresh session, so every call simulates every cell.
func sweep(configs []Config, schemes []Scheme, benches []Benchmark, opts Options) (*Matrix, error) {
	s := NewSession(SessionConfig{Options: opts, Schemes: schemes})
	return s.Matrix(context.Background(), MatrixSpec{Name: "sweep", Configs: configs, Benches: benches})
}

// TestRunMatrixFacade: a scheme × configuration sweep through the facade
// Session fills every swept cell.
func TestRunMatrixFacade(t *testing.T) {
	opts := DefaultOptions()
	opts.WarmupCycles = 2_000
	opts.MeasureCycles = 8_000
	opts.Parallelism = 4
	prof, err := BenchmarkByName("503.bwaves")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep([]Config{MegaConfig()}, Schemes(), []Benchmark{prof}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Schemes() {
		if m.MeanIPC("mega", k) <= 0 {
			t.Errorf("%s: no IPC in facade matrix", k)
		}
	}
}

func TestBenchmarksFacade(t *testing.T) {
	if got := len(Benchmarks()); got != 22 {
		t.Errorf("suite size = %d, want 22", got)
	}
	if _, err := BenchmarkByName("505.mcf"); err != nil {
		t.Error(err)
	}
}

func TestSpectreFacade(t *testing.T) {
	r, err := SpectreV1(MegaConfig(), Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Leaked {
		t.Error("baseline must leak")
	}
	report, err := SecurityReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"baseline", "stt-rename", "stt-issue", "nda", "dom", "invisispec"} {
		if !strings.Contains(report, scheme) {
			t.Errorf("security report missing %s:\n%s", scheme, report)
		}
	}
}

// TestSessionFacade drives the Session API end to end through the public
// surface: lazy experiments, cell accounting, and the table-backed id
// enumeration (whose historical order is pinned — cmd output depends on
// it).
func TestSessionFacade(t *testing.T) {
	want := []string{"table1", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "table3", "table4", "table5", "fig_ext"}
	got := ExperimentIDs()
	if len(got) != len(want) {
		t.Fatalf("ExperimentIDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExperimentIDs()[%d] = %q, want %q (presentation order is pinned)", i, got[i], want[i])
		}
	}

	opts := DefaultOptions()
	opts.WarmupCycles = 1_000
	opts.MeasureCycles = 3_000
	s := NewSession(SessionConfig{Options: opts})
	ctx := context.Background()

	// Analytical experiments simulate nothing.
	out, err := s.Experiment(ctx, "table4")
	if err != nil || len(out) < 50 {
		t.Fatalf("table4 = %q, %v", out, err)
	}
	if st := s.Stats(); st.Cells != 0 {
		t.Errorf("table4 requested %d cells, want 0", st.Cells)
	}

	// A custom spec through the facade: one config, one benchmark.
	prof, err := BenchmarkByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Matrix(ctx, MatrixSpec{Name: "facade", Configs: []Config{MegaConfig()}, Benches: []Benchmark{prof}})
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanIPC("mega", Baseline) <= 0 {
		t.Error("facade matrix missing baseline IPC")
	}
	if st := s.Stats(); st.Simulated != len(Schemes()) {
		t.Errorf("simulated %d cells, want %d", st.Simulated, len(Schemes()))
	}
	// Re-running a single cell hits the session cache.
	if _, err := s.Run(ctx, MegaConfig(), Baseline, prof); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Errorf("re-run cell hits = %d, want 1", st.Hits)
	}
}

func TestExperimentIDs(t *testing.T) {
	opts := DefaultOptions()
	opts.WarmupCycles = 1_000
	opts.MeasureCycles = 3_000
	// A tiny evaluation is enough to exercise the dispatch table.
	s := NewSession(SessionConfig{Options: opts})
	ctx := context.Background()
	for _, id := range ExperimentIDs() {
		out, err := s.Experiment(ctx, id)
		if err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if len(out) < 50 {
			t.Errorf("%s: short output", id)
		}
	}
	if _, err := s.Experiment(ctx, "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestOpenCacheFacade: the one cache constructor assembles every standard
// stack, validates its options, and feeds a Session end to end.
func TestOpenCacheFacade(t *testing.T) {
	// Zero options: a usable in-memory cache.
	mem, err := OpenCache(CacheOptions{})
	if err != nil || mem == nil {
		t.Fatalf("zero options: %v", err)
	}

	// Dir: a persistent layer — cells written through one cache are
	// readable through a second one over the same directory.
	dir := t.TempDir()
	c1, err := OpenCache(CacheOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WarmupCycles = 1_000
	opts.MeasureCycles = 3_000
	s1 := NewSession(SessionConfig{Options: opts, Cache: c1})
	prof, err := BenchmarkByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(context.Background(), MegaConfig(), Baseline, prof); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(CacheOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(SessionConfig{Options: opts, Cache: c2})
	if _, err := s2.Run(context.Background(), MegaConfig(), Baseline, prof); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Simulated != 0 || st.Hits != 1 {
		t.Fatalf("disk layer not shared across caches: %+v", st)
	}

	// RemoteCompute without Remote is a configuration error, not a
	// silently local cache.
	if _, err := OpenCache(CacheOptions{RemoteCompute: true}); err == nil {
		t.Fatal("RemoteCompute without Remote accepted")
	}

	// Remote: the farm layer slots in as the slowest tier.
	if _, err := OpenCache(CacheOptions{Remote: "http://127.0.0.1:1", RemoteCompute: true}); err != nil {
		t.Fatalf("remote stack: %v", err)
	}
}

// TestRemoteComputePersistsStreamedCells: a -cache DIR -remote URL
// -remote-compute stack writes every cell the farm streams to its disk
// layer, so a later disk-only session hits all of them and simulates
// nothing.
func TestRemoteComputePersistsStreamedCells(t *testing.T) {
	srv := NewFarmServer(FarmServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	opts := DefaultOptions()
	opts.WarmupCycles = 1_000
	opts.MeasureCycles = 3_000
	var benches []Benchmark
	for _, name := range []string{"505.mcf", "503.bwaves"} {
		prof, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, prof)
	}
	spec := MatrixSpec{Name: "persist", Configs: []Config{SmallConfig(), MegaConfig()}, Benches: benches,
		Schemes: []Scheme{Baseline, NDA}}
	dir := t.TempDir()
	matrix := func(cache CacheOptions) SessionStats {
		t.Helper()
		c, err := OpenCache(cache)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(SessionConfig{Options: opts, Cache: c})
		if _, err := s.Matrix(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	if st := matrix(CacheOptions{Dir: dir, Remote: ts.URL, RemoteCompute: true}); st.Simulated != 0 || st.Hits != 8 {
		t.Fatalf("remote session: %+v, want 8 streamed hits", st)
	}
	if st := srv.Stats(); st.Experiments != 1 || st.Computes != 0 {
		t.Fatalf("farm: %+v, want one experiment request", st)
	}
	if st := matrix(CacheOptions{Dir: dir}); st.Simulated != 0 || st.Hits != 8 {
		t.Fatalf("disk-only session: %+v, want every streamed cell on disk", st)
	}
}

// TestStreamExportsFacade: the experiment-stream surface is reachable
// through the facade — wire form, key derivation, client, typed errors.
func TestStreamExportsFacade(t *testing.T) {
	opts := DefaultOptions()
	opts.WarmupCycles = 1_000
	opts.MeasureCycles = 3_000
	prof, err := BenchmarkByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec := MatrixSpec{
		Name:    "facade-stream",
		Configs: []Config{MegaConfig()},
		Benches: []Benchmark{prof},
		Schemes: []Scheme{Baseline},
	}
	wire := WireExperiment(spec, opts)
	if wire.Name != "facade-stream" || len(wire.Schemes) != 1 {
		t.Fatalf("wire form: %+v", wire)
	}
	key := CellKey(CellJob{Config: MegaConfig(), Scheme: Baseline, Bench: prof}, opts)
	if len(key) != 32 {
		t.Fatalf("cell key %q is not a fingerprint", key)
	}
	// A dead farm yields the typed transport error, not a panic or a bare
	// string.
	_, err = NewStreamClient("http://127.0.0.1:1", nil).Experiment(context.Background(), wire, nil)
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("stream failure not typed: %v", err)
	}
	if errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("transport failure misreported as truncation: %v", err)
	}
}
