package farm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// testOpts keeps farm-test cells cheap: one cell is ~2000 simulated
// cycles, so even the soak test's whole unique set costs milliseconds.
func testOpts() harness.Options {
	o := harness.DefaultOptions()
	o.WarmupCycles = 500
	o.MeasureCycles = 1500
	return o
}

func testJob(t *testing.T, bench string, kind core.SchemeKind) harness.CellJob {
	t.Helper()
	p, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return harness.CellJob{Config: core.SmallConfig(), Scheme: kind, Bench: p}
}

// keyOf derives the client-side content-addressed key of a job.
func keyOf(job harness.CellJob, opts harness.Options) string {
	return harness.NewEngine(nil, "").Key(job, opts)
}

// refRun simulates a job locally — the ground truth farm-served results
// must match byte for byte.
func refRun(t *testing.T, job harness.CellJob, opts harness.Options) harness.Run {
	t.Helper()
	r, err := harness.RunOne(job.Config, job.Scheme, job.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestFarm(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// TestFarmGetPutRoundTrip: the remote cache path — a PUT cell comes back
// byte-identical on GET, an unknown key is a clean miss, and the counters
// account for both.
func TestFarmGetPutRoundTrip(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: false})
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("empty farm: ok=%v err=%v", ok, err)
	}
	if err := c.Put(key, ref); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("run changed across the wire:\ngot  %+v\nwant %+v", got, ref)
	}
	st := srv.Stats()
	if st.Gets != 2 || st.GetHits != 1 || st.Puts != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestFarmPutRejectsBadEnvelopes: the server's write path must validate —
// schema, key identity, scheme-name resolution — before storing anything.
func TestFarmPutRejectsBadEnvelopes(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	put := func(t *testing.T, key string, env CellEnvelope) int {
		t.Helper()
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+CellsPath+"/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		return resp.StatusCode
	}

	good := newEnvelope(key, ref, false)
	badSchema := good
	badSchema.Schema = "bogus/v9"
	badScheme := good
	badScheme.Scheme = "no-such-scheme"
	mismatched := newEnvelope("0000000000000000", ref, false)

	if code := put(t, key, badSchema); code != http.StatusBadRequest {
		t.Fatalf("bad schema accepted: %d", code)
	}
	if code := put(t, key, badScheme); code != http.StatusBadRequest {
		t.Fatalf("bad scheme accepted: %d", code)
	}
	if code := put(t, key, mismatched); code != http.StatusBadRequest {
		t.Fatalf("mismatched key accepted: %d", code)
	}
	if st := srv.Stats(); st.Puts != 0 {
		t.Fatalf("rejected writes counted: %+v", st)
	}
	if code := put(t, key, good); code != http.StatusNoContent {
		t.Fatalf("good envelope rejected: %d", code)
	}
}

// TestFarmComputeEndToEnd: a compute client's cold request simulates on
// the farm and returns byte-identical results; the repeat is served from
// the farm's cache without simulating again, and plain GETs hit too.
func TestFarmComputeEndToEnd(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindSTTRename)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})
	got, ok, err := c.ResolveCell(key, job, opts)
	if err != nil || !ok {
		t.Fatalf("compute: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("farm-computed run diverges from local:\ngot  %+v\nwant %+v", got, ref)
	}
	if st := srv.Stats(); st.EngineSimulated != 1 {
		t.Fatalf("farm did not simulate exactly once: %+v", st)
	}
	if _, ok, err := c.ResolveCell(key, job, opts); !ok || err != nil {
		t.Fatalf("warm compute: ok=%v err=%v", ok, err)
	}
	if got2, ok, _ := c.Get(key); !ok || !reflect.DeepEqual(got2, ref) {
		t.Fatal("computed cell not readable via GET")
	}
	st := srv.Stats()
	if st.EngineSimulated != 1 || st.EngineHits != 1 {
		t.Fatalf("warm compute re-simulated: %+v", st)
	}
}

// TestFarmComputeRejectsBadJobs: garbage, incompatible jobs and every
// configuration or profile value outside its Validate bounds are 400s —
// never a panic on a simulation worker or an unbounded allocation, either
// of which would take the whole server down — and the server keeps
// answering. POST on the cell store path is not routed: compute has
// exactly one route.
func TestFarmComputeRejectsBadJobs(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		return resp.StatusCode
	}
	if code := post(ExperimentsPath, "{not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", code)
	}
	var body []byte
	for name, mutate := range map[string]func(*harness.ExperimentJobWire){
		"unknown scheme":    func(w *harness.ExperimentJobWire) { w.Schemes = []string{"no-such-scheme"} },
		"huge ROB":          func(w *harness.ExperimentJobWire) { w.Configs[0].ROBSize = 1 << 40 },
		"no checkpoints":    func(w *harness.ExperimentJobWire) { w.Configs[0].MaxBranches = 0 },
		"ports above width": func(w *harness.ExperimentJobWire) { w.Configs[0].MemPorts = w.Configs[0].Width + 1 },
		"width 9":           func(w *harness.ExperimentJobWire) { w.Configs[0].Width = 9 },
		"lag branch with indirect loads": func(w *harness.ExperimentJobWire) {
			w.Benches[0].LagBranch, w.Benches[0].IndirectLoads = true, 1
		},
	} {
		wire := cellWire(testJob(t, "505.mcf", core.KindBaseline), testOpts())
		mutate(&wire)
		var err error
		if body, err = json.Marshal(wire); err != nil {
			t.Fatal(err)
		}
		if code := post(ExperimentsPath, string(body)); code != http.StatusBadRequest {
			t.Fatalf("%s accepted: %d", name, code)
		}
		resp, err := http.Get(ts.URL + StatsPath)
		if err != nil {
			t.Fatalf("stats after %s: %v", name, err)
		}
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats after %s: status %d", name, resp.StatusCode)
		}
	}
	if code := post(CellsPath, string(body)); code < 400 || code >= 500 {
		t.Fatalf("POST %s answered %d, want a 4xx (route retired)", CellsPath, code)
	}
	if st := srv.Stats(); st.EngineSimulated != 0 || st.Computes != 0 {
		t.Fatalf("bad jobs reached the simulator: %+v", st)
	}
}

// TestFarmRejectsNonKeyPaths: the mux unescapes %2F inside {key}, so a
// traversal attempt reaches the handlers as "../x". Every key that is not
// a cell fingerprint must be a 400 on GET and PUT, and a disk-backed
// store must never read or write outside its directory.
func TestFarmRejectsNonKeyPaths(t *testing.T) {
	root := t.TempDir()
	secret := filepath.Join(root, "x.json")
	if err := os.WriteFile(secret, []byte("not a cell"), 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := harness.NewDiskCache(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestFarm(t, ServerConfig{Cache: disk})
	env, err := json.Marshal(newEnvelope("x", refRun(t, testJob(t, "505.mcf", core.KindBaseline), testOpts()), false))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"..%2Fx", "a%2Fb", "%2E%2E%2Fx", "0123456789ABCDEF0123456789abcdef"} {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			req, err := http.NewRequest(method, ts.URL+CellsPath+"/"+key, bytes.NewReader(env))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			drainClose(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", method, key, resp.StatusCode)
			}
		}
	}
	if data, err := os.ReadFile(secret); err != nil || string(data) != "not a cell" {
		t.Fatalf("file outside the store touched: %q, %v", data, err)
	}
	if st := srv.Stats(); st.GetHits != 0 || st.Puts != 0 {
		t.Fatalf("non-key paths reached the store: %+v", st)
	}
}

// TestFarmStatsEndpoint: the counters round-trip over HTTP.
func TestFarmStatsEndpoint(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})
	if _, ok, err := c.ResolveCell(keyOf(job, opts), job, opts); !ok || err != nil {
		t.Fatalf("compute: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Computes != 1 || st.EngineSimulated != 1 || st.SimCycles == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight not drained: %+v", st)
	}
}

// FuzzDecodeEnvelope: the single-cell envelope decoder (client GET
// responses, server PUT bodies) must never panic, with or without a
// wanted key, and an envelope it accepts must round-trip: re-encoded and
// decoded again under the same wanted key, it carries an equal Run.
func FuzzDecodeEnvelope(f *testing.F) {
	const key = "00112233445566778899aabbccddeeff"
	good := newEnvelope(key, harness.Run{
		Bench: "505.mcf", Config: "small", Scheme: core.KindNDA,
		Cycles: 1500, Insts: 900, IPC: 0.6, TotalCycles: 2000,
	}, false)
	badSchema := good
	badSchema.Schema = "bogus/v9"
	badScheme := good
	badScheme.Scheme = "no-such-scheme"
	mismatched := newEnvelope("0000000000000000", good.Run, false)
	for _, env := range []CellEnvelope{good, badSchema, badScheme, mismatched} {
		data, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, true)
		f.Add(data, false)
	}
	// The fault test's truncated 200 body, and an empty one.
	f.Add([]byte(`{"schema":"shadowbinding-farm/v1","key":`), true)
	f.Add([]byte(""), false)
	f.Fuzz(func(t *testing.T, data []byte, withKey bool) {
		want := ""
		if withKey {
			want = key
		}
		env, err := decodeEnvelope(bytes.NewReader(data), want)
		if err != nil {
			return
		}
		re, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		again, err := decodeEnvelope(bytes.NewReader(re), want)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v\n%s", err, re)
		}
		if again.Run != env.Run {
			t.Fatalf("round trip changed the run:\ngot  %+v\nwant %+v", again.Run, env.Run)
		}
	})
}
