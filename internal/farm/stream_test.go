package farm

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// streamSpec is the test matrix behind the streaming tests: 1 config × 2
// schemes × 2 benches = 4 cells, cheap at testOpts windows.
func streamSpec(t *testing.T) harness.MatrixSpec {
	t.Helper()
	var benches []workloads.Profile
	for _, name := range []string{"505.mcf", "520.omnetpp"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, p)
	}
	return harness.MatrixSpec{
		Name:    "stream-test",
		Configs: []core.Config{core.SmallConfig()},
		Benches: benches,
		Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA},
	}
}

// remoteSession builds the production client stack against a farm URL: a
// memory layer over the compute-mode HTTP cache, under a Session — the
// same shape cliutil assembles for -remote-compute.
func remoteSession(t *testing.T, url string, spec harness.MatrixSpec) *harness.Session {
	t.Helper()
	return harness.NewSession(harness.SessionConfig{
		Options: testOpts(),
		Schemes: spec.Schemes,
		Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), NewHTTPCache(url, HTTPCacheOptions{Compute: true})),
	})
}

// localMatrix is the ground truth the streamed matrix must match exactly.
func localMatrix(t *testing.T, spec harness.MatrixSpec) *harness.Matrix {
	t.Helper()
	s := harness.NewSession(harness.SessionConfig{Options: testOpts(), Schemes: spec.Schemes})
	m, err := s.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matricesEqual compares every cell of two matrices structurally — Runs
// included, so it is byte-identical figures, not just matching means.
func matricesEqual(t *testing.T, got, want *harness.Matrix, spec harness.MatrixSpec) {
	t.Helper()
	for _, cfg := range spec.Configs {
		for _, kind := range spec.Schemes {
			g, ok1 := got.Cell(cfg.Name, kind)
			w, ok2 := want.Cell(cfg.Name, kind)
			if !ok1 || !ok2 {
				t.Fatalf("cell %s/%s missing: got=%v want=%v", cfg.Name, kind, ok1, ok2)
			}
			if !reflect.DeepEqual(g.Runs, w.Runs) || g.MeanIPC != w.MeanIPC {
				t.Fatalf("cell %s/%s diverges from local ground truth", cfg.Name, kind)
			}
		}
	}
}

// TestExperimentStreamEndToEnd: a cold remote matrix through the full
// production stack costs the farm exactly ONE request — the streaming
// experiment — and zero per-cell computes, streams every cell, and yields
// figures byte-identical to a local run. This is the tentpole contract:
// 1 POST /v1/experiments instead of cells-many POSTs.
func TestExperimentStreamEndToEnd(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	spec := streamSpec(t)

	sess := remoteSession(t, ts.URL, spec)
	got, err := sess.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, got, localMatrix(t, spec), spec)

	st := srv.Stats()
	if st.Experiments != 1 {
		t.Fatalf("cold matrix cost %d experiment requests, want exactly 1: %+v", st.Experiments, st)
	}
	if st.Computes != 0 {
		t.Fatalf("cold matrix fell back to %d per-cell computes: %+v", st.Computes, st)
	}
	if st.StreamedCells != 4 {
		t.Fatalf("streamed %d of 4 cells: %+v", st.StreamedCells, st)
	}
	if st.EngineSimulated != 4 {
		t.Fatalf("farm simulated %d of 4 cells: %+v", st.EngineSimulated, st)
	}
	// The stream warmed the client's local layers: the per-cell walk that
	// assembled the matrix was all hits, no local simulation.
	cs := sess.Stats()
	if cs.Simulated != 0 || cs.Hits != cs.Cells {
		t.Fatalf("client walk was not all-hits after the stream: %+v", cs)
	}
	if st.Latency["experiments"].Count == 0 {
		t.Fatalf("experiment latency unobserved: %+v", st.Latency)
	}
}

// truncatingProxy forwards every route to inner, but replays only the
// first keepLines NDJSON lines of a multi-cell experiment stream and drops
// the rest — the wire image of a farm that died mid-experiment. One-cell
// streams (the per-cell fallback) pass through whole.
func truncatingProxy(t *testing.T, inner http.Handler, keepLines int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ExperimentsPath {
			inner.ServeHTTP(w, r)
			return
		}
		r.Header.Del("Accept-Encoding") // keep the recorded stream plaintext
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
		limit := keepLines
		for i := 0; i < limit && sc.Scan(); i++ {
			var hdr StreamHeader
			if i == 0 && json.Unmarshal(sc.Bytes(), &hdr) == nil && hdr.Cells <= 1 {
				limit = math.MaxInt
			}
			fmt.Fprintf(w, "%s\n", sc.Bytes())
		}
		// Returning without the trailer ends the chunked body cleanly:
		// the client sees EOF where the trailer should be.
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamTruncatedTyped: a stream that dies before its trailer must
// surface as a *StreamError wrapping ErrStreamTruncated, with Delivered
// counting the cells that did arrive (and remain valid).
func TestStreamTruncatedTyped(t *testing.T) {
	srv, _ := newTestFarm(t, ServerConfig{})
	proxy := truncatingProxy(t, srv.Handler(), 2) // header + 1 cell, no trailer

	spec := streamSpec(t)
	wire := harness.WireExperiment(spec, testOpts())
	delivered := 0
	n, err := NewStreamClient(proxy.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		delivered++
		return nil
	})
	if !errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("truncated stream error = %v, want ErrStreamTruncated", err)
	}
	var se *StreamError
	if !errors.As(err, &se) || se.Reason != "truncated" {
		t.Fatalf("truncated stream error not typed: %#v", err)
	}
	if n != 1 || delivered != 1 || se.Delivered != 1 {
		t.Fatalf("delivered accounting: n=%d cb=%d se=%d, want 1 each", n, delivered, se.Delivered)
	}
}

// TestStreamDeathFallsBackPerCell: when the experiment stream dies
// mid-flight, the session must still produce byte-identical figures — the
// partial stream's cells are kept, and the engine's per-cell walk resolves
// the remainder through the ordinary compute path.
func TestStreamDeathFallsBackPerCell(t *testing.T) {
	srv, _ := newTestFarm(t, ServerConfig{})
	proxy := truncatingProxy(t, srv.Handler(), 3) // header + 2 cells, no trailer

	spec := streamSpec(t)
	sess := remoteSession(t, proxy.URL, spec)
	got, err := sess.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatalf("matrix failed instead of degrading per-cell: %v", err)
	}
	matricesEqual(t, got, localMatrix(t, spec), spec)

	st := srv.Stats()
	if st.Experiments != 1 {
		t.Fatalf("experiment requests: %+v", st)
	}
	// 2 cells arrived on the stream; the other 2 came per cell, each a
	// one-cell stream.
	if st.Computes != 2 {
		t.Fatalf("per-cell fallback resolved %d cells, want exactly the 2 the stream lost: %+v", st.Computes, st)
	}
	if cs := sess.Stats(); cs.Simulated != 0 {
		t.Fatalf("client simulated locally despite a live farm: %+v", cs)
	}
}

// TestStreamRejectsBadExperiments: invalid experiment requests are 400s
// surfaced as typed rejections, never simulations.
func TestStreamRejectsBadExperiments(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	wire := harness.WireExperiment(streamSpec(t), testOpts())
	wire.Schemes = []string{"no-such-scheme"}
	_, err := NewStreamClient(ts.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		t.Fatal("cell delivered from a rejected experiment")
		return nil
	})
	var se *StreamError
	if !errors.As(err, &se) || se.Reason != "rejected" || !rejected(err) {
		t.Fatalf("rejection not a typed rejection: %v", err)
	}
	if st := srv.Stats(); st.EngineSimulated != 0 {
		t.Fatalf("rejected experiment reached the simulator: %+v", st)
	}
}

// TestStreamSlowConsumer: a consumer that dawdles over every line slows
// only its own request — the server's bounded stream buffer back-pressures
// that request's RunCells workers — and the experiment still delivers
// every cell and the server drains to idle.
func TestStreamSlowConsumer(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	spec := streamSpec(t)
	wire := harness.WireExperiment(spec, testOpts())

	delivered := 0
	n, err := NewStreamClient(ts.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		time.Sleep(50 * time.Millisecond)
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || delivered != 4 {
		t.Fatalf("slow consumer got %d/%d of 4 cells", delivered, n)
	}
	st := srv.Stats()
	if st.InFlight != 0 {
		t.Fatalf("server did not drain after slow consumer: %+v", st)
	}
	if st.StreamedCells != 4 {
		t.Fatalf("streamed cells: %+v", st)
	}
}

// TestStreamConsumerAbort: an fn error must abort the stream and come back
// exactly as returned, not wrapped into a protocol failure.
func TestStreamConsumerAbort(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	wire := harness.WireExperiment(streamSpec(t), testOpts())
	boom := errors.New("consumer says no")
	n, err := NewStreamClient(ts.URL, nil).Experiment(context.Background(), wire, func(CellEnvelope) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fn error rewritten: %v", err)
	}
	if n != 0 {
		t.Fatalf("aborted cell counted as delivered: %d", n)
	}
}

// TestGzipNegotiation: both request and response bodies round-trip
// compressed when negotiated — and the server never compresses at a
// client that did not ask.
func TestGzipNegotiation(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	// Gzipped PUT: explicit Content-Encoding on a compressed envelope.
	body, err := json.Marshal(newEnvelope(key, ref, false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+CellsPath+"/"+key, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("gzipped put rejected: %d", resp.StatusCode)
	}

	// Negotiated GET: the response comes back gzip-encoded and decodes to
	// the identical run. DisableCompression keeps Go's transparent layer
	// out so the wire encoding is visible.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	greq, err := http.NewRequest(http.MethodGet, ts.URL+CellsPath+"/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	greq.Header.Set("Accept-Encoding", "gzip")
	gresp, err := hc.Do(greq)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(gresp.Body)
	if enc := gresp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("negotiated response not gzipped: %q", enc)
	}
	rd, err := maybeGunzip(gresp)
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeEnvelope(rd, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Run, ref) {
		t.Fatal("gzip round trip changed the run")
	}

	// Unnegotiated GET: identity body.
	presp, err := hc.Get(ts.URL + CellsPath + "/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(presp.Body)
	if enc := presp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("server compressed without negotiation: %q", enc)
	}

	// The production client paths negotiate end to end.
	c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: false})
	got, ok, err := c.Get(key)
	if err != nil || !ok || !reflect.DeepEqual(got, ref) {
		t.Fatalf("client gzip get: ok=%v err=%v", ok, err)
	}
}

// TestGzipStreamNegotiation: the experiment stream itself compresses when
// negotiated and still flushes per line — the first cells decode before
// the stream ends.
func TestGzipStreamNegotiation(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	wire := harness.WireExperiment(streamSpec(t), testOpts())
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequest(http.MethodPost, ts.URL+ExperimentsPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("negotiated stream not gzipped: %q", enc)
	}
	rd, err := maybeGunzip(resp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewStreamClient(ts.URL, nil).consume(rd, func(CellEnvelope) error { return nil })
	if err != nil || n != 4 {
		t.Fatalf("gzipped stream: n=%d err=%v", n, err)
	}
}

// TestMaybeGzipThreshold: tiny bodies ship identity (compression overhead
// exceeds the win), big compressible bodies ship gzip.
func TestMaybeGzipThreshold(t *testing.T) {
	if _, enc := maybeGzip([]byte(`{"small":true}`)); enc != "" {
		t.Fatalf("small body compressed: %q", enc)
	}
	big := []byte(strings.Repeat(`{"cell":"repetitive json compresses"},`, 200))
	payload, enc := maybeGzip(big)
	if enc != "gzip" {
		t.Fatalf("large body not compressed: %q", enc)
	}
	if len(payload) >= len(big) {
		t.Fatalf("compression grew the body: %d -> %d", len(big), len(payload))
	}
	rd, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	round, err := io.ReadAll(rd)
	if err != nil || !bytes.Equal(round, big) {
		t.Fatalf("gzip round trip: err=%v", err)
	}
}

// TestStatsSchemaAndLatency: /v1/stats carries its schema stamp and
// ordered per-endpoint latency percentiles.
func TestStatsSchemaAndLatency(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})
	if _, ok, err := c.ResolveCell(keyOf(job, opts), job, opts); !ok || err != nil {
		t.Fatalf("compute: ok=%v err=%v", ok, err)
	}
	if _, _, err := c.Get(keyOf(job, opts)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Schema != StatsSchema {
		t.Fatalf("stats schema = %q, want %q", st.Schema, StatsSchema)
	}
	for _, ep := range []string{"experiments", "get_cell"} {
		l, ok := st.Latency[ep]
		if !ok || l.Count == 0 {
			t.Fatalf("endpoint %s unobserved: %+v", ep, st.Latency)
		}
		if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 {
			t.Fatalf("endpoint %s percentiles disordered: %+v", ep, l)
		}
	}
	if _, ok := st.Latency["put_cell"]; ok {
		t.Fatalf("unobserved endpoint reported: %+v", st.Latency)
	}
}

// TestStreamMissingCellIsError: a complete stream (header and trailer)
// that lacks the requested cell is an error — never ok=true and never a
// silently adopted result.
func TestStreamMissingCellIsError(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		drainClose(r.Body)
		fmt.Fprintf(w, "{\"schema\":%q,\"cells\":1}\n{\"schema\":%q,\"done\":1}\n",
			StreamHeaderSchema, StreamTrailerSchema)
	}))
	t.Cleanup(ts.Close)

	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	run, ok, err := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true}).ResolveCell(keyOf(job, opts), job, opts)
	if ok || err == nil {
		t.Fatalf("stream without the cell: ok=%v err=%v run=%+v", ok, err, run)
	}
	var se *StreamError
	if !errors.As(err, &se) || se.Reason != "missing" {
		t.Fatalf("missing cell not a typed stream error: %v", err)
	}
	if posts.Load() == 0 {
		t.Fatal("client never asked the farm")
	}
}

// FuzzStreamConsume: the NDJSON decoder that now carries all compute
// traffic must never panic, never deliver more cells than the stream has
// envelope lines, and report success only when it saw both the header and
// the trailer.
func FuzzStreamConsume(f *testing.F) {
	env, err := json.Marshal(newEnvelope("00112233445566778899aabbccddeeff",
		harness.Run{Bench: "505.mcf", Config: "small", Scheme: core.KindNDA}, false))
	if err != nil {
		f.Fatal(err)
	}
	header := fmt.Sprintf(`{"schema":%q,"cells":1}`, StreamHeaderSchema)
	trailer := fmt.Sprintf(`{"schema":%q,"done":1}`, StreamTrailerSchema)
	for _, seed := range []string{
		header + "\n" + string(env) + "\n" + trailer + "\n",
		header + "\n" + string(env) + "\n",
		header + "\n" + trailer + "\n",
		fmt.Sprintf(`{"schema":%q,"done":0,"error":"boom"}`, StreamTrailerSchema),
		`{"schema":"bogus/v1"}`,
		"{not json\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var envelopes int
		var sawHeader, sawTrailer bool
		for _, line := range bytes.Split(data, []byte("\n")) {
			var probe struct {
				Schema string `json:"schema"`
			}
			if json.Unmarshal(bytes.TrimSpace(line), &probe) != nil {
				continue
			}
			switch probe.Schema {
			case Schema:
				envelopes++
			case StreamHeaderSchema:
				sawHeader = true
			case StreamTrailerSchema:
				sawTrailer = true
			}
		}
		calls := 0
		n, err := NewStreamClient("http://unused", nil).consume(bytes.NewReader(data), func(CellEnvelope) error {
			calls++
			return nil
		})
		if n != calls || n > envelopes {
			t.Fatalf("delivered %d (callback %d) from %d envelope lines", n, calls, envelopes)
		}
		if err == nil && (!sawHeader || !sawTrailer) {
			t.Fatalf("nil error without header (%v) and trailer (%v)", sawHeader, sawTrailer)
		}
	})
}
