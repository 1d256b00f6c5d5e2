package farm

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// recordingWriter is an http.ResponseWriter that records the body and
// counts flushes. gate, when non-nil, holds the first body write until it
// is closed, and held is closed when that write arrives; each flush is
// announced on flushed (when non-nil).
type recordingWriter struct {
	header  http.Header
	gate    chan struct{}
	held    chan struct{}
	flushed chan struct{}

	mu      sync.Mutex
	body    bytes.Buffer
	writes  int
	flushes int
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{header: make(http.Header)}
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     {}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	first := w.writes == 0
	w.writes++
	w.mu.Unlock()
	if first && w.gate != nil {
		close(w.held)
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

func (w *recordingWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
	if w.flushed != nil {
		w.flushed <- struct{}{}
	}
}

// decoded returns the body, gunzipped when the stream was compressed.
func (w *recordingWriter) decoded(t *testing.T) []byte {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.header.Get("Content-Encoding") != "gzip" {
		return bytes.Clone(w.body.Bytes())
	}
	gz, err := gzip.NewReader(bytes.NewReader(w.body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// streamRequest is an experiment request, gzip-negotiated or not.
func streamRequest(gz bool) *http.Request {
	r := httptest.NewRequest(http.MethodPost, ExperimentsPath, nil)
	if gz {
		r.Header.Set("Accept-Encoding", "gzip")
	}
	return r
}

// streamLines is the test's stream: a header then n trailers, each a
// distinct line.
func streamLines(n int) []any {
	lines := []any{StreamHeader{Schema: StreamHeaderSchema, Cells: n}}
	for i := range n {
		lines = append(lines, StreamTrailer{Schema: StreamTrailerSchema, Done: i})
	}
	return lines
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func ndjson(t *testing.T, lines []any) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range lines {
		fmt.Fprintf(&buf, "%s\n", mustJSON(t, v))
	}
	return buf.Bytes()
}

// TestStreamWriterFlushesPerBurst: lines that queue while the drain is
// busy share one flush, and the client decodes exactly the lines sent,
// with and without gzip. The first write to the response is held until
// all N lines are queued, so the drain finds a burst waiting.
func TestStreamWriterFlushesPerBurst(t *testing.T) {
	const n = 32
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			w := newRecordingWriter()
			w.gate, w.held = make(chan struct{}), make(chan struct{})
			sw := newStreamWriter(w, streamRequest(gz), n)
			lines := streamLines(n)
			// The header is alone in the queue: it is flushed (gzip) or
			// written (identity) before the rest are sent, and that first
			// write waits at the gate.
			sw.send(lines[0])
			select {
			case <-w.held:
			case <-time.After(10 * time.Second):
				t.Fatal("the header never reached the response")
			}
			for _, v := range lines[1:] {
				sw.send(v)
			}
			close(w.gate)
			if err := sw.close(); err != nil {
				t.Fatal(err)
			}
			if w.flushes >= n || w.flushes > 2 {
				t.Errorf("%d lines cost %d flushes, want at most 2", len(lines), w.flushes)
			}
			if got, want := w.decoded(t), ndjson(t, lines); !bytes.Equal(got, want) {
				t.Errorf("decoded stream\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestStreamWriterFlushesLoneLine: a line sent while the queue is idle —
// a cold stream, whose cells arrive one at a time — is flushed before the
// next is sent, so the stream stays a progress feed.
func TestStreamWriterFlushesLoneLine(t *testing.T) {
	w := newRecordingWriter()
	w.flushed = make(chan struct{}, 1)
	sw := newStreamWriter(w, streamRequest(false), 8)
	lines := streamLines(8)
	for i, v := range lines {
		sw.send(v)
		select {
		case <-w.flushed:
		case <-time.After(10 * time.Second):
			t.Fatalf("line %d was not flushed while the queue stood idle", i)
		}
		if got, want := w.decoded(t), ndjson(t, lines[:i+1]); !bytes.Equal(got, want) {
			t.Fatalf("after line %d the client has\n%s\nwant\n%s", i, got, want)
		}
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamConsumeCases: the reader decodes each line once, then
// validates it by its schema; a field of another line type with the wrong
// type is a protocol error, not ignored.
func TestStreamConsumeCases(t *testing.T) {
	env := string(mustJSON(t, newEnvelope("00112233445566778899aabbccddeeff",
		harness.Run{Bench: "505.mcf", Config: "small", Scheme: core.KindNDA}, false)))
	header := fmt.Sprintf(`{"schema":%q,"cells":1}`, StreamHeaderSchema)
	trailer := fmt.Sprintf(`{"schema":%q,"done":1}`, StreamTrailerSchema)
	for _, tc := range []struct {
		name      string
		stream    string
		delivered int
		reason    string // "" for success
	}{
		{"complete", header + "\n" + env + "\n" + trailer + "\n", 1, ""},
		{"blank lines", "\n" + header + "\n\n" + env + "\n" + trailer, 1, ""},
		{"no trailer", header + "\n" + env + "\n", 1, "truncated"},
		{"no header", env + "\n" + trailer + "\n", 1, "truncated"},
		{"server error", header + "\n" + env + "\n" +
			fmt.Sprintf(`{"schema":%q,"done":1,"error":"boom"}`, StreamTrailerSchema), 1, "server"},
		{"unknown schema", header + "\n" + `{"schema":"bogus/v1"}`, 0, "protocol"},
		{"not json", header + "\n{not json\n", 0, "protocol"},
		{"header with a numeric run", fmt.Sprintf(`{"schema":%q,"cells":1,"run":5}`, StreamHeaderSchema) +
			"\n" + env + "\n" + trailer, 0, "protocol"},
		{"trailer with a numeric key", header + "\n" + env + "\n" +
			fmt.Sprintf(`{"schema":%q,"done":1,"key":7}`, StreamTrailerSchema), 1, "protocol"},
		{"mistyped done", header + "\n" + fmt.Sprintf(`{"schema":%q,"done":"all"}`, StreamTrailerSchema), 0, "protocol"},
		{"cell with a bad scheme", header + "\n" +
			fmt.Sprintf(`{"schema":%q,"key":"k","scheme":"nda","run":{"Scheme":0}}`, Schema) + "\n" + trailer, 0, "protocol"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewStreamClient("http://unused", nil).consume(bytes.NewReader([]byte(tc.stream)),
				func(CellEnvelope) error { return nil })
			if n != tc.delivered {
				t.Errorf("delivered %d cells, want %d", n, tc.delivered)
			}
			if tc.reason == "" {
				if err != nil {
					t.Fatalf("error %v, want none", err)
				}
				return
			}
			var se *StreamError
			if !errors.As(err, &se) || se.Reason != tc.reason {
				t.Fatalf("error %v, want a %q StreamError", err, tc.reason)
			}
		})
	}
}

// TestGzipStreamsBackToBack: two gzip-negotiated experiment streams in a
// row on one server both decode to the same cells, so a pooled gzip
// writer (and the client's pooled request compressor) is reset cleanly
// between uses.
func TestGzipStreamsBackToBack(t *testing.T) {
	_, ts := newTestFarm(t, ServerConfig{})
	wire := harness.WireExperiment(streamSpec(t), testOpts())
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	var first map[string]harness.Run
	for pass := range 3 {
		got := make(map[string]harness.Run)
		n, err := NewStreamClient(ts.URL, hc).Experiment(context.Background(), wire, func(env CellEnvelope) error {
			got[env.Key] = env.Run
			return nil
		})
		if err != nil || n != 4 {
			t.Fatalf("pass %d: n=%d err=%v", pass, n, err)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("pass %d decoded different cells", pass)
		}
	}
}

// TestGzipWriterOutlivesGC: a gzip writer closed back to the idle list
// is the one the next caller gets, even after collections, which a
// sync.Pool would have emptied.
func TestGzipWriterOutlivesGC(t *testing.T) {
	for len(gzipWriters) > 0 {
		<-gzipWriters // earlier tests' writers: the next caller gets this test's
	}
	var buf bytes.Buffer
	gz := newGzipWriter(&buf)
	if err := closeGzipWriter(gz); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	again := newGzipWriter(io.Discard)
	defer closeGzipWriter(again) //nolint:errcheck
	if again != gz {
		t.Error("an idle gzip writer did not survive two collections")
	}
}

// TestWarmExperimentAllocs pins what a warm experiment costs the farm and
// its client together, in one process over loopback: one BOOM row × 6
// schemes × 22 proxies, 132 cells, every one already in the farm's store.
// A cell's share is its job enumerated three times (the client's session
// and expected key set, the server's request) and its key derived three
// times (the client's expected set and RunCells, the server's
// StreamCells), its envelope decoded once, its memory-layer entries, and
// its run in the matrix: about 5.5 kB measured. perCell adds a quarter
// for the fixed costs (one request, two gzip readers, the session), which
// 132 cells amortize less well than table1's 528. The same pass cost
// about 9.8 kB a cell while the engine made a single-flight record for
// every cell, the gzip writers' sync.Pool lost them at every collection,
// every stream line was marshaled into a buffer of its own, and the
// server copied its de-duplicated jobs, keyed them twice and collected
// runs it threw away; and about 28 kB while every key re-encoded its
// configuration and profile, every stream line was decoded twice and
// every response and request built a fresh gzip writer.
func TestWarmExperimentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const perCell = 7 << 10 // bytes
	_, ts := newTestFarm(t, ServerConfig{Parallelism: 2})
	spec := harness.MatrixSpec{
		Name:    "warm-test",
		Configs: []core.Config{core.MegaConfig()},
		Schemes: core.SchemeKinds(),
		Benches: workloads.Suite(),
	}
	cells := len(spec.Schemes) * len(spec.Benches)
	pass := func() {
		opts := testOpts()
		opts.Parallelism = 2
		s := harness.NewSession(harness.SessionConfig{
			Options: opts,
			Schemes: spec.Schemes,
			Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})),
		})
		if _, err := s.Matrix(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Simulated != 0 || st.Cells != cells {
			t.Fatalf("warm pass resolved %d cells, simulated %d", st.Cells, st.Simulated)
		}
	}
	pass() // fills the farm's store
	pass() // warms connections and pools
	// The best of three passes: a collection in mid-pass empties the pools.
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if got := best / uint64(cells); got > perCell {
		t.Errorf("a warm experiment allocated %d bytes a cell, want at most %d", got, perCell)
	}
	t.Logf("%d bytes a cell", best/uint64(cells))
}
