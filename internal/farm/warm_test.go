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
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
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

// streamLines is the test's stream: a header, then n lines alternating
// between cells and trailers, each line distinct.
func streamLines(n int) []streamEntry {
	lines := []streamEntry{{meta: StreamHeader{Schema: StreamHeaderSchema, Cells: n}}}
	for i := range n {
		if i%2 == 0 {
			r := sampleRun()
			r.Cycles = uint64(i)
			lines = append(lines, streamEntry{cell: harness.CellResult{Key: testKey, Run: r, Cached: i%4 == 0}})
		} else {
			lines = append(lines, streamEntry{meta: StreamTrailer{Schema: StreamTrailerSchema, Done: i}})
		}
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

// streamText is what a client reads for lines: each JSON-encoded or
// cell-encoded, one a line.
func streamText(t *testing.T, lines []streamEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range lines {
		if e.meta != nil {
			fmt.Fprintf(&buf, "%s\n", mustJSON(t, e.meta))
		} else {
			fmt.Fprintf(&buf, "%s\n", cellLine(t, e.cell.Key, e.cell.Run, e.cell.Cached))
		}
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
			sw := newStreamWriter(w, streamRequest(gz))
			lines := streamLines(n)
			// The header is alone in the queue: it is flushed (gzip) or
			// written (identity) before the rest are sent, and that first
			// write waits at the gate.
			sw.lines <- lines[0]
			select {
			case <-w.held:
			case <-time.After(10 * time.Second):
				t.Fatal("the header never reached the response")
			}
			for _, e := range lines[1:] {
				sw.lines <- e
			}
			close(w.gate)
			if err := sw.close(); err != nil {
				t.Fatal(err)
			}
			if w.flushes >= n || w.flushes > 2 {
				t.Errorf("%d lines cost %d flushes, want at most 2", len(lines), w.flushes)
			}
			if got, want := w.decoded(t), streamText(t, lines); !bytes.Equal(got, want) {
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
	sw := newStreamWriter(w, streamRequest(false))
	lines := streamLines(8)
	for i, e := range lines {
		sw.lines <- e
		select {
		case <-w.flushed:
		case <-time.After(10 * time.Second):
			t.Fatalf("line %d was not flushed while the queue stood idle", i)
		}
		if got, want := w.decoded(t), streamText(t, lines[:i+1]); !bytes.Equal(got, want) {
			t.Fatalf("after line %d the client has\n%s\nwant\n%s", i, got, want)
		}
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamConsumeCases: the reader decodes each line once, a cell line
// by the cell record and a JSON line by its schema; a field that belongs to
// neither JSON line, or a field of the wrong type, is a protocol error,
// not ignored.
func TestStreamConsumeCases(t *testing.T) {
	env := cellLine(t, testKey, harness.Run{Bench: "505.mcf", Config: "small", Scheme: core.KindNDA}, false)
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
			withField(cellLine(t, "k", harness.Run{Scheme: core.KindBaseline}, false), 2, "nda") + "\n" + trailer, 0, "protocol"},
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

// TestStreamLineDecodeMatchesUnmarshal: the reader accepts a JSON line
// exactly when json.Unmarshal accepts it, trailing data after the value
// included; a line it rejects, or one that is not JSON and not a cell, is
// a protocol error.
func TestStreamLineDecodeMatchesUnmarshal(t *testing.T) {
	header := fmt.Sprintf(`{"schema":%q,"cells":1}`, StreamHeaderSchema)
	for _, line := range []string{
		header, header + header, header + " x", header + "}", header + "]", header + " 5",
		`{"schema":`, `5`, `"header"`, `null`, `[]`, `{"schema":7}`, `{"cells":"one"}`,
	} {
		var ln metaLine
		want := "protocol" // a rejected line, or an accepted one with no known schema
		if json.Unmarshal([]byte(line), &ln) == nil && ln.Schema == StreamHeaderSchema {
			want = "truncated" // the header alone: the stream ends without its trailer
		}
		// A valid line before and after: no line's fields may leak into
		// the next.
		stream := header + "\n" + line + "\n" + header + "\n"
		_, err := NewStreamClient("http://unused", nil).consume(strings.NewReader(stream),
			func(CellEnvelope) error { return nil })
		var se *StreamError
		if !errors.As(err, &se) || se.Reason != want {
			t.Errorf("line %s: %v, want a %q StreamError", line, err, want)
		}
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
	for len(gzipWriters.kept) > 0 {
		<-gzipWriters.kept // earlier tests' writers: the next caller gets this test's
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

// TestGzipReaderOutlivesGC: a gzip reader closed back to the idle list
// is the one the next body gets, even after collections.
func TestGzipReaderOutlivesGC(t *testing.T) {
	for len(gzipReaders.kept) > 0 {
		<-gzipReaders.kept // earlier tests' readers: the next caller gets this test's
	}
	var body bytes.Buffer
	gz := newGzipWriter(&body)
	gz.Write([]byte("line\n")) //nolint:errcheck // bytes.Buffer writes cannot fail
	if err := closeGzipWriter(gz); err != nil {
		t.Fatal(err)
	}
	read := func() *gzipReader {
		z, err := newGzipReader(bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if data, err := io.ReadAll(z); err != nil || string(data) != "line\n" {
			t.Fatalf("read %q, %v", data, err)
		}
		z.Close()
		return z
	}
	first := read()
	runtime.GC()
	runtime.GC()
	if read() != first {
		t.Error("an idle gzip reader did not survive two collections")
	}
}

// gatedCache is a store whose reads wait until release is closed.
type gatedCache struct {
	harness.CellCache
	release chan struct{}
}

func (c gatedCache) Get(key string) (harness.Run, bool, error) {
	<-c.release
	return c.CellCache.Get(key)
}

// TestStreamFlushesBehindHandler: through Server.Handler(), request
// logging included, a one-cell stream delivers its response headers and
// header line while its cell is still held back, so a long compute is
// not mistaken for a farm that never answers.
func TestStreamFlushesBehindHandler(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestFarm(t, ServerConfig{Cache: gatedCache{harness.NewMemoryCache(0), release}})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	body := mustJSON(t, cellWire(testJob(t, "505.mcf", core.KindBaseline), testOpts()))
	type answer struct {
		line string
		rest io.ReadCloser
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+ExperimentsPath, "application/json", bytes.NewReader(body))
		if err != nil {
			got <- answer{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadString('\n')
		got <- answer{line, struct {
			io.Reader
			io.Closer
		}{br, resp.Body}, err}
	}()
	var a answer
	select {
	case a = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no headers or header line while the cell was held back")
	}
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.rest.Close()
	var hdr StreamHeader
	if err := json.Unmarshal([]byte(a.line), &hdr); err != nil || hdr.Schema != StreamHeaderSchema || hdr.Cells != 1 {
		t.Fatalf("first line %q (%v), want a one-cell stream header", a.line, err)
	}
	open()
	n, err := NewStreamClient(ts.URL, nil).consume(io.MultiReader(strings.NewReader(a.line), a.rest),
		func(CellEnvelope) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("after release: %d cells, %v", n, err)
	}
}

// TestWarmRemoteMatrixIsAllHits: a matrix streamed from the farm, cold or
// warm, goes straight into the matrix: a warm one counts every cell as a
// hit and simulates nothing, and neither re-stores a cell in the client's
// memory layer.
func TestWarmRemoteMatrixIsAllHits(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	spec := streamSpec(t)
	for pass := range 2 {
		mem := harness.NewMemoryCache(0)
		s := harness.NewSession(harness.SessionConfig{
			Options: testOpts(),
			Schemes: spec.Schemes,
			Cache:   harness.NewTieredCache(mem, NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})),
		})
		m, err := s.Matrix(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, m, localMatrix(t, spec), spec)
		if st := s.Stats(); st.Cells != 4 || st.Hits != st.Cells || st.Simulated != 0 {
			t.Errorf("pass %d: %+v, want 4 cells, all hits", pass, st)
		}
		if mem.Len() != 0 {
			t.Errorf("pass %d: the memory layer holds %d streamed cells, want none", pass, mem.Len())
		}
	}
	if st := srv.Stats(); st.Experiments != 2 || st.Computes != 0 || st.EngineSimulated != 4 {
		t.Errorf("farm: %+v, want 2 experiments, no per-cell compute, 4 simulated", st)
	}
}

// TestWarmExperimentAllocs pins what a warm experiment costs the farm and
// its client together, in one process over loopback: one BOOM row × 6
// schemes × 22 proxies, 132 cells, every one already in the farm's store.
// A cell's share is its key derived twice (the client's matrix, whose keys
// the client's stream check shares, and the server's StreamCells), its
// line decoded once, and its run in the matrix; no job is built for it.
// perCell adds about a quarter for the fixed costs (one request, the
// session), which 132 cells amortize less well than table1's 528.
func TestWarmExperimentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const perCell = 2 << 10 // bytes
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
