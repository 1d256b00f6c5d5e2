package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

const testKey = "00112233445566778899aabbccddeeff"

// cellLine is the record of one cell, without its newline.
func cellLine(t testing.TB, key string, r harness.Run, cached bool) string {
	t.Helper()
	line, err := harness.AppendRecord(nil, key, &r, cached)
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// recordSchema is the schema token every record opens with.
var recordSchema = func() string {
	line, _ := harness.AppendRecord(nil, testKey, &harness.Run{}, false) // a zero run encodes
	schema, _, _ := strings.Cut(string(line), " ")
	return schema
}()

// withField returns line with field i replaced by tok.
func withField(line string, i int, tok string) string {
	f := strings.Split(line, " ")
	f[i] = tok
	return strings.Join(f, " ")
}

// sampleRun is a valid NDA run with non-zero counters.
func sampleRun() harness.Run {
	return harness.Run{
		Bench: "505.mcf", Config: "small", Scheme: core.KindNDA,
		Cycles: 1500, Insts: 900, IPC: 0.6, TotalCycles: 2000,
		Stats: core.Stats{Cycles: 2000, Committed: 1200, Mispredicts: 17},
	}
}

// TestStreamBytesPerCell guards the wire size of a warm stream: a
// 132-cell Mega matrix (one BOOM row × 6 schemes × 22 proxies) sent with
// identity bodies costs at most 256 bytes a cell, framing included. The
// JSON envelopes the positional record replaced cost about 980.
func TestStreamBytesPerCell(t *testing.T) {
	const maxPerCell = 256
	_, ts := newTestFarm(t, ServerConfig{Parallelism: 2})
	spec := harness.MatrixSpec{
		Name:    "wire-size",
		Configs: []core.Config{core.MegaConfig()},
		Schemes: core.SchemeKinds(),
		Benches: workloads.Suite(),
	}
	cells := len(spec.Schemes) * len(spec.Benches)
	wire := harness.WireExperiment(spec, testOpts())
	var counted int64
	tp := &http.Transport{DisableCompression: true}
	t.Cleanup(tp.CloseIdleConnections)
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		req = req.Clone(req.Context())
		req.Header.Del("Accept-Encoding") // an identity body
		resp, err := tp.RoundTrip(req)
		if err == nil {
			resp.Body = &countingReader{ReadCloser: resp.Body, n: &counted}
		}
		return resp, err
	})}
	for pass := range 2 { // cold, then warm from the farm's store
		counted = 0
		n, err := NewStreamClient(ts.URL, hc).Experiment(context.Background(), wire, func(CellEnvelope) error { return nil })
		if err != nil || n != cells {
			t.Fatalf("pass %d: %d cells, %v", pass, n, err)
		}
	}
	perCell := counted / int64(cells)
	t.Logf("%d bytes a cell", perCell)
	if perCell > maxPerCell {
		t.Errorf("an identity stream cost %d bytes a cell, want at most %d", perCell, maxPerCell)
	}
}

type countingReader struct {
	io.ReadCloser
	n *int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	*r.n += int64(n)
	return n, err
}

// v1Envelope is a cell as a shadowbinding-farm/v1 peer sent it: a JSON
// envelope, here with counters no simulation produced.
func v1Envelope(key string) []byte {
	data, _ := json.Marshal(CellEnvelope{Schema: "shadowbinding-farm/v1", Key: key, Scheme: "baseline",
		Run: harness.Run{Bench: "505.mcf", Config: "small", Cycles: 1, Insts: 99, IPC: 99}}) // finite numbers: cannot fail
	return data
}

// TestVersionSkewV1Peer: a farm or client that still speaks v1's JSON
// cells fails cleanly against this one. A v1 stream is a protocol error
// at its first cell, a v1 PUT is a 400 that stores nothing, and a session
// over a v1 farm renders table1 byte-identical to a local run: the
// experiment stream fails, the per-cell fallback fails cell by cell, and
// every cell is simulated locally.
func TestVersionSkewV1Peer(t *testing.T) {
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	v1 := func(keys []string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "{\"schema\":%q,\"cells\":%d}\n", StreamHeaderSchema, len(keys))
		for _, k := range keys {
			fmt.Fprintf(&b, "%s\n", v1Envelope(k))
		}
		fmt.Fprintf(&b, "{\"schema\":%q,\"done\":%d}\n", StreamTrailerSchema, len(keys))
		return b.String()
	}

	n, err := NewStreamClient("http://unused", nil).consume(strings.NewReader(v1([]string{key})),
		func(CellEnvelope) error { return nil })
	var se *StreamError
	if n != 0 || !errors.As(err, &se) || se.Reason != "protocol" {
		t.Fatalf("v1 stream: %d cells, %v; want a protocol StreamError", n, err)
	}

	srv, ts := newTestFarm(t, ServerConfig{})
	req, err := http.NewRequest(http.MethodPut, ts.URL+CellsPath+"/"+key, bytes.NewReader(v1Envelope(key)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || srv.Stats().Puts != 0 {
		t.Fatalf("v1 PUT: status %d, %d puts; want a 400 and none", resp.StatusCode, srv.Stats().Puts)
	}

	var experiments, computes atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.Write(v1Envelope(strings.TrimPrefix(r.URL.Path, CellsPath+"/"))) //nolint:errcheck
			return
		}
		var wire harness.ExperimentJobWire
		body, err := requestBody(w, r)
		if err == nil {
			err = decodeRequest(body, &wire)
			body.Close()
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec, wopts, err := wire.Spec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		keys := harness.SpecKeys(spec, wopts)
		if len(keys) == 1 {
			computes.Add(1)
		} else {
			experiments.Add(1)
		}
		io.WriteString(w, v1(keys)) //nolint:errcheck
	}))
	t.Cleanup(old.Close)
	table1 := func(cache harness.CellCache) (string, harness.SessionStats) {
		s := harness.NewSession(harness.SessionConfig{Options: opts, Schemes: []core.SchemeKind{core.KindBaseline}, Cache: cache})
		out, err := s.Experiment(context.Background(), "table1")
		if err != nil {
			t.Fatal(err)
		}
		return out, s.Stats()
	}
	want, _ := table1(nil)
	got, st := table1(harness.NewTieredCache(harness.NewMemoryCache(0), NewHTTPCache(old.URL, HTTPCacheOptions{Compute: true})))
	if got != want {
		t.Fatalf("table1 over a v1 farm:\n%s\nwant\n%s", got, want)
	}
	if st.Simulated != st.Cells || experiments.Load() != 1 || computes.Load() != int64(st.Cells) {
		t.Errorf("%+v after %d experiment and %d one-cell requests; want every cell simulated locally after 1 and %d",
			st, experiments.Load(), computes.Load(), st.Cells)
	}
}
