// Package farm is the networked cell-farm layer over the content-addressed
// cell engine: an HTTP service (Server, behind cmd/shadowbindingd) that
// stores and computes simulation cells, a CellCache client (HTTPCache) that
// gives any process remote caching — and optionally remote *computation* —
// through the existing harness.CellCache interface, a streaming client
// (StreamClient) that consumes whole experiments, and a worker pool that
// rendezvous-shards cold cells across healthy processes.
//
// The protocol is deliberately small and cache-shaped, with one compute
// route:
//
//	GET  /v1/cells/{key}   remote cache read: 200 cell envelope | 404 miss
//	PUT  /v1/cells/{key}   remote cache write: 204 | 400 bad envelope
//	POST /v1/experiments   compute: body is a harness.ExperimentJobWire;
//	                       the server resolves every cell through its own
//	                       engine (cache first, fleet-wide single-flight,
//	                       then worker forward or simulation) and answers
//	                       an NDJSON stream — one StreamHeader line, one
//	                       cell envelope per unique cell in completion
//	                       order, and one StreamTrailer line whose presence
//	                       marks the stream complete. A single cell (a
//	                       client's miss, a coordinator's forward) is a
//	                       one-cell experiment.
//	GET  /v1/stats         farm counters as JSON (Stats, self-identified
//	                       by its schema field)
//
// A {key} must be a cell fingerprint (32 lowercase hex digits); anything
// else is a 400. Cell and stream bodies support gzip content negotiation
// in both directions (Content-Encoding on requests, Accept-Encoding/
// Content-Encoding on responses) — million-cycle traced cells compress
// well; a few idle gzip writers are kept across garbage collections. Either way
// a stream flushes once per burst: whenever the cells ready so far are
// written and none waits, so a burst of cache hits shares one flush while
// a cell that arrives alone is sent at once, and the stream doubles as a
// progress feed.
//
// Keys are the engine's content-addressed cell fingerprints; a client and
// server built from the same source derive identical keys for identical
// jobs, because the wire form carries exactly the fingerprinted fields.
// Every failure on the client side degrades to a cache miss — the harness
// CellCache contract — so a flaky or absent farm never fails a run, it
// only costs local re-simulation; the client never retries. A peer that
// gave no answer is down for a short cooldown (the client's health rule,
// which a coordinator also applies to its workers). On the server, each
// experiment request's own StreamCells call feeds its stream, whose drain
// goroutine encodes every line in place; the engine makes a single-flight
// record only for a cell that another request joins.
package farm

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
)

const (
	// Schema identifies the wire envelope layout.
	Schema = "shadowbinding-farm/v1"
	// CellsPath is the cell store: GET/PUT on CellsPath/{key} read and
	// write one cell.
	CellsPath = "/v1/cells"
	// ExperimentsPath is the one compute route: POST an ExperimentJobWire
	// (a single cell is a one-cell experiment), stream cell envelopes back
	// as they complete.
	ExperimentsPath = "/v1/experiments"
	// StatsPath serves the farm's counter snapshot.
	StatsPath = "/v1/stats"

	// StatsSchema identifies the /v1/stats payload layout. v2 added the
	// schema field itself, per-endpoint latency percentiles, worker health,
	// and the experiment-stream counters.
	StatsSchema = "shadowbinding-farm-stats/v2"
	// StreamHeaderSchema marks the first line of an experiment stream.
	StreamHeaderSchema = "shadowbinding-stream-header/v1"
	// StreamTrailerSchema marks the last line of an experiment stream; a
	// reader that hits EOF without it has a truncated stream.
	StreamTrailerSchema = "shadowbinding-stream-end/v1"

	// maxBodyBytes bounds request bodies, single-envelope response bodies,
	// and individual stream lines; cell envelopes and job wire forms are a
	// few KiB, so 1 MiB is generous headroom, not a constraint. (A whole
	// experiment stream is unbounded — it is many lines, each bounded.)
	maxBodyBytes = 1 << 20

	// gzipMinBytes is the body size below which clients skip compression:
	// tiny bodies spend more on gzip framing than they save.
	gzipMinBytes = 1 << 10
)

// CellEnvelope is one cell result on the wire — the farm counterpart of
// the disk cache's on-disk entry. The scheme's name rides along for the
// same reason: a receiver revalidates it against its own scheme roster,
// so an entry from a binary with a renumbered or missing scheme is a miss
// (or a rejected write), never a silently mislabeled result.
type CellEnvelope struct {
	Schema string      `json:"schema"`
	Key    string      `json:"key"`
	Scheme string      `json:"scheme"`
	Run    harness.Run `json:"run"`
	// Cached reports, on stream lines, that the farm served the cell
	// without simulating (its cache hit, or the request coalesced onto an
	// in-flight resolution).
	Cached bool `json:"cached,omitempty"`
}

// newEnvelope wraps one run for the wire.
func newEnvelope(key string, r harness.Run, cached bool) CellEnvelope {
	return CellEnvelope{Schema: Schema, Key: key, Scheme: r.Scheme.String(), Run: r, Cached: cached}
}

// validate checks an envelope received for wantKey: schema, key identity,
// and scheme-name revalidation against this process's scheme roster.
func (e CellEnvelope) validate(wantKey string) error {
	if e.Schema != Schema {
		return fmt.Errorf("farm: envelope schema %q, want %q", e.Schema, Schema)
	}
	if wantKey != "" && e.Key != wantKey {
		return fmt.Errorf("farm: envelope key %q does not match requested %q (version skew?)", e.Key, wantKey)
	}
	kind, ok := core.SchemeKindByName(e.Scheme)
	if !ok || kind != e.Run.Scheme {
		return fmt.Errorf("farm: envelope scheme %q does not resolve to the run's kind", e.Scheme)
	}
	return nil
}

// decodeEnvelope reads and validates one envelope from r.
func decodeEnvelope(r io.Reader, wantKey string) (CellEnvelope, error) {
	var env CellEnvelope
	if err := json.NewDecoder(io.LimitReader(r, maxBodyBytes)).Decode(&env); err != nil {
		return CellEnvelope{}, fmt.Errorf("farm: decode cell envelope: %w", err)
	}
	if err := env.validate(wantKey); err != nil {
		return CellEnvelope{}, err
	}
	return env, nil
}

// StreamHeader is the first NDJSON line of an experiment stream: the
// number of unique cells the stream will carry, so a consumer can render
// progress before the first cell lands.
type StreamHeader struct {
	Schema string `json:"schema"`
	Cells  int    `json:"cells"`
}

// StreamTrailer is the last NDJSON line of an experiment stream — the
// completeness marker that distinguishes a finished stream from one cut
// off mid-body. Err carries a server-side failure (the cells already
// streamed remain valid).
type StreamTrailer struct {
	Schema string `json:"schema"`
	Done   int    `json:"done"`
	Err    string `json:"error,omitempty"`
}

// WorkerStatus is one worker's health as the coordinator last saw it:
// Healthy is false while its last forward got no answer.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// LatencyStats summarizes one endpoint's request latency, in
// milliseconds, from a fixed log-spaced histogram: each percentile is the
// upper bound of its bucket, exact to within one bucket ratio.
type LatencyStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Stats is the farm server's counter snapshot, served on StatsPath and
// self-identified by Schema (StatsSchema). The Engine* fields are the
// embedded cell engine's accounting: local cache hits and simulations
// behind the compute route (forwarded cells are counted by the worker
// that ran them, and as Forwarded here).
type Stats struct {
	Schema          string                  `json:"schema"`
	Gets            int64                   `json:"gets"`              // GET requests
	GetHits         int64                   `json:"get_hits"`          // GETs served from the store
	Puts            int64                   `json:"puts"`              // accepted PUT writes
	Computes        int64                   `json:"computes"`          // one-cell experiment requests
	Experiments     int64                   `json:"experiments"`       // multi-cell experiment requests
	StreamedCells   int64                   `json:"streamed_cells"`    // cells streamed on experiment responses
	Coalesced       int64                   `json:"coalesced"`         // requests that joined an in-flight resolution
	Forwarded       int64                   `json:"forwarded"`         // cells served by a worker
	WorkerErrors    int64                   `json:"worker_errors"`     // forwards that failed (re-shard or local fallback)
	InFlight        int64                   `json:"in_flight"`         // compute resolutions currently running
	EngineCells     int64                   `json:"engine_cells"`      // cells resolved by the local engine
	EngineHits      int64                   `json:"engine_hits"`       // ... served from the local cache (or a worker)
	EngineSimulated int64                   `json:"engine_simulated"`  // ... simulated locally
	SimCycles       uint64                  `json:"engine_sim_cycles"` // simulated cycles executed locally
	Workers         []WorkerStatus          `json:"workers,omitempty"` // tracked worker health
	Latency         map[string]LatencyStats `json:"latency_ms,omitempty"`
}

// httpError writes status with a plain-text reason.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// ---------------------------------------------------------------------------
// gzip content negotiation.

// gzipAccepted reports whether a request advertises gzip response support.
func gzipAccepted(h http.Header) bool {
	return strings.Contains(h.Get("Accept-Encoding"), "gzip")
}

// requestBody returns r's body bounded to maxBodyBytes, transparently
// decompressing a gzip Content-Encoding. The bound applies to the
// *decompressed* bytes too, so a compression bomb cannot expand past the
// same limit a plain body has.
func requestBody(w http.ResponseWriter, r *http.Request) (io.Reader, error) {
	var rd io.Reader = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(rd)
		if err != nil {
			return nil, fmt.Errorf("farm: gzip request body: %w", err)
		}
		rd = io.LimitReader(gz, maxBodyBytes)
	}
	return rd, nil
}

// maybeGunzip wraps a response body when the server negotiated gzip.
// Callers bound their own reads (decodeEnvelope's limit, the stream
// reader's per-line cap), so no total limit is imposed here — an
// experiment stream is legitimately larger than any single body.
func maybeGunzip(resp *http.Response) (io.Reader, error) {
	if resp.Header.Get("Content-Encoding") != "gzip" {
		return resp.Body, nil
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("farm: gzip response body: %w", err)
	}
	return gz, nil
}

// maybeGzip compresses a request body when it is worth it, returning the
// (possibly original) bytes and the Content-Encoding value to send (""
// for identity — tiny or incompressible bodies go as-is).
func maybeGzip(body []byte) ([]byte, string) {
	if len(body) < gzipMinBytes {
		return body, ""
	}
	var buf bytes.Buffer
	gz := newGzipWriter(&buf)
	gz.Write(body) //nolint:errcheck // bytes.Buffer writes cannot fail
	if err := closeGzipWriter(gz); err != nil || buf.Len() >= len(body) {
		return body, ""
	}
	return buf.Bytes(), "gzip"
}

// gzipWriters holds a few idle gzip writers (about 800 kB of deflate
// state each) in a channel, where they outlive garbage collection: a warm
// pass runs a few GCs, and a sync.Pool alone would rebuild a writer after
// each. Four is twice what a farm round trip holds at once (a request
// body and a response stream). Writers beyond that, which concurrent
// requests return, go to spareGzipWriters, so a busy server keeps one per
// concurrent request until the pool drops them. A writer is idle only
// after Close.
var (
	gzipWriters      = make(chan *gzip.Writer, 4)
	spareGzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
)

// newGzipWriter returns an idle gzip writer reset onto w.
func newGzipWriter(w io.Writer) *gzip.Writer {
	var gz *gzip.Writer
	select {
	case gz = <-gzipWriters:
	default:
		gz = spareGzipWriters.Get().(*gzip.Writer)
	}
	gz.Reset(w)
	return gz
}

// closeGzipWriter closes gz, finishing its stream, and keeps it idle.
func closeGzipWriter(gz *gzip.Writer) error {
	err := gz.Close()
	select {
	case gzipWriters <- gz:
	default:
		spareGzipWriters.Put(gz)
	}
	return err
}
