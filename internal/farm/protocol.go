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
//	GET  /v1/cells/{key}   remote cache read: 200 cell line | 404 miss
//	PUT  /v1/cells/{key}   remote cache write: 204 | 400 bad cell line
//	POST /v1/experiments   compute: body is a harness.ExperimentJobWire;
//	                       the server resolves every cell through its own
//	                       engine (cache first, fleet-wide single-flight,
//	                       then worker forward or simulation) and answers
//	                       a line stream — one JSON StreamHeader line, one
//	                       cell line per unique cell in completion order,
//	                       and one JSON StreamTrailer line whose presence
//	                       marks the stream complete. A single cell (a
//	                       client's miss, a coordinator's forward) is a
//	                       one-cell experiment.
//	GET  /v1/stats         farm counters as JSON (Stats, self-identified
//	                       by its schema field)
//
// A {key} must be a cell fingerprint (32 lowercase hex digits); anything
// else is a 400. Keys are the engine's content-addressed cell
// fingerprints; a client and server built from the same source derive
// identical keys for identical jobs, because the wire form carries exactly
// the fingerprinted fields.
//
// Every cell body, on the stream and on the cell routes, is one cell
// record (harness.AppendRecord), the line a disk store also keeps: the
// values of harness.Run's fields in an order derived from Run itself and
// named by the line's schema token, so a peer with another Run layout is
// a protocol error, never counters in the wrong fields. Cell and stream
// bodies support gzip content negotiation in both directions
// (Content-Encoding on requests, Accept-Encoding/Content-Encoding on
// responses), always at gzip.BestSpeed.
//
// On the server, each experiment request's own StreamCells call, keyed
// straight from the request's axes, feeds its stream, whose drain
// goroutine appends every cell line into one buffer and flushes once per
// burst, through the ResponseController, so Server.Handler's request
// logging does not hold it back: a burst of cache hits shares one flush, a
// cell that arrives alone is sent at once, and the stream doubles as a
// progress feed. The engine builds a cell's job only when it resolves the
// cell, and makes a single-flight record only for a cell that another
// request joins.
//
// On the client, HTTPCache is a harness.CellCache over the store routes,
// so `-remote URL` slots a shared store under any cmd's cache stack. In
// compute mode it is also a harness.CellResolver (a miss is a one-cell
// stream) and a harness.ExperimentResolver: a whole matrix is ONE stream,
// which StreamClient decodes and validates line by line, and whose cells
// the session's engine puts straight into the matrix; a tiered stack
// stores them in its persistent layers (a -cache directory), not in its
// memory layer. A stream without its trailer is truncated, a typed
// StreamError; what it delivered stays valid, and the engine resolves the
// rest per cell. Every client failure degrades to a cache miss — the
// CellCache contract — so a flaky or absent farm never fails a run, it
// only costs local re-simulation; the client never retries. A peer that
// gave no answer is down for a short cooldown (the health rule, which a
// coordinator also applies to its workers).
//
// What a stream needs at both ends is kept idle between streams, where it
// outlives garbage collection (idle): gzip writers and readers, the
// client's line buffers and the server's line queues.
package farm

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/harness"
)

const (
	// Schema identifies the cell record; a cell line's first field is
	// Schema and the hash of harness.Run's layout.
	Schema = harness.RecordSchema
	// CellsPath is the cell store: GET/PUT on CellsPath/{key} read and
	// write one cell.
	CellsPath = "/v1/cells"
	// ExperimentsPath is the one compute route: POST an ExperimentJobWire
	// (a single cell is a one-cell experiment), stream cell lines back as
	// they complete.
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

	// maxBodyBytes bounds request bodies, single-cell response bodies,
	// and individual stream lines at a cell record's own bound; a job
	// wire form is a few KiB, so 1 MiB is headroom for it too. (A whole
	// experiment stream is unbounded — it is many lines, each bounded.)
	maxBodyBytes = harness.MaxRecordBytes

	// gzipMinBytes is the body size below which clients skip compression:
	// tiny bodies spend more on gzip framing than they save.
	gzipMinBytes = 1 << 10
)

// CellEnvelope is one cell as the farm delivers it: a decoded and checked
// cell record (harness.DecodeRecord), with the record's schema and scheme
// name. The decoder revalidates the scheme name against this process's
// roster, as it does for a disk store's entries, so a cell from a binary
// with a renumbered or missing scheme is a miss (or a rejected write),
// never a silently mislabeled result. The farm never sends an envelope as
// JSON; the tags serve callers that serialize envelopes themselves.
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

// envelope is the envelope of a decoded cell record.
func envelope(c harness.CellResult) CellEnvelope {
	return CellEnvelope{Schema: Schema, Key: c.Key, Scheme: c.Run.Scheme.String(), Run: c.Run, Cached: c.Cached}
}

// StreamHeader is the first line of an experiment stream, in JSON: the
// number of unique cells the stream will carry, so a consumer can render
// progress before the first cell lands.
type StreamHeader struct {
	Schema string `json:"schema"`
	Cells  int    `json:"cells"`
}

// StreamTrailer is the last line of an experiment stream, in JSON — the
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
// same limit a plain body has. Close keeps a gzip reader idle.
func requestBody(w http.ResponseWriter, r *http.Request) (io.ReadCloser, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if r.Header.Get("Content-Encoding") != "gzip" {
		return body, nil
	}
	gz, err := newGzipReader(body)
	if err != nil {
		return nil, fmt.Errorf("farm: gzip request body: %w", err)
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(gz, maxBodyBytes), gz}, nil
}

// requestBuffers hold request bodies while they decode. A json.Decoder
// would grow a fresh buffer past each body's size instead. A buffer that
// grew past keptRequestBytes (a table1 body is about 10 kB) is dropped,
// so an oversized request does not stay resident.
var requestBuffers = newIdle(func() *bytes.Buffer { return new(bytes.Buffer) })

const keptRequestBytes = 64 << 10

// decodeRequest reads a whole request body (requestBody bounds it) into an
// idle buffer and unmarshals it into v.
func decodeRequest(body io.Reader, v any) error {
	buf := requestBuffers.get()
	defer func() {
		if buf.Cap() <= keptRequestBytes {
			requestBuffers.put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// maybeGunzip wraps a response body when the server negotiated gzip; its
// Close keeps the gzip reader idle and leaves the body to drainClose.
// Callers bound their own reads (harness.ReadRecord's limit, the stream
// reader's per-line cap), so no total limit is imposed here — an
// experiment stream is legitimately larger than any single body.
func maybeGunzip(resp *http.Response) (io.ReadCloser, error) {
	if resp.Header.Get("Content-Encoding") != "gzip" {
		return io.NopCloser(resp.Body), nil
	}
	gz, err := newGzipReader(resp.Body)
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

// idle keeps values that are costly to build between uses: a few in a
// channel, where they outlive garbage collection (a warm pass runs a few
// collections, and a sync.Pool alone would rebuild its values after
// each), and any more, which concurrent requests return, in a sync.Pool,
// so a busy server keeps one per concurrent request until the pool drops
// them. Four is twice what a farm round trip holds of one kind at once.
type idle[T any] struct {
	kept  chan T
	spare sync.Pool
}

func newIdle[T any](build func() T) *idle[T] {
	return &idle[T]{kept: make(chan T, 4), spare: sync.Pool{New: func() any { return build() }}}
}

func (l *idle[T]) get() T {
	select {
	case v := <-l.kept:
		return v
	default:
		return l.spare.Get().(T)
	}
}

func (l *idle[T]) put(v T) {
	select {
	case l.kept <- v:
	default:
		l.spare.Put(v)
	}
}

// The farm's idle gzip state: writers (about 1.2 MB of deflate state
// each, once used) and readers (about 45 kB of inflate state and their
// buffered input). A writer is idle only after Close, a reader after its
// Close. Every writer compresses at gzip.BestSpeed: cell lines are short
// and alike, so the fastest level costs only a few bytes a cell more than
// the default level, at about 30% of its deflate time.
var (
	gzipWriters = newIdle(func() *gzip.Writer {
		gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // a valid level cannot fail
		return gz
	})
	gzipReaders = newIdle(func() *gzipReader { return new(gzipReader) })
)

// newGzipWriter returns an idle gzip writer reset onto w.
func newGzipWriter(w io.Writer) *gzip.Writer {
	gz := gzipWriters.get()
	gz.Reset(w)
	return gz
}

// closeGzipWriter closes gz, finishing its stream, and keeps it idle.
func closeGzipWriter(gz *gzip.Writer) error {
	err := gz.Close()
	gzipWriters.put(gz)
	return err
}

// gzipReader decompresses one body, reading it through its own buffer
// (gzip would otherwise wrap each body in a fresh one).
type gzipReader struct {
	gzip.Reader
	in bufio.Reader
}

// newGzipReader returns an idle gzip reader reset onto r, its gzip
// header already read.
func newGzipReader(r io.Reader) (*gzipReader, error) {
	z := gzipReaders.get()
	z.in.Reset(r)
	if err := z.Reset(&z.in); err != nil {
		z.Close()
		return nil, err
	}
	return z, nil
}

// Close keeps z idle; the body it read stays open.
func (z *gzipReader) Close() error {
	z.in.Reset(nil)
	gzipReaders.put(z)
	return nil
}
