package farm

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// ServerConfig parameterizes NewServer. The zero value is usable: private
// in-memory store, no workers, local simulation bounded to all CPUs,
// discarded logs.
type ServerConfig struct {
	// Cache backs GET/PUT and the compute engine; nil gives the server a
	// private in-memory LRU (pass a stack with a harness.DiskCache layer to
	// persist).
	Cache harness.CellCache
	// Workers lists worker base URLs ("http://host:port"); when non-empty,
	// cold compute requests are rendezvous-sharded across the workers that
	// are not down, re-sharding around dead workers and falling back to
	// local simulation only when none remains.
	Workers []string
	// Parallelism bounds concurrent local simulations (zero: all CPUs).
	// Cache hits, coalesced waiters, and worker forwards are never bounded
	// by it.
	Parallelism int
	// Version overrides the engine's fingerprint version stamp (tests).
	Version string
	// Logger receives structured request and lifecycle logs (nil: discard).
	Logger *slog.Logger
}

// Server is the farm's HTTP service: a remote CellCache on GET/PUT, a
// compute service on POST /v1/experiments (a single cell is a one-cell
// experiment), and a stats endpoint. Every compute resolves through one
// embedded cell engine whose cache stack is the local store over the
// worker pool — so duplicate in-flight requests coalesce fleet-wide onto
// one resolution (the engine's single-flight), forwarded results are
// adopted into the local store by the tier walk's backfill, and local
// simulation is the engine's miss path, bounded by its simulation gate.
type Server struct {
	cache  harness.CellCache // the local store (the GET/PUT face)
	engine *harness.Engine
	pool   *workerPool
	log    *slog.Logger
	lat    *latencySet

	gets, getHits, puts   atomic.Int64
	computes, experiments atomic.Int64
	streamed              atomic.Int64
	forwarded, workerErrs atomic.Int64
	inFlight              atomic.Int64
}

// NewServer builds a farm server over cfg.
func NewServer(cfg ServerConfig) *Server {
	cache := cfg.Cache
	if cache == nil {
		cache = harness.NewMemoryCache(0)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &Server{
		cache: cache,
		log:   logger,
		lat:   newLatencySet(),
	}
	engineCache := cache
	if len(cfg.Workers) > 0 {
		s.pool = newWorkerPool(cfg.Workers, logger)
		// The pool joins the engine's cache stack as the slowest tier:
		// local store first, then the fleet; a forward hit backfills the
		// local store on the way back, and a total miss is the engine's
		// bounded local simulation.
		engineCache = harness.NewTieredCache(cache, &poolLayer{s: s})
	}
	s.engine = harness.NewEngine(engineCache, cfg.Version)
	s.engine.SetSimulationBound(workers)
	return s
}

// Close is a no-op: the server starts no goroutine that outlives a
// request, so it needs no shutdown. It is kept for existing callers.
func (s *Server) Close() {}

// Stats snapshots the farm's counters.
func (s *Server) Stats() Stats {
	es := s.engine.Stats()
	st := Stats{
		Schema:          StatsSchema,
		Gets:            s.gets.Load(),
		GetHits:         s.getHits.Load(),
		Puts:            s.puts.Load(),
		Computes:        s.computes.Load(),
		Experiments:     s.experiments.Load(),
		StreamedCells:   s.streamed.Load(),
		Coalesced:       int64(es.Coalesced),
		Forwarded:       s.forwarded.Load(),
		WorkerErrors:    s.workerErrs.Load(),
		InFlight:        s.inFlight.Load(),
		EngineCells:     int64(es.Cells),
		EngineHits:      int64(es.Hits - es.Coalesced),
		EngineSimulated: int64(es.Simulated),
		SimCycles:       es.SimCycles,
		Latency:         s.lat.snapshot(),
	}
	if s.pool != nil {
		st.Workers = s.pool.statuses()
	}
	return st
}

// Handler returns the farm's routed handler with request logging and
// latency accounting attached.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+CellsPath+"/{key}", s.handleGet)
	mux.HandleFunc("PUT "+CellsPath+"/{key}", s.handlePut)
	mux.HandleFunc("POST "+ExperimentsPath, s.handleExperiment)
	mux.HandleFunc("GET "+StatsPath, s.handleStats)
	return s.logged(mux)
}

// logged wraps h with one structured log line and one latency-histogram
// observation per request.
func (s *Server) logged(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(lw, r)
		dur := time.Since(start)
		s.lat.observe(endpointOf(r), dur)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", lw.status,
			"dur_ms", dur.Milliseconds(),
			"remote", r.RemoteAddr,
		)
	})
}

// loggingWriter captures the response status for the request log. Unwrap
// lets an http.ResponseController reach the response beneath, so a stream
// behind it still flushes.
type loggingWriter struct {
	http.ResponseWriter
	status int
}

func (w *loggingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *loggingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// poolLayer adapts the worker pool into a CellResolver cache layer — the
// slowest tier of the coordinator engine's stack. A forward hit is a
// cache hit whose backfill adopts the worker's result into the local
// store; a forward failure is a miss plus an error, which the engine
// degrades to bounded local simulation, the universal fallback.
type poolLayer struct{ s *Server }

func (pl *poolLayer) Get(string) (harness.Run, bool, error) { return harness.Run{}, false, nil }
func (pl *poolLayer) Put(string, harness.Run) error         { return nil }

func (pl *poolLayer) ResolveCell(key string, job harness.CellJob, opts harness.Options) (harness.Run, bool, error) {
	run, worker, err := pl.s.pool.compute(key, job, opts)
	if err != nil {
		if errors.Is(err, errNoWorkers) {
			return harness.Run{}, false, nil // quiet miss: simulate locally
		}
		pl.s.workerErrs.Add(1)
		pl.s.log.Warn("worker compute failed; simulating locally", "key", key, "worker", worker, "err", err)
		return harness.Run{}, false, err
	}
	pl.s.forwarded.Add(1)
	pl.s.log.Info("forwarded", "key", key, "worker", worker)
	return run, true, nil
}

// cellKey returns the request's {key} path value, or answers 400 and
// returns false unless it is a cell fingerprint (32 lowercase hex
// digits). The mux unescapes %2F inside the wildcard, so without this
// check a key could name a file outside a disk-backed store.
func cellKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if len(key) != 32 || strings.Trim(key, "0123456789abcdef") != "" {
		httpError(w, http.StatusBadRequest, "farm: %q is not a cell key", key)
		return "", false
	}
	return key, true
}

// handleGet serves one cell from the store: the remote cache read.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.gets.Add(1)
	key, ok := cellKey(w, r)
	if !ok {
		return
	}
	run, ok, err := s.cache.Get(key)
	if err != nil {
		s.log.Warn("cache read failed", "key", key, "err", err)
		httpError(w, http.StatusInternalServerError, "cache read: %v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no cell %s", key)
		return
	}
	line, err := harness.AppendRecord(nil, key, &run, true)
	if err != nil {
		s.log.Warn("stored cell not encodable", "key", key, "err", err)
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.getHits.Add(1)
	s.writeBody(w, r, "text/plain; charset=utf-8", append(line, '\n'))
}

// handlePut stores one cell: the remote cache write. A store failure is a
// 500 — the client treats it like any other cache-write failure (warn and
// continue), but the error is never swallowed here.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := cellKey(w, r)
	if !ok {
		return
	}
	body, err := requestBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer body.Close()
	cell, err := harness.ReadRecord(body, key)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.cache.Put(key, cell.Run); err != nil {
		s.log.Warn("cache write failed", "key", key, "err", err)
		httpError(w, http.StatusInternalServerError, "cache write: %v", err)
		return
	}
	s.puts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleExperiment resolves a whole experiment, streaming cells back in
// completion order: one header line, one cell line per unique cell (the
// engine's StreamCells keys the cells once, straight from the request's
// axes, and drops repeated keys), one trailer line. A request naming a
// configuration or benchmark a cell record cannot carry is a 400, before
// anything is resolved. The stream flushes once per burst, so it
// doubles as a progress feed; a client disconnect cancels the remaining
// work through the request context. A one-cell request is a single-cell
// compute (a client's miss or a coordinator's forward) and counts as one;
// anything larger counts as an experiment.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	body, err := requestBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var wire harness.ExperimentJobWire
	err = decodeRequest(body, &wire)
	body.Close()
	if err != nil {
		httpError(w, http.StatusBadRequest, "farm: decode experiment: %v", err)
		return
	}
	spec, opts, err := wire.Spec()
	if err == nil {
		err = encodableNames(spec)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.log.Enabled(r.Context(), slog.LevelDebug) {
		opts.Progress = func(format string, args ...any) {
			s.log.Debug("engine", "msg", fmt.Sprintf(format, args...))
		}
	}
	opts.Parallelism = s.experimentParallelism()

	var sw *streamWriter
	var done atomic.Int64
	s.inFlight.Add(1)
	runErr := s.engine.StreamCells(r.Context(), spec, opts, func(total int) {
		if total == 1 {
			s.computes.Add(1)
		} else {
			s.experiments.Add(1)
		}
		s.log.Info("experiment", "name", wire.Name, "cells", total)
		sw = newStreamWriter(w, r)
		sw.send(StreamHeader{Schema: StreamHeaderSchema, Cells: total})
	}, func(res harness.CellResult) {
		done.Add(1)
		s.streamed.Add(1)
		sw.sendCell(res)
	})
	s.inFlight.Add(-1)

	trailer := StreamTrailer{Schema: StreamTrailerSchema, Done: int(done.Load())}
	if runErr != nil {
		trailer.Err = runErr.Error()
		s.log.Warn("experiment failed", "name", wire.Name, "done", trailer.Done, "err", runErr)
	}
	sw.send(trailer)
	if err := sw.close(); err != nil {
		s.log.Warn("experiment stream write failed", "name", wire.Name, "err", err)
	}
}

// experimentParallelism sizes RunCells for an experiment request: all
// CPUs locally, widened when forwarding so every worker stays busy (their
// own simulation gates bound the real load).
func (s *Server) experimentParallelism() int {
	n := runtime.NumCPU()
	if s.pool != nil {
		if m := 4 * len(s.pool.workers); m > n {
			n = m
		}
	}
	return n
}

// encodableNames reports a configuration or benchmark name that a cell
// record could not carry.
func encodableNames(spec harness.MatrixSpec) error {
	for _, c := range spec.Configs {
		if !harness.RecordString(c.Name) {
			return fmt.Errorf("farm: configuration name %q is not encodable in a cell line", c.Name)
		}
	}
	for _, b := range spec.Benches {
		if !harness.RecordString(b.Name) {
			return fmt.Errorf("farm: benchmark name %q is not encodable in a cell line", b.Name)
		}
	}
	return nil
}

// cellName renders a job as the bench@config@scheme form the cmds use.
func cellName(job harness.CellJob) string {
	return fmt.Sprintf("%s@%s@%s", job.Bench.Name, job.Config.Name, job.Scheme)
}

// handleStats serves the counter snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, err := json.Marshal(s.Stats())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "farm: encode stats: %v", err)
		return
	}
	s.writeBody(w, r, "application/json", append(body, '\n'))
}

// writeBody writes body as the response, gzip-compressed when the client
// negotiated it.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	var out io.Writer = w
	if gzipAccepted(r.Header) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := newGzipWriter(w)
		defer closeGzipWriter(gz) //nolint:errcheck // a failed close surfaces as a truncated body
		out = gz
	}
	if _, err := out.Write(body); err != nil {
		// The status line is already out; all we can do is log.
		s.log.Warn("write response failed", "err", err)
	}
}

// streamWriter writes a stream's lines onto a response through one drain
// goroutine. RunCells workers queue their cell by value on a bounded
// channel, so a slow consumer back-pressures only its own request's
// workers; the drain appends each cell's line into the stream's one line
// buffer, so a line allocates nothing. Lines are gzip-compressed when
// negotiated and flushed once per burst, through the ResponseController,
// so wrappers that unwrap to the response still flush: whenever the queue
// has run dry after a write, so a burst of ready cells (a warm store)
// shares one flush and a cell that arrives alone (a cold stream) goes out
// at once. After a write failure (client gone) the drain keeps receiving
// without writing, and close reports the first failure; a cell a record
// cannot carry fails the stream the same way, so it ends without its
// trailer.
type streamWriter struct {
	out   io.Writer    // the response, or gz over it
	gz    *gzip.Writer // nil without negotiation
	rc    *http.ResponseController
	line  []byte // the line being written; drain's
	lines chan streamEntry
	done  chan struct{} // closed when drain exits
	err   error         // first write failure; drain's until done closes
}

// streamEntry is one queued line: a cell, or the header, trailer or
// queueEnd in meta.
type streamEntry struct {
	cell harness.CellResult
	meta any // a StreamHeader, StreamTrailer or queueEnd; nil for a cell
}

// queueEnd ends the drain, in place of closing the queue, so that the
// queue can be kept idle for the next stream.
type queueEnd struct{}

// streamQueues keeps line queues idle between streams. A queue holds 64
// lines: a burst of cache hits; then workers block.
var streamQueues = newIdle(func() chan streamEntry { return make(chan streamEntry, 64) })

// newStreamWriter starts a stream on w.
func newStreamWriter(w http.ResponseWriter, r *http.Request) *streamWriter {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sw := &streamWriter{out: w, rc: http.NewResponseController(w), line: make([]byte, 0, 512),
		lines: streamQueues.get(), done: make(chan struct{})}
	if gzipAccepted(r.Header) {
		w.Header().Set("Content-Encoding", "gzip")
		sw.gz = newGzipWriter(w)
		sw.out = sw.gz
	}
	go sw.drain()
	return sw
}

// send queues a header or trailer line.
func (sw *streamWriter) send(v any) { sw.lines <- streamEntry{meta: v} }

// sendCell queues a cell's line.
func (sw *streamWriter) sendCell(res harness.CellResult) { sw.lines <- streamEntry{cell: res} }

func (sw *streamWriter) drain() {
	defer close(sw.done)
	var e streamEntry // one variable for every line: &e.cell.Run escapes once
	for {
		if e = <-sw.lines; e.meta == (queueEnd{}) {
			return
		}
		if sw.err != nil {
			continue // client gone: keep draining, stop writing
		}
		if e.meta != nil {
			var data []byte
			data, sw.err = json.Marshal(e.meta)
			sw.line = append(sw.line[:0], data...)
		} else {
			sw.line, sw.err = harness.AppendRecord(sw.line[:0], e.cell.Key, &e.cell.Run, e.cell.Cached)
		}
		if sw.err == nil {
			sw.line = append(sw.line, '\n')
			_, sw.err = sw.out.Write(sw.line)
		}
		if sw.err == nil && len(sw.lines) == 0 {
			sw.flush()
		}
	}
}

// flush pushes the lines written so far through the gzip framing and out
// to the client.
func (sw *streamWriter) flush() {
	if sw.gz != nil {
		sw.gz.Flush() //nolint:errcheck // a failed flush surfaces on the next write
	}
	sw.rc.Flush() //nolint:errcheck // likewise
}

// close drains the queue and keeps it idle, finishes the gzip stream,
// and reports the first write failure.
func (sw *streamWriter) close() error {
	sw.lines <- streamEntry{meta: queueEnd{}}
	<-sw.done
	streamQueues.put(sw.lines)
	if sw.gz != nil {
		if err := closeGzipWriter(sw.gz); err != nil && sw.err == nil {
			sw.err = err
		}
	}
	return sw.err
}

// drainClose discards the remainder of a response body and closes it, so
// the transport can reuse the connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxBodyBytes)) //nolint:errcheck
	body.Close()
}
