package farm

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// The worker pool. A coordinator configured with worker URLs shards cold
// compute requests across the *healthy* subset by rendezvous (highest-
// random-weight) hashing: every key scores every worker and lands on the
// maximum. The placement is minimal-disruption by construction — removing
// a worker only remaps the keys that worker owned, so a death re-shards
// its slice evenly across the survivors while every other cell stays on
// the worker whose cache already holds it (and a revival reclaims exactly
// its old slice).
//
// Health is tracked two ways: a background prober GETs every worker's
// /v1/stats on a fixed cadence and flips workers dead or alive, and a
// failed forward marks its worker dead immediately (the probe revives it
// when it answers again). A failed forward re-shards onto the remaining
// healthy workers; only when none remain — or the failure indicts the job
// rather than the worker — does the caller fall back to coordinator-local
// simulation, the universal last resort. Workers are plain shadowbindingd
// processes without -workers of their own (one forward hop — a worker
// never re-forwards).

// worker is one tracked worker endpoint.
type worker struct {
	url     string
	healthy atomic.Bool
}

type workerPool struct {
	workers []*worker
	client  *http.Client
	timeout time.Duration
	log     *slog.Logger

	stop chan struct{} // closed by Close
	done chan struct{} // closed when the probe loop exits
}

// errNoWorkers reports an empty healthy set — the quiet path to
// coordinator-local simulation, costing a miss rather than a warning.
var errNoWorkers = errors.New("farm: no healthy workers")

// probeTimeout bounds one health probe; a worker that cannot answer its
// stats endpoint this fast is not going to answer a compute request.
const probeTimeout = 2 * time.Second

// newWorkerPool tracks urls, forwarding with timeout per request and
// probing health every probeEvery (zero or negative: probing disabled —
// passive failure detection still applies, but a dead worker is only
// revived by a probe, so non-test callers want it on).
func newWorkerPool(urls []string, timeout, probeEvery time.Duration, log *slog.Logger) *workerPool {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	p := &workerPool{
		client:  &http.Client{},
		timeout: timeout,
		log:     log,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, u := range urls {
		w := &worker{url: strings.TrimRight(u, "/")}
		w.healthy.Store(true)
		p.workers = append(p.workers, w)
	}
	if probeEvery > 0 {
		go p.probeLoop(probeEvery)
	} else {
		close(p.done)
	}
	return p
}

// Close stops the probe loop and waits for it to exit.
func (p *workerPool) Close() {
	close(p.stop)
	<-p.done
}

// probeLoop polls every worker's stats endpoint on a fixed cadence,
// flipping health on transitions.
func (p *workerPool) probeLoop(every time.Duration) {
	defer close(p.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.probeAll()
		}
	}
}

// probeAll probes every worker once.
func (p *workerPool) probeAll() {
	for _, w := range p.workers {
		healthy := p.probe(w.url)
		if w.healthy.Swap(healthy) != healthy {
			if healthy {
				p.log.Info("worker revived", "worker", w.url)
			} else {
				p.log.Warn("worker down (probe)", "worker", w.url)
			}
		}
	}
}

// probe reports whether one worker answers its stats endpoint.
func (p *workerPool) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+StatsPath, nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// markDead flips one worker unhealthy after a failed forward — passive
// detection between probes, so one timeout is paid once, not per key.
func (p *workerPool) markDead(url string, err error) {
	for _, w := range p.workers {
		if w.url == url && w.healthy.Swap(false) {
			p.log.Warn("worker down (forward failed)", "worker", url, "err", err)
		}
	}
}

// statuses snapshots every worker's health for /v1/stats.
func (p *workerPool) statuses() []WorkerStatus {
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStatus{URL: w.url, Healthy: w.healthy.Load()}
	}
	return out
}

// rendezvousScore is the HRW weight of (worker, key): FNV-1a over the
// worker URL, a separator, and the key. Deterministic across processes —
// any coordinator shards a warm fleet identically.
func rendezvousScore(url, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, url) //nolint:errcheck // hash writes cannot fail
	h.Write([]byte{0})
	io.WriteString(h, key) //nolint:errcheck
	return h.Sum64()
}

// pick returns the healthy worker with the highest rendezvous score for
// key, skipping exclude (workers already tried this request); "" when no
// candidate remains. Ties break on URL order so pick stays deterministic.
func (p *workerPool) pick(key string, exclude map[string]bool) string {
	var best string
	var bestScore uint64
	for _, w := range p.workers {
		if !w.healthy.Load() || exclude[w.url] {
			continue
		}
		s := rendezvousScore(w.url, key)
		if best == "" || s > bestScore || (s == bestScore && w.url < best) {
			best, bestScore = w.url, s
		}
	}
	return best
}

// compute forwards one job to its rendezvous worker as a one-cell
// experiment stream, re-sharding across the surviving healthy workers as
// failures mark workers dead. Returns the worker that answered.
// errNoWorkers (empty healthy set, nothing attempted) is the quiet miss
// that sends the caller to local simulation; a rejection (a 4xx indicts
// the job, not the worker, which stays healthy) or an exhausted healthy
// set after failures surfaces the last error for the caller to report
// before falling back.
func (p *workerPool) compute(key string, job harness.CellJob, opts harness.Options) (harness.CellResult, string, error) {
	tried := make(map[string]bool)
	var lastErr error
	var lastWorker string
	for {
		url := p.pick(key, tried)
		if url == "" {
			if lastErr == nil {
				return harness.CellResult{}, "", errNoWorkers
			}
			return harness.CellResult{}, lastWorker, lastErr
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
		env, err := resolveCell(ctx, p.client, url, key, job, opts)
		cancel()
		if err == nil {
			return harness.CellResult{Key: key, Run: env.Run, Cached: env.Cached}, url, nil
		}
		if rejected(err) {
			return harness.CellResult{}, url, err
		}
		tried[url] = true
		p.markDead(url, err)
		lastErr, lastWorker = err, url
	}
}
