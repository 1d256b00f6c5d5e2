package farm

import (
	"errors"
	"hash/fnv"
	"io"
	"log/slog"

	"repro/internal/harness"
)

// The worker pool. A coordinator configured with worker URLs shards cold
// compute requests across its workers by rendezvous (highest-random-
// weight) hashing: every key scores every worker and lands on the
// maximum. The placement is minimal-disruption by construction — removing
// a worker only remaps the keys that worker owned, so a death re-shards
// its slice evenly across the survivors while every other cell stays on
// the worker whose cache already holds it (and a revival reclaims exactly
// its old slice).
//
// The coordinator reaches each worker through a compute-mode HTTPCache,
// so a worker follows the same health rule as any farm peer: a forward
// that got no answer marks the worker down and re-shards the key onto
// the others, pick skips a down worker until its cooldown has passed, and
// the next forward to it is the trial that revives it. Only when no
// worker is left — or a 4xx indicts the job rather than the worker — does
// the caller fall back to coordinator-local simulation, the universal
// last resort. Workers are plain shadowbindingd processes without
// -workers of their own (one forward hop — a worker never re-forwards).

type workerPool struct {
	workers []*HTTPCache
	log     *slog.Logger
}

// errNoWorkers reports that no worker could be asked — the quiet path to
// coordinator-local simulation, costing a miss rather than a warning.
var errNoWorkers = errors.New("farm: no healthy workers")

func newWorkerPool(urls []string, log *slog.Logger) *workerPool {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	p := &workerPool{log: log}
	for _, u := range urls {
		p.workers = append(p.workers, NewHTTPCache(u, HTTPCacheOptions{Compute: true}))
	}
	return p
}

// statuses snapshots every worker's health for /v1/stats.
func (p *workerPool) statuses() []WorkerStatus {
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStatus{URL: w.base, Healthy: w.health.up()}
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

// pick returns the worker with the highest rendezvous score for key,
// skipping workers in their cooldown and exclude (workers already tried
// this request); nil when no candidate remains. Ties break on URL order
// so pick stays deterministic.
func (p *workerPool) pick(key string, exclude map[*HTTPCache]bool) *HTTPCache {
	var best *HTTPCache
	var bestScore uint64
	for _, w := range p.workers {
		if exclude[w] || w.health.cooling() {
			continue
		}
		s := rendezvousScore(w.base, key)
		if best == nil || s > bestScore || (s == bestScore && w.base < best.base) {
			best, bestScore = w, s
		}
	}
	return best
}

// compute forwards one job to its rendezvous worker, re-sharding across
// the other workers while forwards get no answer. Returns the worker that
// answered. errNoWorkers (no worker asked) is the quiet miss that sends
// the caller to local simulation, and so is a worker whose trial another
// forward holds; a rejection (a 4xx indicts the job, not the worker) or
// running out of workers after failures surfaces the last error for the
// caller to report before falling back.
func (p *workerPool) compute(key string, job harness.CellJob, opts harness.Options) (harness.Run, string, error) {
	tried := make(map[*HTTPCache]bool)
	var lastErr error
	var lastWorker string
	for {
		w := p.pick(key, tried)
		if w == nil {
			if lastErr == nil {
				return harness.Run{}, "", errNoWorkers
			}
			return harness.Run{}, lastWorker, lastErr
		}
		tried[w] = true
		run, _, err := w.ResolveCell(key, job, opts)
		switch {
		case err == nil:
			return run, w.base, nil
		case errors.Is(err, errFarmDown):
			continue
		case rejected(err):
			return harness.Run{}, w.base, err
		case errors.Is(err, errNoAnswer):
			p.log.Warn("worker down", "worker", w.base, "err", err)
		}
		lastErr, lastWorker = err, w.base
	}
}
