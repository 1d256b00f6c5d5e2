package farm

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Per-endpoint request-latency histograms behind /v1/stats. Buckets are
// fixed and log-spaced — bucket i covers up to latBaseMicros·latRatio^i
// microseconds — so observation is one atomic increment and a percentile
// is the upper bound of the bucket holding its rank: exact to within one
// ratio step (×1.6), which is plenty to tell a 2 ms cache hit from a 2 s
// simulation, with zero allocation and no locks on the hot path.

const (
	latBuckets    = 40
	latBaseMicros = 50.0
	latRatio      = 1.6
)

// latEndpoints is the fixed endpoint set: the histogram map is built once
// at server construction, so observation never takes a lock.
var latEndpoints = []string{"get_cell", "put_cell", "experiments", "stats", "other"}

// endpointOf classifies a request for latency accounting.
func endpointOf(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, CellsPath+"/") && r.Method == http.MethodGet:
		return "get_cell"
	case strings.HasPrefix(r.URL.Path, CellsPath+"/") && r.Method == http.MethodPut:
		return "put_cell"
	case r.URL.Path == ExperimentsPath && r.Method == http.MethodPost:
		return "experiments"
	case r.URL.Path == StatsPath:
		return "stats"
	}
	return "other"
}

type latencyHist struct {
	counts [latBuckets]atomic.Int64
}

// observe files one request duration.
func (h *latencyHist) observe(d time.Duration) {
	us := float64(d.Microseconds())
	i := 0
	for bound := latBaseMicros; i < latBuckets-1 && us > bound; i++ {
		bound *= latRatio
	}
	h.counts[i].Add(1)
}

// bucketBoundMs is bucket i's upper bound in milliseconds.
func bucketBoundMs(i int) float64 {
	bound := latBaseMicros
	for ; i > 0; i-- {
		bound *= latRatio
	}
	return bound / 1000
}

// summary renders the histogram as count + p50/p95/p99; ok is false when
// nothing was observed (the endpoint is then omitted from /v1/stats).
func (h *latencyHist) summary() (LatencyStats, bool) {
	var counts [latBuckets]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return LatencyStats{}, false
	}
	pct := func(q float64) float64 {
		rank := int64(q * float64(total))
		if rank < 1 {
			rank = 1
		}
		var cum int64
		for i, c := range counts {
			cum += c
			if cum >= rank {
				return bucketBoundMs(i)
			}
		}
		return bucketBoundMs(latBuckets - 1)
	}
	return LatencyStats{Count: total, P50: pct(0.50), P95: pct(0.95), P99: pct(0.99)}, true
}

// latencySet is the per-endpoint histogram collection.
type latencySet struct {
	hists map[string]*latencyHist
}

func newLatencySet() *latencySet {
	m := make(map[string]*latencyHist, len(latEndpoints))
	for _, ep := range latEndpoints {
		m[ep] = &latencyHist{}
	}
	return &latencySet{hists: m}
}

func (s *latencySet) observe(endpoint string, d time.Duration) {
	if h, ok := s.hists[endpoint]; ok {
		h.observe(d)
	}
}

// snapshot summarizes every endpoint with at least one observation.
func (s *latencySet) snapshot() map[string]LatencyStats {
	out := make(map[string]LatencyStats)
	for ep, h := range s.hists {
		if st, ok := h.summary(); ok {
			out[ep] = st
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
