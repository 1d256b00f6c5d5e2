package farm

import (
	"testing"
	"time"
)

// TestLatencyPercentilesNearestRank: a percentile is the bucket holding
// the nearest-rank observation, ceil(q·total). Rounding the rank down
// reads the median of three requests from the fastest one and lets a
// single slow request in 51 vanish below p99.
func TestLatencyPercentilesNearestRank(t *testing.T) {
	bucketOf := func(d time.Duration) float64 {
		var h latencyHist
		h.observe(d)
		st, _ := h.summary()
		return st.P50
	}
	cases := []struct {
		name     string
		obs      map[time.Duration]int
		p50, p99 time.Duration
	}{
		{
			name: "three requests",
			obs:  map[time.Duration]int{100 * time.Microsecond: 1, 10 * time.Millisecond: 1, time.Second: 1},
			p50:  10 * time.Millisecond,
			p99:  time.Second,
		},
		{
			name: "one slow outlier in 51",
			obs:  map[time.Duration]int{100 * time.Microsecond: 50, 2 * time.Second: 1},
			p50:  100 * time.Microsecond,
			p99:  2 * time.Second,
		},
	}
	for _, tc := range cases {
		var h latencyHist
		var total int64
		for d, n := range tc.obs {
			for range n {
				h.observe(d)
			}
			total += int64(n)
		}
		st, ok := h.summary()
		if !ok || st.Count != total {
			t.Fatalf("%s: summary ok=%v count=%d, want %d", tc.name, ok, st.Count, total)
		}
		if want := bucketOf(tc.p50); st.P50 != want {
			t.Errorf("%s: p50 = %v ms, want %v ms", tc.name, st.P50, want)
		}
		if want := bucketOf(tc.p99); st.P99 != want {
			t.Errorf("%s: p99 = %v ms, want %v ms", tc.name, st.P99, want)
		}
	}
}
