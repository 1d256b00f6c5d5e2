package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the exclusive method of Python's statistics.quantiles(xs, n=4),
// so the spreads printed here are the ones a reader recomputes from the
// raw values. A single value is its own quartiles; no values give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile that has at least ten
// samples beyond it, with its nearest-rank value; ok is false when even the
// median has fewer than ten samples above it (fewer than 20 samples).
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if rank := nearestRank(p, len(xs)); rank >= 1 && len(xs)-rank >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int { return int(math.Ceil(p * float64(n) / 100)) }

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[min(max(nearestRank(p, len(d)), 1), len(d))-1]
}

// Verdicts of compareSamples.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved needs.
const minPairs = 10

// absoluteFloor is, per metric, the smallest loss in the metric's unit that
// counts against its bound. Set-ups under a second move by tens of
// milliseconds between identical runs, more than a share of their median;
// BENCHMARK.json's metric entries have a fixed set of keys, so the floor
// lives here.
var absoluteFloor = map[string]float64{"setup_s": 0.05}

// compareSamples judges a change against its parent from paired runs of
// one workload and metric: parent[i] and change[i] form pair i. A change
// improved a metric when it wins at least nine pairs in ten and its median
// beats the parent's by more than the parent's interquartile range. It is
// worse when its median trails the parent's by more than its tolerance:
// bound (a share of the parent's median) or floor (in the metric's unit),
// whichever is larger. A metric without a bound (bound 0) is worse only by
// the mirror of the improvement rule. Where the parent's own spread exceeds
// the tolerance the metric is unresolved, unless every change run beats
// every parent run.
func compareSamples(parent, change []float64, lowerBetter bool, bound, floor float64) string {
	n := min(len(parent), len(change))
	if n < minPairs {
		return unresolved
	}
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins, losses := 0, 0
	for i := range n {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	q1, pmed, q3 := quartiles(parent)
	iqr := q3 - q1
	gain := median(change) - pmed // positive: change reads better
	if lowerBetter {
		gain = -gain
	}
	tolerance := max(bound*math.Abs(pmed), floor)
	switch {
	case wins*10 >= 9*n && gain > iqr:
		return improved
	case bound == 0:
		if losses*10 >= 9*n && -gain > iqr {
			return worse
		}
		return unchanged
	case iqr > tolerance:
		if allBetter(change, parent, better) {
			return unchanged
		}
		return unresolved
	case -gain > tolerance:
		return worse
	}
	return unchanged
}

// allBetter reports whether every value of a reads better than every value
// of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// runRecord is one line of a run log for -compare: the workload a run
// measured and the result line the benchmark printed for it.
type runRecord struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

// workloadLog is what a run log holds for one workload: the operations its
// runs attempted and failed, and each metric's samples in file order.
type workloadLog struct {
	attempted, failed int
	samples           map[string][]float64
}

// readRunLog loads a run log keyed by workload.
func readRunLog(path string) (map[string]*workloadLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*workloadLog)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		wl := out[rec.Workload]
		if wl == nil {
			wl = &workloadLog{samples: make(map[string][]float64)}
			out[rec.Workload] = wl
		}
		wl.attempted += rec.Result.Attempted
		wl.failed += rec.Result.Failed
		for name, m := range rec.Result.Metrics {
			wl.samples[name] = append(wl.samples[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// failsMore reports whether change failed a larger share of the operations
// it attempted than parent did.
func failsMore(parent, change *workloadLog) bool {
	return change.failed*max(parent.attempted, 1) > parent.failed*max(change.attempted, 1)
}

// compareLogs prints, per workload the two logs share, a verdict on its
// failures and one per metric, judged by the metric's direction and bound
// in spec, and reports whether anything got worse. A workload whose change
// fails a larger share of its operations is worse whatever its metrics
// read: a pass that fails early looks cheap.
func compareLogs(w io.Writer, spec benchSpec, parent, change map[string]*workloadLog) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-18s %-34s %-10s %14s %14s %6s\n", "workload", "metric", "verdict", "parent_p50", "change_p50", "pairs")
	for _, wl := range spec.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if p == nil || c == nil {
			continue
		}
		v := unchanged
		if failsMore(p, c) {
			v = worse
		}
		anyWorse = anyWorse || v == worse
		fmt.Fprintf(w, "%-18s %-34s %-10s %14s %14s %6s\n", wl.Name, "failed/attempted", v,
			fmt.Sprintf("%d/%d", p.failed, p.attempted), fmt.Sprintf("%d/%d", c.failed, c.attempted), "")
		for _, m := range spec.metrics() {
			ps, cs := p.samples[m.Name], c.samples[m.Name]
			if len(ps) == 0 || len(cs) == 0 {
				continue
			}
			v := compareSamples(ps, cs, m.Better == "lower", m.Bound, absoluteFloor[m.Name])
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-18s %-34s %-10s %14.6g %14.6g %6d\n",
				wl.Name, m.Name, v, median(ps), median(cs), min(len(ps), len(cs)))
		}
	}
	return anyWorse
}
