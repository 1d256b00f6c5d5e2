package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		ok    bool
		p, v  float64
		label string
	}{
		{19, false, 0, 0, "too few for a median with ten beyond"},
		{20, true, 50, 10, "median"},
		{199, true, 90, 180, "just short of p95"},
		{200, true, 95, 190, "p95"},
		{1000, true, 99, 990, "p99"},
		{10000, true, 99.9, 9990, "p99.9"},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p || v != c.v {
			t.Errorf("%s: tailPercentile(1..%d) = p%v %v %v; want p%v %v %v", c.label, c.n, p, v, ok, c.p, c.v, c.ok)
		}
	}
}

// around returns n values cycling through base*(1±spread).
func around(n int, base, spread float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + spread*math.Sin(float64(i)))
	}
	return xs
}

func TestCompareSamples(t *testing.T) {
	parent := around(10, 100, 0.01)
	cases := []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"faster everywhere", around(10, 90, 0.01), true, 0.1, improved},
		{"same distribution", around(10, 100, 0.01), true, 0.1, unchanged},
		{"slower within bound", around(10, 105, 0.01), true, 0.1, unchanged},
		{"slower beyond bound", around(10, 120, 0.01), true, 0.1, worse},
		{"higher is better", around(10, 120, 0.01), false, 0.1, improved},
		{"too few pairs", around(9, 50, 0.01), true, 0.1, unresolved},
		{"unbounded and worse", around(10, 120, 0.01), true, 0, worse},
	}
	for _, c := range cases {
		if got := compareSamples(parent, c.change, c.lower, c.bound, 0); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A parent noisier than the bound leaves a small loss unresolved.
	noisy := around(10, 100, 0.3)
	if got := compareSamples(noisy, around(10, 105, 0.3), true, 0.1, 0); got != unresolved {
		t.Errorf("noisy parent: %s, want %s", got, unresolved)
	}
	// An absolute floor above the bound absorbs a loss the bound alone
	// would count: 0.2 s → 0.28 s is 40% but under a 0.1 s floor.
	short := around(10, 0.2, 0.01)
	if got := compareSamples(short, around(10, 0.28, 0.01), true, 0.25, 0); got != worse {
		t.Errorf("short set-up without floor: %s, want %s", got, worse)
	}
	if got := compareSamples(short, around(10, 0.28, 0.01), true, 0.25, 0.1); got != unchanged {
		t.Errorf("short set-up with floor: %s, want %s", got, unchanged)
	}
}

func TestCompareLogs(t *testing.T) {
	dir := t.TempDir()
	// write logs ten runs of workload "hit", each with failed of its 10
	// passes failed, and reads the log back.
	write := func(name string, p50 float64, failed int) map[string]*workloadLog {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for i := range 10 {
			rec := runRecord{Workload: "hit", Result: result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metric{
				"pass_p50_s": {Value: p50 * (1 + 0.001*float64(i)), Unit: "s"},
			}}}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := readRunLog(path)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"hit"}],"end_to_end":[{"name":"pass_p50_s","unit":"s","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	parent := write("parent.jsonl", 1.0, 0)
	cases := []struct {
		name      string
		change    map[string]*workloadLog
		wantWorse bool
		verdict   string // of the failed/attempted row
	}{
		{"slower", write("slower.jsonl", 1.5, 0), true, unchanged},
		{"faster", write("faster.jsonl", 0.5, 0), false, unchanged},
		{"faster but failing", write("failing.jsonl", 0.5, 1), true, worse},
	}
	for _, c := range cases {
		var out bytes.Buffer
		got := compareLogs(&out, spec, parent, c.change)
		verdict := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == "failed/attempted" {
				verdict = f[2]
			}
		}
		if got != c.wantWorse || verdict != c.verdict {
			t.Errorf("%s: compareLogs = %v with failures %s; want %v and %s:\n%s", c.name, got, verdict, c.wantWorse, c.verdict, out.String())
		}
	}
}
