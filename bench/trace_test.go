package main

import (
	"context"
	"net/http/httptest"
	"testing"

	sb "repro"
	"repro/internal/harness"
)

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Overlapping children (two workers) cover [10, 50).
		{ID: 2, Parent: 1, Name: "cache.get", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "cache.get", Start: 20, End: 50},
		// A child running past its parent counts only inside it: [90, 100).
		{ID: 4, Parent: 1, Name: "cache.put", Start: 90, End: 120},
		{ID: 5, Parent: 4, Name: "disk", Start: 95, End: 105},
	}
	self := selfTimes(spans)
	want := map[string]int64{"pass": 100 - 40 - 10, "cache.get": 20 + 30, "cache.put": 30 - 10, "disk": 10}
	for name, v := range want {
		if self[name] != v {
			t.Errorf("self time of %s = %d, want %d", name, self[name], v)
		}
	}
}

// The timing decorator must keep a farm stack streaming whole experiments:
// one POST /v1/experiments, nothing simulated locally.
func TestTimedFarmStackStreamsOnce(t *testing.T) {
	srv := sb.NewFarmServer(sb.FarmServerConfig{Parallelism: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	tr := newTracer()
	if _, ok := tr.timed("cache.mem", harness.NewMemoryCache(0), false).(harness.ExperimentResolver); ok {
		t.Fatal("a wrapped memory layer claims to resolve experiments; the tiered cache would stop there")
	}
	cache, err := cacheStack("", hs.URL, tr)
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := sb.BenchmarkByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	leela, err := sb.BenchmarkByName("541.leela")
	if err != nil {
		t.Fatal(err)
	}
	spec := sb.MatrixSpec{Name: "tiny", Configs: []sb.Config{sb.SmallConfig()}, Benches: []sb.Benchmark{mcf, leela}}
	opts := sb.Options{Scale: 1, WarmupCycles: 200, MeasureCycles: 800, Parallelism: 2}
	s := sb.NewSession(sb.SessionConfig{Options: opts, Schemes: []sb.Scheme{sb.Baseline, sb.NDA}, Cache: cache})
	tr.beginPass("pass", "pass-0")
	_, err = s.Matrix(context.Background(), spec)
	tr.endPass()
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Experiments != 1 || st.Computes != 0 || st.StreamedCells != 4 {
		t.Errorf("farm saw %d experiment requests, %d cell computes, %d streamed cells; want 1, 0, 4",
			st.Experiments, st.Computes, st.StreamedCells)
	}
	if st := s.Stats(); st.Simulated != 0 || st.Hits != 4 {
		t.Errorf("client simulated %d cells and hit %d; want 0 and 4", st.Simulated, st.Hits)
	}
	if n := len(tr.spanDurations("pass-0", "cache.remote.stream")); n != 1 {
		t.Errorf("%d stream spans recorded, want 1", n)
	}
}
