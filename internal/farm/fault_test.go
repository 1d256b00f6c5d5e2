package farm

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// flakyTransport fails every request one way: a transport error, a 5xx,
// a corrupt 200 body, or a hang past the client's attempt timeout. It
// never reaches a real farm — the point is that the client cannot tell a
// broken farm from no farm, and the engine must not care.
type flakyTransport struct{ mode string }

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	respond := func(code int, body string) *http.Response {
		return &http.Response{
			StatusCode: code,
			Status:     http.StatusText(code),
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader(body)),
			Request:    req,
		}
	}
	switch f.mode {
	case "conn-error":
		return nil, errors.New("injected: connection refused")
	case "5xx":
		return respond(http.StatusInternalServerError, "injected farm failure\n"), nil
	case "corrupt":
		return respond(http.StatusOK, `{"schema":"shadowbinding-farm/v1","key":`), nil
	case "hang":
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	panic("unknown flaky mode " + f.mode)
}

// TestFarmFaultsDegradeToLocal: whatever the transport does — refuse,
// 5xx, emit garbage, or hang — a session over TieredCache(memory, farm)
// must complete every cell by local re-simulation with results
// byte-identical to a farm-less run. The remote layer may only ever cost
// warnings.
func TestFarmFaultsDegradeToLocal(t *testing.T) {
	opts := testOpts()
	jobs := []harness.CellJob{
		testJob(t, "505.mcf", core.KindBaseline),
		testJob(t, "505.mcf", core.KindSTTRename),
	}
	refs := make([]harness.Run, len(jobs))
	for i, j := range jobs {
		refs[i] = refRun(t, j, opts)
	}

	for _, mode := range []string{"conn-error", "5xx", "corrupt", "hang"} {
		t.Run(mode, func(t *testing.T) {
			remote := NewHTTPCache("http://farm.invalid", HTTPCacheOptions{
				Compute:      true,
				Timeout:      50 * time.Millisecond, // bounds the hang mode
				Retries:      -1,
				BreakerTrips: -1,
				Client:       &http.Client{Transport: &flakyTransport{mode: mode}},
			})
			sess := harness.NewSession(harness.SessionConfig{
				Options: opts,
				Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), remote),
			})
			for i, j := range jobs {
				run, err := sess.Run(context.Background(), j.Config, j.Scheme, j.Bench)
				if err != nil {
					t.Fatalf("%s: run failed instead of degrading: %v", mode, err)
				}
				if !reflect.DeepEqual(run, refs[i]) {
					t.Fatalf("%s: degraded run diverges from farm-less reference:\ngot  %+v\nwant %+v",
						mode, run, refs[i])
				}
			}
			if st := sess.Stats(); st.Simulated != len(jobs) {
				t.Fatalf("%s: expected all-local simulation: %+v", mode, st)
			}
		})
	}
}

// TestFarmBreakerShortCircuits: after BreakerTrips consecutive transport
// failures the client must stop dialing a dead farm and report immediate
// misses for the cooldown window — errFarmDown, no network traffic.
func TestFarmBreakerShortCircuits(t *testing.T) {
	// A listener that is already closed: every dial is refused instantly.
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	var dials int
	counting := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		dials++
		return http.DefaultTransport.RoundTrip(req)
	})}
	c := NewHTTPCache(url, HTTPCacheOptions{
		Retries:         -1,
		Backoff:         time.Millisecond,
		BreakerTrips:    3,
		BreakerCooldown: time.Minute,
		Client:          counting,
	})

	for i := 0; i < 3; i++ {
		if _, ok, err := c.Get("cell"); ok || err == nil {
			t.Fatalf("dial %d against dead farm: ok=%v err=%v", i, ok, err)
		}
	}
	if dials != 3 {
		t.Fatalf("tripping calls dialed %d times, want 3", dials)
	}
	for i := 0; i < 10; i++ {
		_, ok, err := c.Get("cell")
		if ok || !errors.Is(err, errFarmDown) {
			t.Fatalf("breaker not open on call %d: ok=%v err=%v", i, ok, err)
		}
	}
	if dials != 3 {
		t.Fatalf("open breaker still dialed: %d dials", dials)
	}

	// And the engine shrugs it all off: a session over the dead farm
	// simulates locally with correct results.
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindNDA)
	ref := refRun(t, job, opts)
	sess := harness.NewSession(harness.SessionConfig{
		Options: opts,
		Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), c),
	})
	run, err := sess.Run(context.Background(), job.Config, job.Scheme, job.Bench)
	if err != nil {
		t.Fatalf("session failed on open breaker: %v", err)
	}
	if !reflect.DeepEqual(run, ref) {
		t.Fatalf("open-breaker run diverges:\ngot  %+v\nwant %+v", run, ref)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestFarmRejectionNotRetried: a farm that answers 400 has judged the job,
// not failed: ResolveCell sends exactly one compute request — no retry —
// and the session simulates locally with identical bytes.
func TestFarmRejectionNotRetried(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		http.Error(w, "rejected", http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)

	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindSTTIssue)
	c := NewHTTPCache(ts.URL, HTTPCacheOptions{
		Compute:      true,
		Retries:      3,
		Backoff:      time.Millisecond,
		BreakerTrips: -1,
	})
	sess := harness.NewSession(harness.SessionConfig{
		Options: opts,
		Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), c),
	})
	run, err := sess.Run(context.Background(), job.Config, job.Scheme, job.Bench)
	if err != nil {
		t.Fatalf("session failed on a rejecting farm: %v", err)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("rejected cell sent %d compute requests, want exactly 1", n)
	}
	if !reflect.DeepEqual(run, refRun(t, job, opts)) {
		t.Fatal("local fallback after a rejection diverges")
	}
	if st := sess.Stats(); st.Simulated != 1 {
		t.Fatalf("rejected cell not simulated locally: %+v", st)
	}
}

// TestWorkerRejectionKeepsWorkerHealthy: a worker answering 4xx indicts
// the job, not the worker — it stays healthy in /v1/stats, the failure is
// one WorkerErrors, and the coordinator falls back to local simulation.
func TestWorkerRejectionKeepsWorkerHealthy(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "rejected", http.StatusBadRequest)
	}))
	t.Cleanup(worker.Close)
	coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{worker.URL}, ProbeInterval: -1})

	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindNDA)
	run, ok, err := fastClient(tsc.URL, true).ResolveCell(keyOf(job, opts), job, opts)
	if err != nil || !ok {
		t.Fatalf("compute behind a rejecting worker: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(run, refRun(t, job, opts)) {
		t.Fatal("local fallback diverges")
	}
	st := coord.Stats()
	if st.WorkerErrors != 1 || st.Forwarded != 0 || st.EngineSimulated != 1 {
		t.Fatalf("rejection not accounted as one worker error plus a local simulation: %+v", st)
	}
	if len(st.Workers) != 1 || !st.Workers[0].Healthy {
		t.Fatalf("rejecting worker marked dead: %+v", st.Workers)
	}
}
