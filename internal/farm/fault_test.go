package farm

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// flakyTransport fails every request one way: a transport error, a 5xx,
// a corrupt 200 body, or a hang past the client's attempt timeout. It
// never reaches a real farm — the point is that the client cannot tell a
// broken farm from no farm, and the engine must not care. trips counts
// the requests that reached it.
type flakyTransport struct {
	mode  string
	trips atomic.Int64
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.trips.Add(1)
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
		return respond(http.StatusOK, recordSchema+" 0011"), nil // a cell line cut short
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
			remote := NewHTTPCache("http://farm.invalid", HTTPCacheOptions{Compute: true})
			remote.hc = &http.Client{Transport: &flakyTransport{mode: mode}}
			remote.timeout = 50 * time.Millisecond // bounds the hang mode
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
			// A corrupt body is an answer; every other mode is none.
			if up := remote.health.up(); up != (mode == "corrupt") {
				t.Fatalf("%s: farm up=%v after the run", mode, up)
			}
		})
	}
}

// TestFarmBreakerShortCircuits: after one refused call the client must
// stop dialing a dead farm and report immediate misses for the cooldown
// window — errFarmDown, no network traffic.
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
	c := NewHTTPCache(url, HTTPCacheOptions{})
	c.hc = counting

	for i := 0; i < 1; i++ {
		if _, ok, err := c.Get("cell"); ok || err == nil {
			t.Fatalf("dial %d against dead farm: ok=%v err=%v", i, ok, err)
		}
	}
	if dials != 1 {
		t.Fatalf("tripping calls dialed %d times, want 1", dials)
	}
	for i := 0; i < 10; i++ {
		_, ok, err := c.Get("cell")
		if ok || !errors.Is(err, errFarmDown) {
			t.Fatalf("farm not down on call %d: ok=%v err=%v", i, ok, err)
		}
	}
	if dials != 1 {
		t.Fatalf("down farm still dialed: %d dials", dials)
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
		t.Fatalf("session failed on a down farm: %v", err)
	}
	if !reflect.DeepEqual(run, ref) {
		t.Fatalf("down-farm run diverges:\ngot  %+v\nwant %+v", run, ref)
	}
}

// TestFarmHangOpensBreaker: a farm that accepts requests and never
// answers costs one call its timeout; after that timeout the farm is down
// and every call must fail with errFarmDown at once, without reaching the
// transport.
func TestFarmHangOpensBreaker(t *testing.T) {
	hang := &flakyTransport{mode: "hang"}
	c := NewHTTPCache("http://farm.invalid", HTTPCacheOptions{})
	c.hc = &http.Client{Transport: hang}
	c.timeout = 20 * time.Millisecond

	for i := 0; i < 6; i++ {
		start := time.Now()
		_, ok, err := c.Get("cell")
		if ok || err == nil {
			t.Fatalf("call %d against a hung farm: ok=%v err=%v", i, ok, err)
		}
		if i < 1 {
			continue
		}
		if !errors.Is(err, errFarmDown) {
			t.Fatalf("call %d after a timeout: %v, want errFarmDown", i, err)
		}
		if d := time.Since(start); d >= c.timeout {
			t.Fatalf("down farm waited %v on call %d", d, i)
		}
	}
	if n := hang.trips.Load(); n != 1 {
		t.Fatalf("hung farm saw %d requests, want 1", n)
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
	c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})
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

// TestFarmCacheRejectionNotRetried: a farm that answers 400 to the plain
// cache routes has judged the request, not failed: the session sends
// exactly one GET and one PUT — no retries — and its result is unchanged.
func TestFarmCacheRejectionNotRetried(t *testing.T) {
	var gets, puts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			gets.Add(1)
		case http.MethodPut:
			puts.Add(1)
		}
		http.Error(w, "rejected", http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)

	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindDoM)
	c := NewHTTPCache(ts.URL, HTTPCacheOptions{})
	sess := harness.NewSession(harness.SessionConfig{
		Options: opts,
		Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), c),
	})
	run, err := sess.Run(context.Background(), job.Config, job.Scheme, job.Bench)
	if err != nil {
		t.Fatalf("session failed on a rejecting farm: %v", err)
	}
	if g, p := gets.Load(), puts.Load(); g != 1 || p != 1 {
		t.Fatalf("rejecting farm saw %d GETs and %d PUTs, want exactly 1 each", g, p)
	}
	if !reflect.DeepEqual(run, refRun(t, job, opts)) {
		t.Fatal("run against a rejecting farm diverges")
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
	coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{worker.URL}})

	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindNDA)
	run, ok, err := NewHTTPCache(tsc.URL, HTTPCacheOptions{Compute: true}).ResolveCell(keyOf(job, opts), job, opts)
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

// expireCooldown moves a down peer's cooldown into the past, so its next
// admitted call is the trial.
func expireCooldown(h *health) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.downUntil = time.Now().Add(-time.Millisecond)
}

// TestFarmTrialAfterCooldown: a refused call marks the farm down and
// later calls fail without dialing. Once the cooldown has passed, exactly
// one of many concurrent calls goes out as the trial while the others
// keep failing fast; a trial that gets an answer marks the farm up, and
// one that gets none keeps it down.
func TestFarmTrialAfterCooldown(t *testing.T) {
	const callers = 8
	var requests atomic.Int64
	var refuse atomic.Bool
	entered, release := make(chan struct{}, callers), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	c := NewHTTPCache("http://farm.invalid", HTTPCacheOptions{})
	c.hc = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		requests.Add(1)
		if refuse.Load() {
			return nil, errors.New("injected: connection refused")
		}
		entered <- struct{}{}
		<-release
		return &http.Response{StatusCode: http.StatusNotFound, Status: "404 Not Found",
			Header: make(http.Header), Body: io.NopCloser(strings.NewReader("")), Request: req}, nil
	})}

	refuse.Store(true)
	if _, _, err := c.Get("cell"); !errors.Is(err, errNoAnswer) {
		t.Fatalf("refused call: %v, want errNoAnswer", err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Get("cell"); !errors.Is(err, errFarmDown) {
			t.Fatalf("call %d on a down farm: %v, want errFarmDown", i, err)
		}
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("down farm dialed: %d requests, want 1", n)
	}

	// The trial answers (a clean 404 miss) only when released, so every
	// other caller arrives while it is out.
	refuse.Store(false)
	expireCooldown(&c.health)
	errs := make(chan error, callers)
	for range callers {
		go func() {
			_, _, err := c.Get("cell")
			errs <- err
		}()
	}
	<-entered
	for range callers - 1 {
		select {
		case err := <-errs:
			if !errors.Is(err, errFarmDown) {
				t.Fatalf("caller beside the trial: %v, want errFarmDown", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("callers beside the trial did not fail fast: %d requests out", requests.Load()-1)
		}
	}
	unblock()
	if err := <-errs; err != nil {
		t.Fatalf("answered trial: %v", err)
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("%d concurrent calls after the cooldown sent %d requests, want 1", callers, n-1)
	}
	if !c.health.up() {
		t.Fatal("answered trial left the farm down")
	}

	// Up again: the next call dials. A failed trial keeps the farm down.
	refuse.Store(true)
	if _, _, err := c.Get("cell"); !errors.Is(err, errNoAnswer) {
		t.Fatalf("call on a revived farm: %v, want errNoAnswer", err)
	}
	expireCooldown(&c.health)
	if _, _, err := c.Get("cell"); !errors.Is(err, errNoAnswer) {
		t.Fatalf("failed trial: %v, want errNoAnswer", err)
	}
	if _, _, err := c.Get("cell"); !errors.Is(err, errFarmDown) {
		t.Fatalf("call after a failed trial: %v, want errFarmDown", err)
	}
	if n := requests.Load(); n != 4 {
		t.Fatalf("farm saw %d requests, want 4", n)
	}
}

// TestFarmHungListenerDegrades: a farm that accepts connections and never
// answers. The response-header deadline fails the experiment stream, the
// farm is then down, and a compute-mode matrix finishes by local
// simulation with runs identical to a farm-less run.
func TestFarmHungListenerDegrades(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn) // hold it open, never answer
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		for _, conn := range held {
			conn.Close()
		}
	})

	// Every farm client shares the one transport with the header deadline;
	// the test shortens the deadline on a clone of it.
	url := "http://" + ln.Addr().String()
	shared := client.Transport.(*http.Transport)
	if shared.ResponseHeaderTimeout != headerTimeout ||
		NewHTTPCache(url, HTTPCacheOptions{}).hc != client || NewStreamClient(url, nil).hc != client {
		t.Fatal("farm clients do not share the header-deadline transport")
	}
	tp := shared.Clone()
	tp.ResponseHeaderTimeout = 50 * time.Millisecond
	t.Cleanup(tp.CloseIdleConnections)
	c := NewHTTPCache(url, HTTPCacheOptions{Compute: true})
	c.hc = &http.Client{Transport: tp}

	spec := streamSpec(t)
	sess := harness.NewSession(harness.SessionConfig{
		Options: testOpts(),
		Schemes: spec.Schemes,
		Cache:   harness.NewTieredCache(harness.NewMemoryCache(0), c),
	})
	const bound = 10 * time.Second
	start := time.Now()
	got, err := sess.Matrix(context.Background(), spec)
	if err != nil {
		t.Fatalf("matrix failed instead of degrading: %v", err)
	}
	if d := time.Since(start); d > bound {
		t.Fatalf("matrix against a hung farm took %v, bound %v", d, bound)
	}
	matricesEqual(t, got, localMatrix(t, spec), spec)
	if st := sess.Stats(); st.Simulated != st.Cells {
		t.Fatalf("expected all-local simulation: %+v", st)
	}
	if c.health.up() {
		t.Fatal("hung farm not marked down")
	}
}
