package farm

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestWorkerFanOut: a coordinator with two workers must shard compute
// across both by key hash and never simulate locally itself, while the
// fleet as a whole still simulates each unique cell exactly once —
// including under concurrent duplicate requests.
func TestWorkerFanOut(t *testing.T) {
	w1, ts1 := newTestFarm(t, ServerConfig{})
	w2, ts2 := newTestFarm(t, ServerConfig{})
	coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{ts1.URL, ts2.URL}})

	opts := testOpts()
	benches := []string{"505.mcf", "502.gcc", "520.omnetpp", "541.leela"}
	kinds := []core.SchemeKind{
		core.KindBaseline, core.KindSTTRename, core.KindSTTIssue, core.KindNDA,
	}
	var jobs []harness.CellJob
	var keys []string
	var refs []harness.Run
	for _, b := range benches {
		for _, k := range kinds {
			j := testJob(t, b, k)
			jobs = append(jobs, j)
			keys = append(keys, keyOf(j, opts))
			refs = append(refs, refRun(t, j, opts))
		}
	}
	unique := len(jobs) // 16

	const dup = 4 // concurrent duplicate clients per cell
	var wg sync.WaitGroup
	errs := make(chan error, unique*dup)
	for d := 0; d < dup; d++ {
		for i := range jobs {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewHTTPCache(tsc.URL, HTTPCacheOptions{Compute: true})
				run, ok, err := c.ResolveCell(keys[i], jobs[i], opts)
				if err != nil || !ok {
					errs <- fmt.Errorf("cell %s: ok=%v err=%v", keys[i], ok, err)
					return
				}
				if !reflect.DeepEqual(run, refs[i]) {
					errs <- fmt.Errorf("cell %s: worker result diverges from local", keys[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cs, s1, s2 := coord.Stats(), w1.Stats(), w2.Stats()
	if cs.EngineSimulated != 0 {
		t.Fatalf("coordinator simulated locally despite healthy workers: %+v", cs)
	}
	if cs.Forwarded != int64(unique) {
		t.Fatalf("forwarded %d compute requests, want %d (one per unique cell): %+v",
			cs.Forwarded, unique, cs)
	}
	if s1.EngineSimulated+s2.EngineSimulated != int64(unique) {
		t.Fatalf("fleet simulated %d+%d cells, want %d total",
			s1.EngineSimulated, s2.EngineSimulated, unique)
	}
	// FNV sharding over 16 distinct keys must actually use both workers.
	if s1.EngineSimulated == 0 || s2.EngineSimulated == 0 {
		t.Fatalf("fan-out degenerate: worker split %d/%d",
			s1.EngineSimulated, s2.EngineSimulated)
	}
	if cs.WorkerErrors != 0 {
		t.Fatalf("unexpected worker errors: %+v", cs)
	}
}

// TestWorkerFailureFallsBackLocal: a dead worker must cost a warning and
// a local simulation on the coordinator — never a failed request.
func TestWorkerFailureFallsBackLocal(t *testing.T) {
	coord, tsc := newTestFarm(t, ServerConfig{
		Workers: []string{"http://127.0.0.1:1"}, // reserved port: dial always refused
	})
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindSTTIssue)
	key := keyOf(job, opts)
	ref := refRun(t, job, opts)

	c := NewHTTPCache(tsc.URL, HTTPCacheOptions{Compute: true})
	run, ok, err := c.ResolveCell(key, job, opts)
	if err != nil || !ok {
		t.Fatalf("compute with dead worker: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(run, ref) {
		t.Fatalf("fallback run diverges:\ngot  %+v\nwant %+v", run, ref)
	}
	st := coord.Stats()
	if st.WorkerErrors != 1 || st.Forwarded != 0 {
		t.Fatalf("worker failure not accounted: %+v", st)
	}
	if st.EngineSimulated != 1 {
		t.Fatalf("coordinator did not fall back to local simulation: %+v", st)
	}
}

// TestPoolSharding: rendezvous pick is deterministic and uses every
// worker across enough keys — the property the fan-out test observes end
// to end.
func TestPoolSharding(t *testing.T) {
	p := newWorkerPool([]string{"http://a/", "http://b", "http://c"}, nil)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("%016x", i*2654435761)
		u := p.pick(key, nil).base
		if u != p.pick(key, nil).base {
			t.Fatalf("pick not deterministic for %s", key)
		}
		seen[u] = true
	}
	if len(seen) != 3 {
		t.Fatalf("64 keys landed on %d of 3 workers: %v", len(seen), seen)
	}
	for u := range seen {
		if u[len(u)-1] == '/' {
			t.Fatalf("worker URL kept trailing slash: %q", u)
		}
	}
}

// TestPoolRendezvousMinimalDisruption: the HRW property the re-shard
// design rests on — losing one worker remaps ONLY the keys that worker
// owned; every key on a survivor stays exactly where its cache is warm.
// (The static FNV shard this replaced remapped ~everything.)
func TestPoolRendezvousMinimalDisruption(t *testing.T) {
	p := newWorkerPool([]string{"http://a", "http://b", "http://c"}, nil)

	const keys = 256
	before := make(map[string]string, keys)
	owned := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("%016x", i*2654435761)
		before[key] = p.pick(key, nil).base
		if before[key] == "http://b" {
			owned++
		}
	}
	if owned == 0 || owned == keys {
		t.Fatalf("degenerate spread: b owns %d/%d keys", owned, keys)
	}

	p.workers[1].health.report(errNoAnswer) // http://b
	moved := map[string]int{}
	for key, prev := range before {
		now := p.pick(key, nil).base
		if now == "http://b" {
			t.Fatalf("dead worker still picked for %s", key)
		}
		if prev != "http://b" && now != prev {
			t.Fatalf("key %s moved %s -> %s though its worker survived", key, prev, now)
		}
		if prev == "http://b" {
			moved[now]++
		}
	}
	// The orphaned slice must re-shard across BOTH survivors, not pile up.
	if len(moved) != 2 {
		t.Fatalf("orphaned keys landed on %d survivors: %v", len(moved), moved)
	}
}

// TestWorkerDeathReshards: the end-to-end re-shard contract — with one of
// two workers dead, every cell (including the dead worker's slice) is
// computed by the survivor, and the coordinator never simulates locally.
func TestWorkerDeathReshards(t *testing.T) {
	w1, ts1 := newTestFarm(t, ServerConfig{})
	_, ts2 := newTestFarm(t, ServerConfig{})
	coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{ts1.URL, ts2.URL}})

	// Kill worker 2 before any traffic: its slice must re-shard onto
	// worker 1 via passive failure detection, at the cost of exactly one
	// failed forward (the first key that picks it).
	ts2.Close()

	opts := testOpts()
	benches := []string{"505.mcf", "502.gcc", "520.omnetpp", "541.leela"}
	c := NewHTTPCache(tsc.URL, HTTPCacheOptions{Compute: true})
	for _, b := range benches {
		for _, k := range []core.SchemeKind{core.KindBaseline, core.KindNDA} {
			job := testJob(t, b, k)
			key := keyOf(job, opts)
			run, ok, err := c.ResolveCell(key, job, opts)
			if err != nil || !ok {
				t.Fatalf("cell %s: ok=%v err=%v", key, ok, err)
			}
			if !reflect.DeepEqual(run, refRun(t, job, opts)) {
				t.Fatalf("cell %s diverges after re-shard", key)
			}
		}
	}

	cs, s1 := coord.Stats(), w1.Stats()
	if cs.EngineSimulated != 0 {
		t.Fatalf("coordinator simulated despite a healthy survivor: %+v", cs)
	}
	if s1.EngineSimulated != 8 {
		t.Fatalf("survivor simulated %d of 8 cells", s1.EngineSimulated)
	}
	if cs.Forwarded != 8 {
		t.Fatalf("forwarded %d of 8 cells: %+v", cs.Forwarded, cs)
	}
	// Passive detection pays the dead worker at most one failed forward
	// (zero if the first keys all rendezvous onto the survivor).
	if cs.WorkerErrors > 1 {
		t.Fatalf("dead worker charged per key, not once: %+v", cs)
	}
	var deadSeen bool
	for _, w := range cs.Workers {
		if w.URL == ts2.URL && !w.Healthy {
			deadSeen = true
		}
	}
	if cs.WorkerErrors == 1 && !deadSeen {
		t.Fatalf("failed worker not marked dead in stats: %+v", cs.Workers)
	}
}

// TestWorkerRevivesAfterCooldown: a worker that refuses is marked down and
// the coordinator simulates locally; once the worker is back and its
// cooldown has passed, the next forward reaches it and revives it.
func TestWorkerRevivesAfterCooldown(t *testing.T) {
	w, _ := newTestFarm(t, ServerConfig{})
	var off atomic.Bool
	tsw := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if off.Load() {
			conn, _, err := rw.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // drop the connection unanswered
			}
			return
		}
		w.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(tsw.Close)
	coord, tsc := newTestFarm(t, ServerConfig{Workers: []string{tsw.URL}})
	c := NewHTTPCache(tsc.URL, HTTPCacheOptions{Compute: true})
	opts := testOpts()
	resolve := func(kind core.SchemeKind) {
		t.Helper()
		job := testJob(t, "505.mcf", kind)
		run, ok, err := c.ResolveCell(keyOf(job, opts), job, opts)
		if err != nil || !ok {
			t.Fatalf("compute %s: ok=%v err=%v", kind, ok, err)
		}
		if !reflect.DeepEqual(run, refRun(t, job, opts)) {
			t.Fatalf("compute %s diverges from local", kind)
		}
	}

	// Refused: the first forward marks the worker down, the next skips it.
	off.Store(true)
	resolve(core.KindBaseline)
	resolve(core.KindNDA)
	st := coord.Stats()
	if st.EngineSimulated != 2 || st.Forwarded != 0 || st.WorkerErrors != 1 {
		t.Fatalf("refusing worker not skipped after one failed forward: %+v", st)
	}
	if st.Workers[0].Healthy {
		t.Fatalf("refusing worker shown healthy: %+v", st.Workers)
	}

	// Back, and past its cooldown: the next forward is the trial.
	off.Store(false)
	expireCooldown(&coord.pool.workers[0].health)
	resolve(core.KindSTTRename)
	st = coord.Stats()
	if st.Forwarded != 1 || st.EngineSimulated != 2 {
		t.Fatalf("revived worker not forwarded to: %+v", st)
	}
	if !st.Workers[0].Healthy {
		t.Fatalf("revived worker still shown down: %+v", st.Workers)
	}
	if ws := w.Stats(); ws.EngineSimulated != 1 {
		t.Fatalf("revived worker simulated %d cells, want 1", ws.EngineSimulated)
	}
}
