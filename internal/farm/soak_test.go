package farm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestFarmConcurrencySoak is the fleet-wide single-flight pin: hundreds
// of concurrent compute clients hammer one farm over a handful of unique
// cells, and the farm must simulate each unique cell exactly once, serve
// every request a consistent result, and drain cleanly. CI runs this
// under -race.
func TestFarmConcurrencySoak(t *testing.T) {
	srv, ts := newTestFarm(t, ServerConfig{})
	opts := testOpts()

	kinds := []core.SchemeKind{
		core.KindBaseline, core.KindSTTRename, core.KindSTTIssue, core.KindNDA,
	}
	jobs := make([]harness.CellJob, len(kinds))
	keys := make([]string, len(kinds))
	refs := make([]harness.Run, len(kinds))
	for i, k := range kinds {
		jobs[i] = testJob(t, "505.mcf", k)
		keys[i] = keyOf(jobs[i], opts)
		refs[i] = refRun(t, jobs[i], opts)
	}

	const clients = 256
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every client gets its own HTTPCache — separate connections,
			// no client-side sharing to hide server races behind.
			c := NewHTTPCache(ts.URL, HTTPCacheOptions{Compute: true})
			j := i % len(jobs)
			run, ok, err := c.ResolveCell(keys[j], jobs[j], opts)
			if err != nil || !ok {
				errs <- fmt.Errorf("client %d: ok=%v err=%v", i, ok, err)
				return
			}
			if !reflect.DeepEqual(run, refs[j]) {
				errs <- fmt.Errorf("client %d: result diverges for %s", i, keys[j])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.EngineSimulated != int64(len(jobs)) {
		t.Fatalf("single-flight breached: %d unique cells, %d simulations (%+v)",
			len(jobs), st.EngineSimulated, st)
	}
	if st.Computes != clients {
		t.Fatalf("compute requests lost: %d of %d (%+v)", st.Computes, clients, st)
	}
	// Every duplicate either coalesced onto an in-flight computation or hit
	// the cache warmed by an earlier one; none re-simulated.
	if st.Coalesced+st.EngineHits != clients-int64(len(jobs)) {
		t.Fatalf("duplicate accounting off: coalesced=%d hits=%d want sum %d (%+v)",
			st.Coalesced, st.EngineHits, clients-len(jobs), st)
	}
	if st.InFlight != 0 {
		t.Fatalf("requests still in flight after drain: %+v", st)
	}

	// Clean shutdown: Close blocks until active handlers return; nothing
	// should be left to wedge it. (t.Cleanup would do this anyway — doing
	// it explicitly makes the shutdown part of the assertion.)
	ts.Close()
}
