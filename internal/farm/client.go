package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
)

// The farm client. HTTPCache implements harness.CellCache over the farm
// protocol, so `-remote URL` slots a shared fleet-wide store under any
// cmd's local cache stack. In compute mode it also implements
// harness.CellResolver — a miss becomes a one-cell POST /v1/experiments
// that asks the farm to simulate the cell — and harness.ExperimentResolver:
// a whole matrix becomes ONE streaming request (ResolveExperiment), with
// the per-cell path as the fallback for whatever a broken stream failed
// to deliver.
// Per the CellCache contract every failure is a miss (plus an error for
// the engine to report), never a failed run: the engine re-simulates it
// with identical bytes, so each call is one request, never retried.

// HTTPCacheOptions parameterizes NewHTTPCache. The zero value is usable.
type HTTPCacheOptions struct {
	// Compute asks the farm to simulate missing cells (a one-cell
	// experiment stream) instead of reporting a miss and simulating locally.
	Compute bool
}

// requestTimeout bounds one request; a compute blocks until the farm has
// simulated the cell. breakerTrips consecutive failed calls open the
// breaker: for breakerCooldown every call fails at once. Calls already
// in flight still wait out their own timeout.
const (
	requestTimeout  = 2 * time.Minute
	breakerTrips    = 3
	breakerCooldown = 5 * time.Second
)

// HTTPCache is a harness.CellCache (and CellResolver) speaking the farm
// protocol against one base URL.
type HTTPCache struct {
	base    string
	compute bool
	hc      *http.Client
	timeout time.Duration // bounds one request: requestTimeout

	mu        sync.Mutex
	failures  int       // consecutive failed calls
	openUntil time.Time // breaker open while now < openUntil
}

// NewHTTPCache returns a farm-backed cell cache for the daemon at baseURL
// (e.g. "http://127.0.0.1:8484").
func NewHTTPCache(baseURL string, opt HTTPCacheOptions) *HTTPCache {
	return &HTTPCache{
		base:    strings.TrimRight(baseURL, "/"),
		compute: opt.Compute,
		hc:      &http.Client{},
		timeout: requestTimeout,
	}
}

// errFarmDown is returned without touching the network while the breaker
// is open.
var errFarmDown = errors.New("farm: breaker open (recent consecutive failures); treating as miss")

// Get reads one cell from the farm store; 404 is a miss, every failure is
// a miss with an error for the engine to report.
func (c *HTTPCache) Get(key string) (harness.Run, bool, error) {
	var (
		run harness.Run
		ok  bool
	)
	err := c.call(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+CellsPath+"/"+key, nil)
		if err != nil {
			return fmt.Errorf("farm: build get: %w", err)
		}
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("farm: get %s: %w", key, err)
		}
		defer drainClose(resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			return nil // a clean miss, not a failure
		default:
			return fmt.Errorf("farm: get %s: %s", key, resp.Status)
		}
		rd, err := maybeGunzip(resp)
		if err != nil {
			return err
		}
		env, err := decodeEnvelope(rd, key)
		if err != nil {
			return err
		}
		run, ok = env.Run, true
		return nil
	})
	if err != nil {
		return harness.Run{}, false, err
	}
	return run, ok, nil
}

// Put writes one cell to the farm store. Errors are returned for the
// engine's warn-and-continue write path.
func (c *HTTPCache) Put(key string, r harness.Run) error {
	body, err := json.Marshal(newEnvelope(key, r, false))
	if err != nil {
		return fmt.Errorf("farm: marshal cell %s: %w", key, err)
	}
	payload, encoding := maybeGzip(body)
	return c.call(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+CellsPath+"/"+key, bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("farm: build put: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("farm: put %s: %w", key, err)
		}
		defer drainClose(resp.Body)
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("farm: put %s: %s", key, resp.Status)
		}
		return nil
	})
}

// ResolveCell implements harness.CellResolver: in compute mode a lookup
// asks the farm to resolve the job (its cache, fleet-wide single-flight,
// workers) as a one-cell experiment stream; otherwise it is a plain Get.
// Either way a failure is a miss and the engine simulates locally.
func (c *HTTPCache) ResolveCell(key string, job harness.CellJob, opts harness.Options) (harness.Run, bool, error) {
	if !c.compute {
		return c.Get(key)
	}
	var run harness.Run
	err := c.call(func(ctx context.Context) error {
		env, err := resolveCell(ctx, c.hc, c.base, key, job, opts)
		run = env.Run
		return err
	})
	if err != nil {
		return harness.Run{}, false, err
	}
	return run, true, nil
}

// ResolveExperiment implements harness.ExperimentResolver: in compute
// mode, one POST /v1/experiments asks the farm to resolve the whole spec,
// and every validated streamed cell is handed to deliver as it arrives —
// under a TieredCache that backfills the faster local layers, so the
// per-cell resolution that follows is all local hits and a cold remote
// experiment costs exactly one request. Streamed keys are checked against
// the locally derived key set. Without Compute the farm cannot be asked to
// simulate, so the cache reports a clean no-op; every failure is returned
// for the engine to degrade to per-cell resolution.
func (c *HTTPCache) ResolveExperiment(ctx context.Context, spec harness.MatrixSpec, opts harness.Options, deliver func(key string, r harness.Run)) (int, error) {
	if !c.compute {
		return 0, nil
	}
	if err := c.breakerCheck(); err != nil {
		return 0, err
	}
	wire := harness.WireExperiment(spec, opts)
	jobs, wopts, err := wire.Resolve()
	if err != nil {
		return 0, fmt.Errorf("farm: experiment %q: %w", spec.Name, err)
	}
	expect := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		expect[harness.CellKey(j, wopts)] = true
	}
	n, err := NewStreamClient(c.base, c.hc).Experiment(ctx, wire, func(env CellEnvelope) error {
		if !expect[env.Key] {
			return &StreamError{Reason: "protocol",
				Err: fmt.Errorf("farm: streamed key %s is not in experiment %q (version skew?)", env.Key, spec.Name)}
		}
		if deliver != nil {
			deliver(env.Key, env.Run)
		}
		return nil
	})
	c.breakerReport(err == nil)
	return n, err
}

// call makes one request under the request timeout and feeds the
// breaker: any error counts as a trip, any success resets the count.
func (c *HTTPCache) call(do func(ctx context.Context) error) error {
	if err := c.breakerCheck(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	err := do(ctx)
	c.breakerReport(err == nil)
	return err
}

// breakerCheck reports errFarmDown while the breaker is open.
func (c *HTTPCache) breakerCheck() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Now().Before(c.openUntil) {
		return errFarmDown
	}
	return nil
}

// breakerReport feeds one call outcome into the breaker.
func (c *HTTPCache) breakerReport(success bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if success {
		c.failures = 0
		return
	}
	c.failures++
	if c.failures >= breakerTrips {
		c.openUntil = time.Now().Add(breakerCooldown)
		c.failures = 0
	}
}
