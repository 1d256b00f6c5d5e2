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
// the engine to report), never a failed run — and a breaker stops
// re-dialing a dead farm on every cell.

// HTTPCacheOptions parameterizes NewHTTPCache. The zero value is usable.
type HTTPCacheOptions struct {
	// Timeout bounds one request attempt (zero: 2m — compute requests
	// block until the farm has simulated the cell).
	Timeout time.Duration
	// Retries is the number of additional attempts after a transient
	// failure — network error, 5xx, corrupt body (zero: 2; negative:
	// none). A 4xx rejection is never retried.
	Retries int
	// Backoff is the delay before the first retry, doubled per retry
	// (zero: 100ms).
	Backoff time.Duration
	// Compute asks the farm to simulate missing cells (a one-cell
	// experiment stream) instead of reporting a miss and simulating locally.
	Compute bool
	// BreakerTrips is the number of consecutive transport-level failures
	// after which the cache reports every call as an immediate miss for
	// BreakerCooldown, so a dead farm costs one connection error per
	// window, not per cell (zero: 3; negative: breaker disabled).
	BreakerTrips int
	// BreakerCooldown is the open-breaker window (zero: 5s).
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests inject transports here);
	// Timeout still bounds each attempt through the request context.
	Client *http.Client
}

// HTTPCache is a harness.CellCache (and CellResolver) speaking the farm
// protocol against one base URL.
type HTTPCache struct {
	base string
	opt  HTTPCacheOptions
	hc   *http.Client

	mu        sync.Mutex
	failures  int       // consecutive transport failures
	openUntil time.Time // breaker open while now < openUntil
}

// NewHTTPCache returns a farm-backed cell cache for the daemon at baseURL
// (e.g. "http://127.0.0.1:8484").
func NewHTTPCache(baseURL string, opt HTTPCacheOptions) *HTTPCache {
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Minute
	}
	if opt.Retries == 0 {
		opt.Retries = 2
	} else if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.Backoff <= 0 {
		opt.Backoff = 100 * time.Millisecond
	}
	if opt.BreakerTrips == 0 {
		opt.BreakerTrips = 3
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = 5 * time.Second
	}
	hc := opt.Client
	if hc == nil {
		hc = &http.Client{}
	}
	return &HTTPCache{base: strings.TrimRight(baseURL, "/"), opt: opt, hc: hc}
}

// transientError marks a failure worth retrying (and worth counting
// towards the breaker): the farm may answer the next attempt.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(format string, args ...any) error {
	return &transientError{err: fmt.Errorf(format, args...)}
}

// errFarmDown is returned without touching the network while the breaker
// is open.
var errFarmDown = errors.New("farm: breaker open (recent consecutive failures); treating as miss")

// Get reads one cell from the farm store; 404 is a miss, every failure is
// a miss with an error for the engine to report. Any other 4xx is a
// rejection and is not retried.
func (c *HTTPCache) Get(key string) (harness.Run, bool, error) {
	var (
		run harness.Run
		ok  bool
	)
	err := c.retry(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+CellsPath+"/"+key, nil)
		if err != nil {
			return fmt.Errorf("farm: build get: %w", err)
		}
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := c.hc.Do(req)
		if err != nil {
			return transient("farm: get %s: %w", key, err)
		}
		defer drainClose(resp.Body)
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return nil // a clean miss: no retry, no error
		case isRejection(resp.StatusCode):
			return fmt.Errorf("farm: get %s: rejected: %s", key, resp.Status)
		case resp.StatusCode != http.StatusOK:
			return transient("farm: get %s: %s", key, resp.Status)
		}
		rd, err := maybeGunzip(resp)
		if err != nil {
			return &transientError{err: err}
		}
		env, err := decodeEnvelope(rd, key)
		if err != nil {
			return &transientError{err: err} // corrupt body: retry, then miss
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
// engine's warn-and-continue write path; a 4xx rejection is not retried.
func (c *HTTPCache) Put(key string, r harness.Run) error {
	body, err := json.Marshal(newEnvelope(key, r, false))
	if err != nil {
		return fmt.Errorf("farm: marshal cell %s: %w", key, err)
	}
	payload, encoding := maybeGzip(body)
	return c.retry(func(ctx context.Context) error {
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
			return transient("farm: put %s: %w", key, err)
		}
		defer drainClose(resp.Body)
		switch {
		case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK:
			return nil
		case isRejection(resp.StatusCode):
			return fmt.Errorf("farm: put %s: rejected: %s", key, resp.Status)
		}
		return transient("farm: put %s: %s", key, resp.Status)
	})
}

// isRejection reports a 4xx answer: the farm judged the request (a bad
// key, an envelope it refuses), so asking again cannot help — like a
// compute rejection (see rejected), it is not retried.
func isRejection(status int) bool { return status >= 400 && status < 500 }

// ResolveCell implements harness.CellResolver: in compute mode a lookup
// asks the farm to resolve the job (its cache, fleet-wide single-flight,
// workers) as a one-cell experiment stream; otherwise it is a plain Get.
// A rejection (4xx: scheme roster or version skew) is not retried — the
// farm answered, and asking again cannot help. Either way a failure is a
// miss and the engine simulates locally.
func (c *HTTPCache) ResolveCell(key string, job harness.CellJob, opts harness.Options) (harness.Run, bool, error) {
	if !c.opt.Compute {
		return c.Get(key)
	}
	var run harness.Run
	err := c.retry(func(ctx context.Context) error {
		env, err := resolveCell(ctx, c.hc, c.base, key, job, opts)
		if err != nil && !rejected(err) {
			return &transientError{err: err}
		}
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
	if !c.opt.Compute {
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

// retry runs one attempt function under the per-attempt timeout, retrying
// transient failures with doubling backoff, and feeds the breaker: any
// transient failure after the last attempt counts as a trip, any success
// resets it.
func (c *HTTPCache) retry(attempt func(ctx context.Context) error) error {
	if err := c.breakerCheck(); err != nil {
		return err
	}
	delay := c.opt.Backoff
	var err error
	for try := 0; ; try++ {
		err = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), c.opt.Timeout)
			defer cancel()
			return attempt(ctx)
		}()
		var te *transientError
		if err == nil || !errors.As(err, &te) {
			c.breakerReport(err == nil)
			return err
		}
		if try >= c.opt.Retries {
			c.breakerReport(false)
			return err
		}
		time.Sleep(delay)
		delay *= 2
	}
}

// breakerCheck reports errFarmDown while the breaker is open.
func (c *HTTPCache) breakerCheck() error {
	if c.opt.BreakerTrips < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Now().Before(c.openUntil) {
		return errFarmDown
	}
	return nil
}

// breakerReport feeds one call outcome into the breaker.
func (c *HTTPCache) breakerReport(success bool) {
	if c.opt.BreakerTrips < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if success {
		c.failures = 0
		return
	}
	c.failures++
	if c.failures >= c.opt.BreakerTrips {
		c.openUntil = time.Now().Add(c.opt.BreakerCooldown)
		c.failures = 0
	}
}
