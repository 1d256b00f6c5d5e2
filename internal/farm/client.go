package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// with identical bytes, so each call is one request, never retried. A
// coordinator reaches each of its workers through a compute-mode
// HTTPCache too, so one health rule covers every farm peer.

// HTTPCacheOptions parameterizes NewHTTPCache. The zero value is usable.
type HTTPCacheOptions struct {
	// Compute asks the farm to simulate missing cells (a one-cell
	// experiment stream) instead of reporting a miss and simulating locally.
	Compute bool
}

// requestTimeout bounds one call, a compute included: it only limits a
// slow answer, since a silent peer fails at headerTimeout. A call that
// got no answer marks the peer down for cooldown (see health).
const (
	requestTimeout = 5 * time.Minute
	headerTimeout  = 10 * time.Second
	cooldown       = 5 * time.Second
)

// client is shared by every farm peer, so connections are reused across
// caches and streams. Every route answers its headers within
// milliseconds (an experiment stream flushes its header line before it
// simulates anything), so headerTimeout bounds a farm that accepts
// connections and never answers.
var client = func() *http.Client {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.ResponseHeaderTimeout = headerTimeout
	return &http.Client{Transport: tp}
}()

// HTTPCache is a harness.CellCache (and CellResolver) speaking the farm
// protocol against one base URL.
type HTTPCache struct {
	base    string
	compute bool
	hc      *http.Client
	timeout time.Duration // bounds one call: requestTimeout
	health  health
}

// NewHTTPCache returns a farm-backed cell cache for the daemon at baseURL
// (e.g. "http://127.0.0.1:8484").
func NewHTTPCache(baseURL string, opt HTTPCacheOptions) *HTTPCache {
	return &HTTPCache{
		base:    strings.TrimRight(baseURL, "/"),
		compute: opt.Compute,
		hc:      client,
		timeout: requestTimeout,
	}
}

var (
	// errNoAnswer marks a call the peer did not answer: the request
	// failed (refused, reset, header or request deadline) or the status
	// was 5xx.
	errNoAnswer = errors.New("no answer")
	// errFarmDown is returned without touching the network while the peer
	// is down.
	errFarmDown = errors.New("farm: peer down (a recent call got no answer); treating as miss")
)

// health is the one rule for whether a farm peer is worth calling. A call
// that got no answer marks the peer down for cooldown, and while it is
// down every call fails at once with errFarmDown. After the cooldown
// exactly one call goes out as the trial; the others keep failing fast
// until it returns. Any answer, even a rejection or a corrupt body, marks
// the peer up: it fails that call alone.
type health struct {
	mu        sync.Mutex
	downUntil time.Time // zero while the peer is up
	trial     bool      // the trial call is out
}

// admit reports errFarmDown unless a call may go out now.
func (h *health) admit() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.downUntil.IsZero() {
		return nil
	}
	if h.trial || time.Now().Before(h.downUntil) {
		return errFarmDown
	}
	h.trial = true
	return nil
}

// report judges the outcome of an admitted call.
func (h *health) report(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.trial = false
	if errors.Is(err, errNoAnswer) {
		h.downUntil = time.Now().Add(cooldown)
	} else {
		h.downUntil = time.Time{}
	}
}

// cooling reports whether calls fail at once: the peer is down and its
// cooldown has not passed.
func (h *health) cooling() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Now().Before(h.downUntil)
}

// up reports the peer's last known state.
func (h *health) up() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.downUntil.IsZero()
}

// do sends req. A failed request or a 5xx is an error wrapping
// errNoAnswer; any other status is the caller's to judge.
func do(hc *http.Client, req *http.Request) (*http.Response, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errNoAnswer, err)
	}
	if resp.StatusCode >= 500 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drainClose(resp.Body)
		return nil, fmt.Errorf("%w: %s: %s", errNoAnswer, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

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
		resp, err := do(c.hc, req)
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
		resp, err := do(c.hc, req)
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
// Either way a failure is a miss and the engine simulates locally. The
// streamed cell must carry key, the locally derived key, so a farm built
// from different sources (which derives a different key) surfaces as an
// error, never as a silently adopted result: a complete stream without it
// is a StreamError with Reason "missing".
func (c *HTTPCache) ResolveCell(key string, job harness.CellJob, opts harness.Options) (harness.Run, bool, error) {
	if !c.compute {
		return c.Get(key)
	}
	var run *harness.Run
	err := c.call(func(ctx context.Context) error {
		n, err := NewStreamClient(c.base, c.hc).Experiment(ctx, cellWire(job, opts), func(env CellEnvelope) error {
			if env.Key == key {
				run = &env.Run
			}
			return nil
		})
		if err == nil && run == nil {
			err = &StreamError{Reason: "missing", Delivered: n,
				Err: fmt.Errorf("farm: stream for cell %s ended without it (version skew?)", key)}
		}
		return err
	})
	if err != nil {
		return harness.Run{}, false, err
	}
	return *run, true, nil
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
	wire := harness.WireExperiment(spec, opts)
	jobs, wopts, err := wire.Resolve()
	if err != nil {
		return 0, fmt.Errorf("farm: experiment %q: %w", spec.Name, err)
	}
	expect := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		expect[harness.CellKey(j, wopts)] = true
	}
	if err := c.health.admit(); err != nil {
		return 0, err
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
	c.health.report(err)
	return n, err
}

// call makes one request under the request timeout, admitted and judged
// by the peer's health.
func (c *HTTPCache) call(fn func(ctx context.Context) error) error {
	if err := c.health.admit(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	err := fn(ctx)
	c.health.report(err)
	return err
}
