package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
)

// span is one timed call into a layer. Spans are kept in memory and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Pass   string `json:"pass"`   // the pass or ladder probe the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans around the calls into each layer, plus the counts
// measured at the same boundaries. It is safe for concurrent use: the
// engine calls the cache decorators from every worker.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	pass   string // current pass label
	parent int    // current pass span: the parent of layer spans
	// missAt holds, per cell key, when the slowest cache layer missed;
	// the Put that follows ends the cell's busy time on the pool, recorded
	// as an engine.cell span.
	missAt     map[string]int64
	getErrors  int
	streamErrs int
	passWallNS int64
	passes     int
	stats      harness.EngineStats // summed over traced passes
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), missAt: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span under the current pass.
func (t *tracer) add(name string, start, end int64) {
	t.mu.Lock()
	t.addLocked(name, t.parent, start, end)
	t.mu.Unlock()
}

func (t *tracer) addLocked(name string, parent int, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, Start: start, End: end})
	return id
}

// timeCall runs f as one span named name and returns f's error.
func (t *tracer) timeCall(name string, f func() error) error {
	start := t.now()
	err := f()
	t.add(name, start, t.now())
	return err
}

// beginPass opens a root span named name for the pass or ladder probe
// label; spans recorded until endPass become its children.
func (t *tracer) beginPass(name, label string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass = label
	t.parent = t.addLocked(name, 0, t.now(), 0)
}

// endPass closes the current pass span.
func (t *tracer) endPass() {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[t.parent-1]
	s.End = t.now()
	t.passWallNS += s.End - s.Start
	t.passes++
	t.parent = 0
}

// sessionStats adds one traced pass's engine accounting.
func (t *tracer) sessionStats(st harness.EngineStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Cells += st.Cells
	t.stats.Hits += st.Hits
	t.stats.Simulated += st.Simulated
}

// spanDurations returns the durations of the spans named name recorded
// under pass or probe label, in seconds.
func (t *tracer) spanDurations(label, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && s.Pass == label {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return d
}

// spanTotal sums the durations of the spans named name, in nanoseconds.
func (t *tracer) spanTotal(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return total
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes each span name's total self time, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	self := selfTimes(t.spans)
	t.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-32s %12s\n", "span", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %12.3f\n", n, float64(self[n])/1e6)
	}
}

// selfTimes returns the total self time per span name: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap each other (the engine's workers run concurrently),
// so their covered time is the length of the union of their intervals,
// clipped to the parent's.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// within [start, end).
func covered(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// timedCache is a CellCache decorator that records a span around every
// call into the layer it wraps. It forwards CellResolver, so a farm layer
// in compute mode still resolves whole jobs; timed adds ExperimentResolver
// only where the wrapped layer has it, because the tiered cache hands a
// whole experiment to the first layer that claims to resolve one.
type timedCache struct {
	name  string // span prefix, e.g. "cache.disk"
	inner harness.CellCache
	tr    *tracer
	// last marks the slowest layer: a miss there is a miss of the whole
	// stack, which the engine answers by simulating.
	last bool
}

// timedStreamCache is timedCache for a layer that resolves experiments.
type timedStreamCache struct{ *timedCache }

// timed wraps inner with span recording.
func (t *tracer) timed(name string, inner harness.CellCache, last bool) harness.CellCache {
	c := &timedCache{name: name, inner: inner, tr: t, last: last}
	if _, ok := inner.(harness.ExperimentResolver); ok {
		return timedStreamCache{c}
	}
	return c
}

func (c *timedCache) Get(key string) (harness.Run, bool, error) {
	start := c.tr.now()
	r, ok, err := c.inner.Get(key)
	c.lookupDone(key, start, ok, err)
	return r, ok, err
}

func (c *timedCache) ResolveCell(key string, job harness.CellJob, opts harness.Options) (harness.Run, bool, error) {
	res, isResolver := c.inner.(harness.CellResolver)
	if !isResolver {
		return c.Get(key)
	}
	start := c.tr.now()
	r, ok, err := res.ResolveCell(key, job, opts)
	c.lookupDone(key, start, ok, err)
	return r, ok, err
}

func (c *timedCache) lookupDone(key string, start int64, ok bool, err error) {
	end := c.tr.now()
	t := c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(c.name+".get", t.parent, start, end)
	if err != nil {
		t.getErrors++
	}
	if c.last && !ok {
		t.missAt[key] = end
	}
}

func (c *timedCache) Put(key string, r harness.Run) error {
	start := c.tr.now()
	err := c.inner.Put(key, r)
	end := c.tr.now()
	t := c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(c.name+".put", t.parent, start, end)
	if at, ok := t.missAt[key]; ok {
		t.addLocked("engine.cell", t.parent, at, start)
		delete(t.missAt, key)
	}
	return err
}

func (c timedStreamCache) ResolveExperiment(ctx context.Context, spec harness.MatrixSpec, opts harness.Options, deliver func(key string, r harness.Run)) (int, error) {
	start := c.tr.now()
	n, err := c.inner.(harness.ExperimentResolver).ResolveExperiment(ctx, spec, opts, deliver)
	end := c.tr.now()
	t := c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(c.name+".stream", t.parent, start, end)
	if err != nil {
		t.streamErrs++
	}
	return n, err
}
