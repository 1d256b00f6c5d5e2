package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
)

// The JSONL trace encoder — the file-format half of the per-cycle trace
// subsystem. A Recorder implements core.Observer, buffering the pipeline
// stage events through a preallocated ring and encoding them with a hand-rolled append
// encoder so that a steady-state simulation cycle performs zero heap
// allocations with a recorder attached (TestRecorderSteadyStateZeroAlloc).
//
// File format: one JSON object per line. The first line is the meta
// record {"meta":{...}}; every following line is a Record.

// Meta identifies the traced cell. It is the first line of a trace file.
type Meta struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Scheme string `json:"scheme"`
	// Warmup is the warmup cycle budget preceding the measured window
	// (trace cycle stamps are monotonic across both phases).
	Warmup uint64 `json:"warmup,omitempty"`
	// Budget is the measured cycle budget.
	Budget uint64 `json:"budget,omitempty"`
}

// Record is the decoded form of one per-uop stage event line.
type Record struct {
	Cycle uint64 `json:"cycle"`
	Seq   uint64 `json:"seq"`
	PC    uint64 `json:"pc"`
	Op    string `json:"op"`
	Stage string `json:"stage"`
	// Part is "addr" or "data" for store halves, absent otherwise.
	Part string `json:"part,omitempty"`
	// Spec reports the uop was still speculative when the event fired.
	Spec bool `json:"spec,omitempty"`
	// Annot is the '|'-joined annotation set (core.TraceAnnot names).
	Annot string `json:"annot,omitempty"`
}

// ringSize is the event buffer depth between encode flushes. Events are
// buffered so the encode loop runs in batches, not per pipeline hook.
const ringSize = 4096

// Recorder is a core.Observer that encodes pipeline stage events to JSONL.
type Recorder struct {
	w       *bufio.Writer
	ring    []core.Event
	buf     []byte
	records uint64
	err     error
}

// NewRecorder writes the meta line to w and returns a recorder ready to
// attach as Core.Observer. Call Flush before reading the output.
func NewRecorder(w io.Writer, meta Meta) (*Recorder, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	line, err := json.Marshal(struct {
		Meta Meta `json:"meta"`
	}{meta})
	if err != nil {
		return nil, fmt.Errorf("trace: encode meta: %w", err)
	}
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return nil, fmt.Errorf("trace: write meta: %w", err)
	}
	return &Recorder{
		w:    bw,
		ring: make([]core.Event, 0, ringSize),
		buf:  make([]byte, 0, 1<<10),
	}, nil
}

// Observe implements core.Observer. It appends into the preallocated
// ring and drains it through the encoder when full — no allocation in
// the steady state. Only the seven pipeline stages are trace records;
// broadcast and cache-access events are skipped, so trace files are what
// they were before those events existed.
func (r *Recorder) Observe(ev core.Event) {
	if ev.Stage > core.StageSquash {
		return
	}
	if len(r.ring) == cap(r.ring) {
		r.drain()
	}
	r.ring = append(r.ring, ev)
	r.records++
}

// drain encodes and writes the buffered events.
func (r *Recorder) drain() {
	for i := range r.ring {
		r.buf = appendRecord(r.buf[:0], &r.ring[i])
		if _, err := r.w.Write(r.buf); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.ring = r.ring[:0]
}

// Records reports how many stage records have been recorded.
func (r *Recorder) Records() uint64 { return r.records }

// Flush drains the ring and flushes the writer, returning the first
// error seen on the output path.
func (r *Recorder) Flush() error {
	r.drain()
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// appendRecord encodes one event as a JSON line, allocation-free against
// a reused buffer. The shape matches Record exactly.
func appendRecord(dst []byte, ev *core.Event) []byte {
	dst = append(dst, `{"cycle":`...)
	dst = strconv.AppendUint(dst, ev.Cycle, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"pc":`...)
	dst = strconv.AppendUint(dst, ev.PC, 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, ev.Op.String()...)
	dst = append(dst, `","stage":"`...)
	dst = append(dst, ev.Stage.String()...)
	dst = append(dst, '"')
	switch ev.Part {
	case core.PartStoreAddr:
		dst = append(dst, `,"part":"addr"`...)
	case core.PartStoreData:
		dst = append(dst, `,"part":"data"`...)
	}
	if ev.Speculative {
		dst = append(dst, `,"spec":true`...)
	}
	if ev.Annot != 0 {
		dst = append(dst, `,"annot":"`...)
		dst = ev.Annot.AppendNames(dst)
		dst = append(dst, '"')
	}
	dst = append(dst, '}', '\n')
	return dst
}

// DecodeAll reads a whole JSONL trace: the meta first line, then every
// stage record in file order.
func DecodeAll(r io.Reader) (Meta, []Record, error) {
	var meta Meta
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	sawMeta := false
	var recs []Record
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !sawMeta {
			var ml struct {
				Meta *Meta `json:"meta"`
			}
			if err := json.Unmarshal(line, &ml); err != nil || ml.Meta == nil {
				return meta, nil, fmt.Errorf("trace: line %d: expected meta record", lineNo)
			}
			meta = *ml.Meta
			sawMeta = true
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return meta, recs, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return meta, recs, fmt.Errorf("trace: read: %w", err)
	}
	if !sawMeta {
		return meta, nil, fmt.Errorf("trace: empty trace (no meta line)")
	}
	return meta, recs, nil
}
