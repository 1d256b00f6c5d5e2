package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// ErrStreamTruncated marks a stream that ended before its trailer: the
// server died, the connection dropped, or a proxy cut the body short.
var ErrStreamTruncated = errors.New("farm: experiment stream truncated (no trailer)")

// StreamError is the typed failure of an experiment stream. Delivered
// counts the cells handed to the callback before the failure — those are
// validated and final; only the remainder needs per-cell resolution.
type StreamError struct {
	Reason    string // "transport" (no answer, 5xx included), "rejected" (4xx), "server", "protocol", "truncated", "missing"
	Delivered int
	Err       error
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("farm: experiment stream %s after %d cells: %v", e.Reason, e.Delivered, e.Err)
}

func (e *StreamError) Unwrap() error { return e.Err }

// StreamClient consumes the farm's experiment stream endpoint at one base
// URL.
type StreamClient struct {
	base string
	hc   *http.Client
}

// NewStreamClient returns a stream client for the daemon at baseURL
// (e.g. "http://127.0.0.1:8484"); a nil hc gets the shared farm client,
// whose response-header deadline fails a farm that never answers. The
// caller's context bounds the rest of the stream, because a healthy
// stream legitimately lasts as long as the experiment simulates.
func NewStreamClient(baseURL string, hc *http.Client) *StreamClient {
	if hc == nil {
		hc = client
	}
	return &StreamClient{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// Experiment posts wire and invokes fn for every streamed cell, each
// already decoded and validated (schema, layout and scheme roster; key
// membership is the caller's to check — it derives the expected key set
// from the same wire form). An fn error aborts the stream and is
// returned as-is. The int result counts cells delivered to fn, valid even
// alongside an error.
func (c *StreamClient) Experiment(ctx context.Context, wire harness.ExperimentJobWire, fn func(CellEnvelope) error) (int, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return 0, fmt.Errorf("farm: marshal experiment: %w", err)
	}
	payload, encoding := maybeGzip(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+ExperimentsPath, bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("farm: build experiment request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := do(c.hc, req)
	if err != nil {
		return 0, &StreamError{Reason: "transport", Err: err}
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		reason := "server"
		if isRejection(resp.StatusCode) {
			reason = "rejected" // the request itself: roster or version skew
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, &StreamError{Reason: reason,
			Err: fmt.Errorf("farm: experiment: %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	rd, err := maybeGunzip(resp)
	if err != nil {
		return 0, &StreamError{Reason: "protocol", Err: err}
	}
	defer rd.Close()
	return c.consume(rd, fn)
}

// metaLine holds the fields of a stream's two JSON lines, the header and
// the trailer, told apart by schema. A field neither has is a protocol
// error, as is any byte after the JSON value.
type metaLine struct {
	Schema string `json:"schema"`
	Cells  int    `json:"cells"` // StreamHeader
	Done   int    `json:"done"`  // StreamTrailer
	Err    string `json:"error"` // StreamTrailer
}

func decodeMeta(text []byte) (metaLine, error) {
	var m metaLine
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return metaLine{}, fmt.Errorf("farm: stream line: %w", err)
	}
	if dec.InputOffset() != int64(len(text)) { // as json.Unmarshal rejects it
		return metaLine{}, errors.New("farm: stream line: data after its JSON value")
	}
	return m, nil
}

// scanBuffers keeps the stream reader's 64 KiB line buffers idle between
// streams; a longer line grows a copy, up to maxBodyBytes.
var scanBuffers = newIdle(func() *[]byte { b := make([]byte, 64<<10); return &b })

// consume reads the stream line by line: a line that opens with '{' is
// the header or the trailer, any other is a cell line, decoded by the
// cell record and handed to fn. Blank lines are skipped.
func (c *StreamClient) consume(rd io.Reader, fn func(CellEnvelope) error) (int, error) {
	buf := scanBuffers.get()
	defer scanBuffers.put(buf)
	sc := bufio.NewScanner(rd)
	sc.Buffer(*buf, maxBodyBytes) // per-line bound, not whole-stream
	delivered := 0
	fail := func(reason string, err error) (int, error) {
		return delivered, &StreamError{Reason: reason, Delivered: delivered, Err: err}
	}
	sawHeader, sawTrailer := false, false
	for sc.Scan() {
		line := sc.Bytes()
		text := bytes.TrimSpace(line)
		if len(text) == 0 {
			continue
		}
		if text[0] != '{' {
			cell, err := harness.DecodeRecord(line)
			if err != nil {
				return fail("protocol", err)
			}
			if err := fn(envelope(cell)); err != nil {
				return delivered, err
			}
			delivered++
			continue
		}
		m, err := decodeMeta(text)
		if err != nil {
			return fail("protocol", err)
		}
		switch m.Schema {
		case StreamHeaderSchema:
			sawHeader = true
		case StreamTrailerSchema:
			if m.Err != "" {
				return fail("server", fmt.Errorf("farm: experiment failed on the server: %s", m.Err))
			}
			sawTrailer = true
		default:
			return fail("protocol", fmt.Errorf("farm: stream line schema %q unknown", m.Schema))
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fail("protocol", fmt.Errorf("farm: stream line exceeds %d bytes", maxBodyBytes))
		}
		return fail("transport", err)
	}
	if !sawHeader || !sawTrailer {
		return fail("truncated", ErrStreamTruncated)
	}
	return delivered, nil
}

// cellWire is the wire form of one cell: a one-cell experiment named
// after the cell, so server logs say which cell a request computed.
func cellWire(job harness.CellJob, opts harness.Options) harness.ExperimentJobWire {
	return harness.WireExperiment(harness.MatrixSpec{
		Name:    cellName(job),
		Configs: []core.Config{job.Config},
		Schemes: []core.SchemeKind{job.Scheme},
		Benches: []workloads.Profile{job.Bench},
	}, opts)
}

// isRejection reports a 4xx answer: the farm judged the request (scheme
// roster or version skew), so asking again cannot help.
func isRejection(status int) bool { return status >= 400 && status < 500 }

// rejected reports whether err is a 4xx answer: the request, not the farm
// or worker, is at fault, so a re-shard cannot help.
func rejected(err error) bool {
	var se *StreamError
	return errors.As(err, &se) && se.Reason == "rejected"
}
