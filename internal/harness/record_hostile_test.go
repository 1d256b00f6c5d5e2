package harness_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/harness"
)

// TestCellCodecHostileLines: every malformed cell record is refused —
// as a GET or PUT body; as a disk store's entry, where it is a miss with
// the parse error reported; and as a farm stream line, where it fails the
// stream as a protocol error before any cell is delivered.
func TestCellCodecHostileLines(t *testing.T) {
	good := harness.CellLine(t, harness.TestKey, harness.SampleRun(), false)
	bench, scheme := harness.FieldAt(t, "Bench"), harness.FieldAt(t, "Scheme")
	cycles, chain := harness.FieldAt(t, "Cycles"), harness.FieldAt(t, "Stats.MaxRenameChain")
	last := len(strings.Split(good, " ")) - 1
	for _, tc := range []struct{ name, line string }{
		{"short", good[:strings.LastIndexByte(good, ' ')]},
		{"extra field", good + " 7"},
		{"empty field", harness.WithField(good, cycles, "")},
		{"double separator", strings.Replace(good, " ", "  ", 1)},
		{"non-digit", harness.WithField(good, cycles, "12a")},
		{"sign", harness.WithField(good, cycles, "+12")},
		{"negative", harness.WithField(good, chain, "-1")},
		{"leading zero", harness.WithField(good, cycles, "012")},
		{"scheme kind overflow", harness.WithField(good, scheme, "256")},
		{"uint64 overflow", harness.WithField(good, cycles, "18446744073709551616")},
		{"int overflow", harness.WithField(good, chain, "9223372036854775808")},
		{"float as text", harness.WithField(good, harness.FieldAt(t, "IPC"), "0.5")},
		{"cached not a flag", harness.WithField(good, 3, "2")},
		{"separator in a string", harness.WithField(good, bench, "505 mcf")},
		{"tab in a string", harness.WithField(good, bench, "505\tmcf")},
		{"newline in a string", harness.WithField(good, bench, "505\nmcf")},
		{"non-ASCII string", harness.WithField(good, bench, "505.mcfé")},
		{"trailing separator", good + " "},
		{"trailing bytes", good + "\x00"},
		{"over-long line", harness.WithField(good, bench, strings.Repeat("a", harness.MaxRecordBytes))},
		{"layout skew", harness.WithField(good, 0, harness.RecordSchema+".00000000")},
		{"v1 schema", harness.WithField(good, 0, "shadowbinding-farm/v1")},
		{"unknown scheme", harness.WithField(good, 2, "no-such-scheme")},
		{"scheme kind mismatch", harness.WithField(good, scheme, "0")},
		{"last field cut", harness.WithField(good, last, "")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.line == good {
				t.Fatal("the case does not change the line")
			}
			if _, err := harness.ReadRecord(strings.NewReader(tc.line+"\n"), ""); err == nil {
				t.Error("accepted as a cell body")
			}
			disk, err := harness.NewDiskCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(disk.Path(harness.TestKey), []byte(tc.line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := disk.Get(harness.TestKey); ok || err == nil {
				t.Errorf("store entry: ok=%v err=%v; want a miss with the parse error", ok, err)
			}
			stream := fmt.Sprintf("{\"schema\":%q,\"cells\":1}\n%s\n{\"schema\":%q,\"done\":1}\n",
				farm.StreamHeaderSchema, tc.line, farm.StreamTrailerSchema)
			n, err := farm.NewStreamClient("http://farm.test", answering(stream)).Experiment(context.Background(),
				harness.ExperimentJobWire{}, func(farm.CellEnvelope) error { return nil })
			var se *farm.StreamError
			if n != 0 || !errors.As(err, &se) || se.Reason != "protocol" {
				t.Errorf("stream: %d cells, %v; want a protocol StreamError", n, err)
			}
		})
	}
	if _, err := harness.ReadRecord(strings.NewReader(good+"\n"), harness.TestKey); err != nil {
		t.Fatalf("the good line: %v", err)
	}
}

// answering is a client whose every request is answered 200 with body.
func answering(body string) *http.Client {
	return &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: make(http.Header),
			Body: io.NopCloser(strings.NewReader(body)), Request: req}, nil
	})}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
