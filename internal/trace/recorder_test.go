package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace.golden")

// traceCell runs one small traced cell and returns the decoded trace.
func traceCell(t *testing.T, kind core.SchemeKind, bench string) (Meta, []Record, *Recorder) {
	t.Helper()
	raw, rec := recordCell(t, kind, bench)
	meta, recs, err := DecodeAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return meta, recs, rec
}

// recordCell runs one small traced cell and returns the raw JSONL.
func recordCell(t testing.TB, kind core.SchemeKind, bench string) ([]byte, *Recorder) {
	t.Helper()
	prof, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, Meta{
		Bench: bench, Config: "mega", Scheme: kind.String(), Warmup: 1000, Budget: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.Options{Scale: 1, WarmupCycles: 1000, MeasureCycles: 3000}
	if _, err := harness.RunOneRecorded(core.MegaConfig(), kind, prof, opts, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rec
}

// TestTraceGolden pins the encoded trace bytes of the two cells the
// round-trip tests use, as sha256 hashes: a change to what the core
// reports, or to how the recorder encodes it, must regenerate the file
// with -update.
func TestTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "trace.golden")
	var b strings.Builder
	for _, cell := range []struct {
		kind  core.SchemeKind
		bench string
	}{{core.KindDoM, "505.mcf"}, {core.KindBaseline, "548.exchange2"}} {
		raw, _ := recordCell(t, cell.kind, cell.bench)
		sum := sha256.Sum256(raw)
		fmt.Fprintf(&b, "%s/%s %s\n", cell.kind, cell.bench, hex.EncodeToString(sum[:]))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("trace bytes diverged:\ngot:\n%swant:\n%sif the change is intentional, regenerate with -update", got, want)
	}
}

// FuzzDecodeAll feeds arbitrary bytes to the disk-facing trace decoder
// (nightly CI runs it for 5m): it must never panic, and every record it
// accepts must survive a re-marshal through encoding/json unchanged.
func FuzzDecodeAll(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"cycle":1}`))
	f.Add([]byte(`{"meta":{"bench":"x"}}` + "\n" + `not json` + "\n"))
	// The head of a real trace: the meta line plus the first records.
	raw, _ := recordCell(f, core.KindDoM, "505.mcf")
	lines := bytes.SplitAfter(raw, []byte("\n"))
	f.Add(bytes.Join(lines[:min(len(lines), 64)], nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, _ := DecodeAll(bytes.NewReader(data))
		for i, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("record %d: marshal: %v", i, err)
			}
			var back Record
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("record %d: re-decode %s: %v", i, line, err)
			}
			if back != rec {
				t.Fatalf("record %d: round trip changed it:\n got %+v\nwant %+v", i, back, rec)
			}
		}
	})
}

// TestJSONLRoundTrip pins the encode/decode pair: every event the
// recorder buffered comes back out of DecodeAll, with the meta line
// first and every field intact.
func TestJSONLRoundTrip(t *testing.T) {
	meta, recs, rec := traceCell(t, core.KindDoM, "505.mcf")
	if meta.Bench != "505.mcf" || meta.Config != "mega" || meta.Scheme != "dom" {
		t.Errorf("meta round-trip: %+v", meta)
	}
	if meta.Warmup != 1000 || meta.Budget != 3000 {
		t.Errorf("meta budgets round-trip: %+v", meta)
	}
	if uint64(len(recs)) != rec.Records() {
		t.Errorf("decoded %d records, recorder buffered %d", len(recs), rec.Records())
	}
	if len(recs) == 0 {
		t.Fatal("no records decoded")
	}
	validStages := map[string]bool{
		"fetch": true, "rename": true, "issue": true, "writeback": true,
		"vp": true, "commit": true, "squash": true,
	}
	sawAnnot, sawSpec := false, false
	for i, r := range recs {
		if !validStages[r.Stage] {
			t.Fatalf("record %d: invalid stage %q", i, r.Stage)
		}
		if r.Op == "" {
			t.Fatalf("record %d: empty op", i)
		}
		if r.Seq == 0 {
			t.Fatalf("record %d: zero seq", i)
		}
		if r.Annot != "" {
			sawAnnot = true
		}
		if r.Spec {
			sawSpec = true
		}
	}
	if !sawAnnot || !sawSpec {
		t.Errorf("trace missing field coverage: annot=%v spec=%v", sawAnnot, sawSpec)
	}
	// A DoM run on a memory-bound proxy must show its parks in the trace.
	parks := 0
	for _, r := range recs {
		if strings.Contains(r.Annot, "dom-park") {
			parks++
		}
	}
	if parks == 0 {
		t.Error("dom trace carries no dom-park annotations")
	}
}

// TestStorePartsRoundTrip asserts store halves carry their part tag
// through the encoder (505.mcf's pointer-chasing proxy has no stores, so
// this uses the store-heavy exchange2 proxy).
func TestStorePartsRoundTrip(t *testing.T) {
	_, recs, _ := traceCell(t, core.KindBaseline, "548.exchange2")
	addrs, datas := 0, 0
	for _, r := range recs {
		switch r.Part {
		case "addr":
			addrs++
		case "data":
			datas++
		case "":
		default:
			t.Fatalf("invalid part %q", r.Part)
		}
	}
	if addrs == 0 || datas == 0 {
		t.Errorf("no store-part records: addr=%d data=%d", addrs, datas)
	}
}

// TestDecodeAllErrors covers the malformed-input paths.
func TestDecodeAllErrors(t *testing.T) {
	if _, _, err := DecodeAll(strings.NewReader("")); err == nil {
		t.Error("empty input must fail")
	}
	if _, _, err := DecodeAll(strings.NewReader(`{"cycle":1}`)); err == nil {
		t.Error("missing meta line must fail")
	}
	bad := `{"meta":{"bench":"x"}}` + "\n" + `not json` + "\n"
	if _, _, err := DecodeAll(strings.NewReader(bad)); err == nil {
		t.Error("malformed record line must fail")
	}
}

// TestRecorderSteadyStateZeroAlloc pins the ring-buffered encoder's
// zero-allocation steady state: once warm, simulating with a recorder
// attached allocates nothing per cycle (the TestSteadyStateZeroAlloc
// guarantee must survive tracing).
func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	c := core.MustNew(core.MegaConfig(), core.KindSTTRename, prof.Build(1))
	rec, err := NewRecorder(io.Discard, Meta{Bench: "505.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	c.Observer = rec
	limit := uint64(20_000)
	if _, err := c.Run(core.RunLimits{MaxCycles: limit}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		limit += 500
		if _, err := c.Run(core.RunLimits{MaxCycles: limit}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state cycle with recorder allocates (%v allocs/run), want 0", allocs)
	}
}
