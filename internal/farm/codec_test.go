package farm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

const testKey = "00112233445566778899aabbccddeeff"

// cellLine is the line of one cell, without its newline.
func cellLine(t testing.TB, key string, r harness.Run, cached bool) string {
	t.Helper()
	line, err := appendCell(nil, key, &r, cached)
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// fieldAt is the position on a cell line of the Run scalar named name.
func fieldAt(t testing.TB, name string) int {
	t.Helper()
	for i, f := range cellFields {
		if f.name == name {
			return 4 + i
		}
	}
	t.Fatalf("no cell field %s", name)
	return -1
}

// withField returns line with field i replaced by tok.
func withField(line string, i int, tok string) string {
	f := strings.Split(line, " ")
	f[i] = tok
	return strings.Join(f, " ")
}

// fieldIndex is the path of field indices from harness.Run to the scalar
// f names, found by name through reflection: the tests' reference for
// the offsets the codec reads and writes through.
func fieldIndex(f cellField) []int {
	t := reflect.TypeFor[harness.Run]()
	var index []int
	for _, part := range strings.Split(f.name, ".") {
		sf, ok := t.FieldByName(part)
		if !ok {
			panic("no field " + f.name)
		}
		index, t = append(index, sf.Index...), sf.Type
	}
	return index
}

// sampleRun is a valid NDA run whose every numeric scalar differs from
// the others and from zero, so a scalar the codec dropped or swapped
// cannot come back equal.
func sampleRun() harness.Run {
	r := harness.Run{Bench: "505.mcf", Config: "small"}
	v := reflect.ValueOf(&r).Elem()
	for i, f := range cellFields {
		fv := v.FieldByIndex(fieldIndex(f))
		switch f.enc {
		case scalarUint:
			fv.SetUint(uint64(1000 + 7*i))
		case scalarInt:
			fv.SetInt(int64(2000 + 7*i))
		case scalarFloat:
			fv.SetFloat(0.1 + float64(i))
		}
	}
	r.Scheme = core.KindNDA
	return r
}

// sameRun compares two runs scalar by scalar, floats by their bits.
func sameRun(a, b harness.Run) bool {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for _, f := range cellFields {
		x, y := va.FieldByIndex(fieldIndex(f)), vb.FieldByIndex(fieldIndex(f))
		if f.enc == scalarFloat {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if !x.Equal(y) {
			return false
		}
	}
	return true
}

// TestCellCodecLayout: the wire order is every scalar of harness.Run,
// Stats flattened in place, and a run whose scalars all differ comes back
// whole; the schema token names the layout, so another layout is another
// token, and a field the codec cannot carry stops the package at init.
func TestCellCodecLayout(t *testing.T) {
	run, stats := reflect.TypeFor[harness.Run](), reflect.TypeFor[core.Stats]()
	if want := run.NumField() - 1 + stats.NumField(); len(cellFields) != want {
		t.Fatalf("%d cell fields, want %d", len(cellFields), want)
	}
	if first, last := cellFields[0].name, cellFields[len(cellFields)-1].name; first != "Bench" || last != "TotalCycles" {
		t.Errorf("fields run from %s to %s, want Bench to TotalCycles", first, last)
	}
	if f := cellFields[fieldAt(t, "Scheme")-4]; f.enc != scalarUint || f.max != math.MaxUint8 {
		t.Errorf("Scheme is %+v, want an unsigned byte", f)
	}
	if f := cellFields[fieldAt(t, "Stats.MaxRenameChain")-4]; f.enc != scalarInt || f.max != math.MaxInt64 {
		t.Errorf("Stats.MaxRenameChain is %+v, want a non-negative int", f)
	}
	r := sampleRun()
	env, err := decodeCell([]byte(cellLine(t, testKey, r, true)))
	if err != nil || !sameRun(env.Run, r) || env.Run != r || env.Key != testKey || !env.Cached || env.Scheme != "nda" || env.Schema != Schema {
		t.Fatalf("round trip: %+v, %v\nwant %+v", env, err, r)
	}

	type a struct {
		X uint64
		Y uint8
	}
	type b struct {
		Y uint8
		X uint64
	}
	_, sa := cellLayout(reflect.TypeFor[a]())
	_, sb := cellLayout(reflect.TypeFor[b]())
	if _, again := cellLayout(run); again != cellSchema || sa == sb || !strings.HasPrefix(sa, Schema+".") {
		t.Errorf("layout names: Run %s then %s, reordered %s and %s", cellSchema, again, sa, sb)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[struct{ M map[string]int }](), reflect.TypeFor[struct{ f uint64 }]()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("layout of %s did not panic", typ)
				}
			}()
			cellLayout(typ)
		}()
	}
}

// TestCellCodecOffsets: every scalar of a run whose scalars all differ,
// read through the offsets cellLayout recorded, is the scalar reflection
// finds by name, and a run stored scalar by scalar through them equals
// the original. The schema token is pinned, because offsets and widths
// must stay out of the layout's name: the token names what crosses the
// wire, not how this process reaches it.
func TestCellCodecOffsets(t *testing.T) {
	if cellSchema != "shadowbinding-farm/v2.07f399c0" {
		t.Errorf("schema token %s, want shadowbinding-farm/v2.07f399c0", cellSchema)
	}
	r := sampleRun()
	v, p := reflect.ValueOf(&r).Elem(), unsafe.Pointer(&r)
	var back harness.Run
	q := unsafe.Pointer(&back)
	for i := range cellFields {
		f := &cellFields[i]
		fv := v.FieldByIndex(fieldIndex(*f))
		var same bool
		switch f.enc {
		case scalarString:
			same = *f.str(p) == fv.String()
			*f.str(q) = *f.str(p)
		case scalarUint:
			same = f.bits(p) == fv.Uint()
		case scalarInt:
			same = f.bits(p) == uint64(fv.Int()) // positive: no sign to extend
		case scalarFloat:
			same = f.bits(p) == math.Float64bits(fv.Float())
		}
		if !same {
			t.Errorf("%s at offset %d reads %d, want %v", f.name, f.off, f.bits(p), fv)
		}
		if f.enc != scalarString {
			f.setBits(q, f.bits(p))
		}
	}
	if back != r {
		t.Errorf("stored through the offsets:\n%+v\nwant %+v", back, r)
	}
}

// TestCellCodecAllocs: encoding a cell into a buffer with room allocates
// nothing, and decoding one allocates its key and Run's two strings.
func TestCellCodecAllocs(t *testing.T) {
	r := sampleRun()
	line := []byte(cellLine(t, testKey, r, true))
	buf := make([]byte, 0, 2*len(line))
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = appendCell(buf[:0], testKey, &r, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("appendCell: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeCell(line); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decodeCell: %v allocations, want at most 3 (key, Bench, Config)", n)
	}
}

// TestCellCodecHostileLines: every malformed cell line is refused —
// as a GET or PUT body, and as a stream line, where it fails the stream
// as a protocol error before any cell is delivered.
func TestCellCodecHostileLines(t *testing.T) {
	good := cellLine(t, testKey, sampleRun(), false)
	bench, scheme := fieldAt(t, "Bench"), fieldAt(t, "Scheme")
	cycles, chain := fieldAt(t, "Cycles"), fieldAt(t, "Stats.MaxRenameChain")
	last := len(strings.Split(good, " ")) - 1
	for _, tc := range []struct{ name, line string }{
		{"short", good[:strings.LastIndexByte(good, ' ')]},
		{"extra field", good + " 7"},
		{"empty field", withField(good, cycles, "")},
		{"double separator", strings.Replace(good, " ", "  ", 1)},
		{"non-digit", withField(good, cycles, "12a")},
		{"sign", withField(good, cycles, "+12")},
		{"negative", withField(good, chain, "-1")},
		{"leading zero", withField(good, cycles, "012")},
		{"scheme kind overflow", withField(good, scheme, "256")},
		{"uint64 overflow", withField(good, cycles, "18446744073709551616")},
		{"int overflow", withField(good, chain, "9223372036854775808")},
		{"float as text", withField(good, fieldAt(t, "IPC"), "0.5")},
		{"cached not a flag", withField(good, 3, "2")},
		{"separator in a string", withField(good, bench, "505 mcf")},
		{"tab in a string", withField(good, bench, "505\tmcf")},
		{"newline in a string", withField(good, bench, "505\nmcf")},
		{"non-ASCII string", withField(good, bench, "505.mcfé")},
		{"trailing separator", good + " "},
		{"trailing bytes", good + "\x00"},
		{"over-long line", withField(good, bench, strings.Repeat("a", maxBodyBytes))},
		{"layout skew", withField(good, 0, Schema+".00000000")},
		{"v1 schema", withField(good, 0, "shadowbinding-farm/v1")},
		{"unknown scheme", withField(good, 2, "no-such-scheme")},
		{"scheme kind mismatch", withField(good, scheme, "0")},
		{"last field cut", withField(good, last, "")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.line == good {
				t.Fatal("the case does not change the line")
			}
			if _, err := readCell(strings.NewReader(tc.line+"\n"), ""); err == nil {
				t.Error("accepted as a cell body")
			}
			stream := fmt.Sprintf("{\"schema\":%q,\"cells\":1}\n%s\n{\"schema\":%q,\"done\":1}\n",
				StreamHeaderSchema, tc.line, StreamTrailerSchema)
			n, err := NewStreamClient("http://unused", nil).consume(strings.NewReader(stream),
				func(CellEnvelope) error { return nil })
			var se *StreamError
			if n != 0 || !errors.As(err, &se) || se.Reason != "protocol" {
				t.Errorf("stream: %d cells, %v; want a protocol StreamError", n, err)
			}
		})
	}
	if _, err := readCell(strings.NewReader(good+"\n"), testKey); err != nil {
		t.Fatalf("the good line: %v", err)
	}
}

// runFrom fills a run's numeric scalars from data, eight bytes each (past
// its end, zero), and takes the names as given; the scheme kind is folded
// into the roster.
func runFrom(data []byte, bench, config string) harness.Run {
	r := harness.Run{Bench: bench, Config: config}
	v := reflect.ValueOf(&r).Elem()
	var word [8]byte
	for _, f := range cellFields {
		clear(word[:])
		data = data[copy(word[:], data):]
		u := binary.LittleEndian.Uint64(word[:])
		fv := v.FieldByIndex(fieldIndex(f))
		switch f.enc {
		case scalarUint:
			fv.SetUint(u & f.max)
		case scalarInt:
			fv.SetInt(int64(u)) // may be negative: not encodable
		case scalarFloat:
			fv.SetFloat(math.Float64frombits(u))
		}
	}
	r.Scheme %= core.SchemeKind(len(core.SchemeKinds()))
	return r
}

// FuzzCellCodec: a run built from the input round-trips through a line
// bit-exact, every scalar at every value its type holds (IPC's NaNs
// included), or fails to encode exactly when a name is outside the
// string alphabet or an int is negative; and the input itself, read as a
// line, never panics the decoder, which accepts only a line the encoder
// writes byte for byte.
func FuzzCellCodec(f *testing.F) {
	// maxed puts every scalar at its maximum: all ones, ints without
	// their sign bit.
	maxed := bytes.Repeat([]byte{0xff}, 8*len(cellFields))
	for i, cf := range cellFields {
		if cf.enc == scalarInt {
			maxed[8*i+7] = 0x7f
		}
	}
	f.Add(maxed, "505.mcf", "mega", true)
	f.Add(bytes.Repeat([]byte{0xff}, 8*len(cellFields)), "x", "y", false)
	f.Add([]byte{}, "", "", false)
	f.Add([]byte("\x01\x02\x03"), "505 mcf", "small", false)
	f.Add([]byte{7}, "505.mcf", "méga", true)
	f.Add([]byte(cellLine(f, testKey, sampleRun(), false)), "505.mcf", "small", false)
	f.Add([]byte(cellLine(f, testKey, harness.Run{Scheme: core.KindDoM}, true)), "", "", true)
	f.Fuzz(func(t *testing.T, data []byte, bench, config string, cached bool) {
		r := runFrom(data, bench, config)
		encodable := cellString(bench) && cellString(config) &&
			r.Stats.MaxRenameChain >= 0 && r.Stats.SpecBufPeak >= 0
		line, err := appendCell(nil, testKey, &r, cached)
		if (err == nil) != encodable {
			t.Fatalf("encode: %v, encodable %v", err, encodable)
		}
		if err == nil {
			env, err := decodeCell(line)
			if err != nil {
				t.Fatalf("decode of an encoded line: %v\n%s", err, line)
			}
			if !sameRun(env.Run, r) || env.Key != testKey || env.Cached != cached {
				t.Fatalf("round trip changed the cell:\ngot  %+v\nwant %+v", env.Run, r)
			}
		}
		env, err := decodeCell(data)
		if err != nil {
			return
		}
		again, err := appendCell(nil, env.Key, &env.Run, env.Cached)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted line does not re-encode to itself (%v):\n%q\n%q", err, data, again)
		}
	})
}

// TestStreamBytesPerCell guards the wire size of a warm stream: a
// 132-cell Mega matrix (one BOOM row × 6 schemes × 22 proxies) sent with
// identity bodies costs at most 256 bytes a cell, framing included. The
// JSON envelopes the positional codec replaced cost about 980.
func TestStreamBytesPerCell(t *testing.T) {
	const maxPerCell = 256
	_, ts := newTestFarm(t, ServerConfig{Parallelism: 2})
	spec := harness.MatrixSpec{
		Name:    "wire-size",
		Configs: []core.Config{core.MegaConfig()},
		Schemes: core.SchemeKinds(),
		Benches: workloads.Suite(),
	}
	cells := len(spec.Schemes) * len(spec.Benches)
	wire := harness.WireExperiment(spec, testOpts())
	var counted int64
	tp := &http.Transport{DisableCompression: true}
	t.Cleanup(tp.CloseIdleConnections)
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		req = req.Clone(req.Context())
		req.Header.Del("Accept-Encoding") // an identity body
		resp, err := tp.RoundTrip(req)
		if err == nil {
			resp.Body = &countingReader{ReadCloser: resp.Body, n: &counted}
		}
		return resp, err
	})}
	for pass := range 2 { // cold, then warm from the farm's store
		counted = 0
		n, err := NewStreamClient(ts.URL, hc).Experiment(context.Background(), wire, func(CellEnvelope) error { return nil })
		if err != nil || n != cells {
			t.Fatalf("pass %d: %d cells, %v", pass, n, err)
		}
	}
	perCell := counted / int64(cells)
	t.Logf("%d bytes a cell", perCell)
	if perCell > maxPerCell {
		t.Errorf("an identity stream cost %d bytes a cell, want at most %d", perCell, maxPerCell)
	}
}

type countingReader struct {
	io.ReadCloser
	n *int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	*r.n += int64(n)
	return n, err
}

// v1Envelope is a cell as a shadowbinding-farm/v1 peer sent it: a JSON
// envelope, here with counters no simulation produced.
func v1Envelope(key string) []byte {
	data, _ := json.Marshal(CellEnvelope{Schema: "shadowbinding-farm/v1", Key: key, Scheme: "baseline",
		Run: harness.Run{Bench: "505.mcf", Config: "small", Cycles: 1, Insts: 99, IPC: 99}}) // finite numbers: cannot fail
	return data
}

// TestVersionSkewV1Peer: a farm or client that still speaks v1's JSON
// cells fails cleanly against this one. A v1 stream is a protocol error
// at its first cell, a v1 PUT is a 400 that stores nothing, and a session
// over a v1 farm renders table1 byte-identical to a local run: the
// experiment stream fails, the per-cell fallback fails cell by cell, and
// every cell is simulated locally.
func TestVersionSkewV1Peer(t *testing.T) {
	opts := testOpts()
	job := testJob(t, "505.mcf", core.KindBaseline)
	key := keyOf(job, opts)
	v1 := func(keys []string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "{\"schema\":%q,\"cells\":%d}\n", StreamHeaderSchema, len(keys))
		for _, k := range keys {
			fmt.Fprintf(&b, "%s\n", v1Envelope(k))
		}
		fmt.Fprintf(&b, "{\"schema\":%q,\"done\":%d}\n", StreamTrailerSchema, len(keys))
		return b.String()
	}

	n, err := NewStreamClient("http://unused", nil).consume(strings.NewReader(v1([]string{key})),
		func(CellEnvelope) error { return nil })
	var se *StreamError
	if n != 0 || !errors.As(err, &se) || se.Reason != "protocol" {
		t.Fatalf("v1 stream: %d cells, %v; want a protocol StreamError", n, err)
	}

	srv, ts := newTestFarm(t, ServerConfig{})
	req, err := http.NewRequest(http.MethodPut, ts.URL+CellsPath+"/"+key, bytes.NewReader(v1Envelope(key)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || srv.Stats().Puts != 0 {
		t.Fatalf("v1 PUT: status %d, %d puts; want a 400 and none", resp.StatusCode, srv.Stats().Puts)
	}

	var experiments, computes atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.Write(v1Envelope(strings.TrimPrefix(r.URL.Path, CellsPath+"/"))) //nolint:errcheck
			return
		}
		var wire harness.ExperimentJobWire
		body, err := requestBody(w, r)
		if err == nil {
			err = decodeRequest(body, &wire)
			body.Close()
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec, wopts, err := wire.Spec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		keys := harness.SpecKeys(spec, wopts)
		if len(keys) == 1 {
			computes.Add(1)
		} else {
			experiments.Add(1)
		}
		io.WriteString(w, v1(keys)) //nolint:errcheck
	}))
	t.Cleanup(old.Close)
	table1 := func(cache harness.CellCache) (string, harness.SessionStats) {
		s := harness.NewSession(harness.SessionConfig{Options: opts, Schemes: []core.SchemeKind{core.KindBaseline}, Cache: cache})
		out, err := s.Experiment(context.Background(), "table1")
		if err != nil {
			t.Fatal(err)
		}
		return out, s.Stats()
	}
	want, _ := table1(nil)
	got, st := table1(harness.NewTieredCache(harness.NewMemoryCache(0), NewHTTPCache(old.URL, HTTPCacheOptions{Compute: true})))
	if got != want {
		t.Fatalf("table1 over a v1 farm:\n%s\nwant\n%s", got, want)
	}
	if st.Simulated != st.Cells || experiments.Load() != 1 || computes.Load() != int64(st.Cells) {
		t.Errorf("%+v after %d experiment and %d one-cell requests; want every cell simulated locally after 1 and %d",
			st, experiments.Load(), computes.Load(), st.Cells)
	}
}
