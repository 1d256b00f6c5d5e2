package harness

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
)

const testKey = "00112233445566778899aabbccddeeff"

// cellLine is the line of one cell, without its newline.
func cellLine(t testing.TB, key string, r Run, cached bool) string {
	t.Helper()
	line, err := AppendRecord(nil, key, &r, cached)
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

// fieldIndex is the path of field indices from Run to the scalar
// f names, found by name through reflection: the tests' reference for
// the offsets the record reads and writes through.
func fieldIndex(f cellField) []int {
	t := reflect.TypeFor[Run]()
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
// the others and from zero, so a scalar the record dropped or swapped
// cannot come back equal.
func sampleRun() Run {
	r := Run{Bench: "505.mcf", Config: "small"}
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
func sameRun(a, b Run) bool {
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

// TestCellCodecLayout: the record order is every scalar of Run,
// Stats flattened in place, and a run whose scalars all differ comes back
// whole; the schema token names the layout, so another layout is another
// token, and a field the record cannot carry stops the package at init.
func TestCellCodecLayout(t *testing.T) {
	run, stats := reflect.TypeFor[Run](), reflect.TypeFor[core.Stats]()
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
	line := cellLine(t, testKey, r, true)
	cell, err := DecodeRecord([]byte(line))
	if err != nil || !sameRun(cell.Run, r) || cell.Run != r || cell.Key != testKey || !cell.Cached ||
		cell.Run.Scheme.String() != "nda" || !strings.HasPrefix(line, cellSchema+" "+testKey+" nda 1 ") {
		t.Fatalf("round trip: %+v, %v\nwant %+v", cell, err, r)
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
	if _, again := cellLayout(run); again != cellSchema || sa == sb || !strings.HasPrefix(sa, RecordSchema+".") {
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
// must stay out of the layout's name: the token names what a record
// carries, not how this process reaches it.
func TestCellCodecOffsets(t *testing.T) {
	if cellSchema != "shadowbinding-farm/v2.07f399c0" {
		t.Errorf("schema token %s, want shadowbinding-farm/v2.07f399c0", cellSchema)
	}
	r := sampleRun()
	v, p := reflect.ValueOf(&r).Elem(), unsafe.Pointer(&r)
	var back Run
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
		if buf, err = AppendRecord(buf[:0], testKey, &r, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendRecord: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecord(line); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeRecord: %v allocations, want at most 3 (key, Bench, Config)", n)
	}
}

// runFrom fills a run's numeric scalars from data, eight bytes each (past
// its end, zero), and takes the names as given; the scheme kind is folded
// into the roster.
func runFrom(data []byte, bench, config string) Run {
	r := Run{Bench: bench, Config: config}
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
	f.Add([]byte(cellLine(f, testKey, Run{Scheme: core.KindDoM}, true)), "", "", true)
	f.Fuzz(func(t *testing.T, data []byte, bench, config string, cached bool) {
		r := runFrom(data, bench, config)
		encodable := RecordString(bench) && RecordString(config) &&
			r.Stats.MaxRenameChain >= 0 && r.Stats.SpecBufPeak >= 0
		line, err := AppendRecord(nil, testKey, &r, cached)
		if (err == nil) != encodable {
			t.Fatalf("encode: %v, encodable %v", err, encodable)
		}
		if err == nil {
			cell, err := DecodeRecord(line)
			if err != nil {
				t.Fatalf("decode of an encoded line: %v\n%s", err, line)
			}
			if !sameRun(cell.Run, r) || cell.Key != testKey || cell.Cached != cached {
				t.Fatalf("round trip changed the cell:\ngot  %+v\nwant %+v", cell.Run, r)
			}
		}
		cell, err := DecodeRecord(data)
		if err != nil {
			return
		}
		again, err := AppendRecord(nil, cell.Key, &cell.Run, cell.Cached)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted line does not re-encode to itself (%v):\n%q\n%q", err, data, again)
		}
	})
}
