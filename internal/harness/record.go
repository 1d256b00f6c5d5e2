package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unsafe"

	"repro/internal/core"
)

// The cell record. Every cell stored or sent — a disk store file, a farm
// stream line, a GET answer, a PUT body — is one line of space-separated
// fields:
//
//	<schema> <key> <scheme> <cached> <Run's scalars in declaration order>
//
// The Run's scalars are its fields with Stats flattened in place, so a
// line carries values and no field names. The order is derived from Run
// once, by reflection, and the schema token names it: cellSchema is
// RecordSchema plus a hash of every scalar's path and kind. A process
// built with another Run layout writes another schema token, which this
// process rejects as layout skew, so counters never land in the wrong
// fields, whether the line came from a peer or from a store an older
// binary filled. The same walk records each scalar's byte offset in Run
// and its width; encoding and decoding reach a scalar by that offset,
// with one typed load or store, and use no reflection per cell.
//
// Parsing is strict, because every line comes from the network or from a
// shared directory: exactly the expected number of fields, one space
// apart, no bytes after the last; integers in canonical decimal (digits
// only, no leading zero) within their type's range, so a SchemeKind above
// 255 is an overflow; a float as the decimal of its IEEE bits, so it
// round-trips bit-exact; strings drawn from printable ASCII without the
// space; cached as 0 or 1; a scheme name that resolves to the run's
// scheme kind in this process's roster. A line is at most MaxRecordBytes
// long. Encoding fails, rather than writing a line that would not parse
// back, on a string outside that alphabet or a negative integer.

const (
	// RecordSchema begins every record's schema token; the token adds the
	// hash of Run's layout. The farm sent records before the disk store
	// kept them, hence the name.
	RecordSchema = "shadowbinding-farm/v2"
	// MaxRecordBytes bounds a record line, without its newline. A record
	// is a few hundred bytes, so 1 MiB is headroom, not a constraint.
	MaxRecordBytes = 1 << 20
)

// scalar is how one of Run's scalars is written.
type scalar uint8

const (
	scalarString scalar = iota
	scalarUint          // canonical decimal, at most max
	scalarInt           // canonical decimal, non-negative, at most max
	scalarFloat         // the decimal of its IEEE 754 bits
)

// cellField is one scalar of Run: its path name (Stats' fields are one
// level down), how it is written, the largest value its type holds, and
// where it lies in Run: its byte offset and, for a number, its width in
// bytes (1, 2, 4 or 8).
type cellField struct {
	name  string
	enc   scalar
	max   uint64
	off   uintptr
	width uintptr
}

// bits loads the number f names in the Run at p as an unsigned integer of
// its width: a float as its IEEE bits, and a negative int, whose sign bit
// is set, as a value above f.max.
func (f *cellField) bits(p unsafe.Pointer) uint64 {
	q := unsafe.Add(p, f.off)
	switch f.width {
	case 1:
		return uint64(*(*uint8)(q))
	case 2:
		return uint64(*(*uint16)(q))
	case 4:
		return uint64(*(*uint32)(q))
	}
	return *(*uint64)(q)
}

// setBits stores u, at most f.max, into the number f names in the Run at
// p. An int's u is non-negative, so its low bytes are the int.
func (f *cellField) setBits(p unsafe.Pointer, u uint64) {
	q := unsafe.Add(p, f.off)
	switch f.width {
	case 1:
		*(*uint8)(q) = uint8(u)
	case 2:
		*(*uint16)(q) = uint16(u)
	case 4:
		*(*uint32)(q) = uint32(u)
	default:
		*(*uint64)(q) = u
	}
}

// str is the string f names in the Run at p.
func (f *cellField) str(p unsafe.Pointer) *string {
	return (*string)(unsafe.Add(p, f.off))
}

// cellFields lists Run's scalars in record order; cellSchema is the first
// token of every record.
var cellFields, cellSchema = cellLayout(reflect.TypeFor[Run]())

// cellTokens is the number of fields on a record line.
var cellTokens = 4 + len(cellFields)

// cellLayout flattens t's fields, nested structs in place, into record
// order, with each scalar's offset in t, and names the layout. Offsets and
// widths stay out of the name: they follow from the paths and kinds it
// hashes. A field kind the record cannot carry panics at package
// initialization, so a change to Run that the record does not follow
// fails every test of the package.
func cellLayout(t reflect.Type) ([]cellField, string) {
	var fields []cellField
	var walk func(t reflect.Type, prefix string, base uintptr)
	walk = func(t reflect.Type, prefix string, base uintptr) {
		for i := range t.NumField() {
			f := t.Field(i)
			name := prefix + f.Name
			if !f.IsExported() {
				panic(fmt.Sprintf("harness: cell record: %s.%s is unexported", t, f.Name))
			}
			cf := cellField{name: name, off: base + f.Offset, width: f.Type.Size()}
			switch k := f.Type.Kind(); k {
			case reflect.Struct:
				walk(f.Type, name+".", cf.off)
				continue
			case reflect.String:
				cf.enc = scalarString
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				cf.enc, cf.max = scalarUint, math.MaxUint64>>(64-f.Type.Bits())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				cf.enc, cf.max = scalarInt, math.MaxUint64>>(65-f.Type.Bits())
			case reflect.Float64:
				cf.enc, cf.max = scalarFloat, math.MaxUint64
			default:
				panic(fmt.Sprintf("harness: cell record: %s has kind %s, which the record does not carry", name, k))
			}
			fields = append(fields, cf)
		}
	}
	walk(t, "", 0)
	h := fnv.New32a()
	for _, f := range fields {
		fmt.Fprintf(h, "%s:%d:%d;", f.name, f.enc, f.max)
	}
	return fields, fmt.Sprintf("%s.%08x", RecordSchema, h.Sum32())
}

// RecordString reports whether s may be a string field of a record:
// printable ASCII without the space, which separates fields.
func RecordString[S string | []byte](s S) bool {
	for i := range len(s) {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// AppendRecord appends the record of one cell to b, without its newline.
func AppendRecord(b []byte, key string, r *Run, cached bool) ([]byte, error) {
	scheme := r.Scheme.String()
	if !RecordString(key) || !RecordString(scheme) {
		return b, fmt.Errorf("harness: cell %q: key or scheme %q is not encodable", key, scheme)
	}
	b = append(b, cellSchema...)
	b = append(append(b, ' '), key...)
	b = append(append(b, ' '), scheme...)
	if cached {
		b = append(b, " 1"...)
	} else {
		b = append(b, " 0"...)
	}
	p := unsafe.Pointer(r)
	for i := range cellFields {
		f := &cellFields[i]
		b = append(b, ' ')
		if f.enc == scalarString {
			s := *f.str(p)
			if !RecordString(s) {
				return b, fmt.Errorf("harness: cell %q: %s %q is not encodable", key, f.name, s)
			}
			b = append(b, s...)
			continue
		}
		u := f.bits(p)
		if u > f.max {
			return b, fmt.Errorf("harness: cell %q: %s is negative", key, f.name)
		}
		b = strconv.AppendUint(b, u, 10)
	}
	return b, nil
}

// DecodeRecord parses one record line (without its newline) strictly,
// see above, into the cell it carries.
func DecodeRecord(line []byte) (CellResult, error) {
	if len(line) > MaxRecordBytes {
		return CellResult{}, fmt.Errorf("harness: cell record: %d bytes exceeds %d", len(line), MaxRecordBytes)
	}
	rest, n := line, 0
	next := func() []byte {
		n++
		i := slices.Index(rest, ' ')
		if i < 0 {
			tok := rest
			rest = nil
			return tok
		}
		tok := rest[:i]
		rest = rest[i+1:]
		return tok
	}
	var cell CellResult
	if tok := next(); string(tok) != cellSchema {
		if len(tok) > len(RecordSchema) && string(tok[:len(RecordSchema)+1]) == RecordSchema+"." {
			return CellResult{}, fmt.Errorf("harness: cell record: schema %.40q is another layout of harness.Run than %q (version skew)", tok, cellSchema)
		}
		return CellResult{}, fmt.Errorf("harness: cell record: schema %.40q, want %q", tok, cellSchema)
	}
	key, scheme, cached := next(), next(), next()
	if !RecordString(key) || !RecordString(scheme) {
		return CellResult{}, errors.New("harness: cell record: key or scheme outside the string alphabet")
	}
	cell.Key = string(key)
	switch string(cached) {
	case "0":
	case "1":
		cell.Cached = true
	default:
		return CellResult{}, fmt.Errorf("harness: cell record: cached %.20q is not 0 or 1", cached)
	}
	p := unsafe.Pointer(&cell.Run)
	for i := range cellFields {
		f := &cellFields[i]
		if rest == nil {
			return CellResult{}, fmt.Errorf("harness: cell record: %d fields, want %d", n, cellTokens)
		}
		tok := next()
		if f.enc == scalarString {
			if !RecordString(tok) {
				return CellResult{}, fmt.Errorf("harness: cell record: %s outside the string alphabet", f.name)
			}
			*f.str(p) = string(tok)
			continue
		}
		u, ok := parseDecimal(tok, f.max)
		if !ok {
			return CellResult{}, fmt.Errorf("harness: cell record: %s %.24q is not a decimal of at most %d", f.name, tok, f.max)
		}
		f.setBits(p, u)
	}
	if rest != nil {
		return CellResult{}, fmt.Errorf("harness: cell record: more than %d fields", cellTokens)
	}
	if kind, ok := core.SchemeKindByName(string(scheme)); !ok || kind != cell.Run.Scheme {
		return CellResult{}, fmt.Errorf("harness: cell record: scheme %.40q does not resolve to the run's kind", scheme)
	}
	return cell, nil
}

// ReadRecord reads one record body — a single record line, optionally
// ended by a newline — and decodes it; its key must be key, unless that
// is empty. It reads at most two bytes past MaxRecordBytes, so a longer
// body is refused without being read whole.
func ReadRecord(rd io.Reader, key string) (CellResult, error) {
	line, err := io.ReadAll(io.LimitReader(rd, MaxRecordBytes+2))
	if err != nil {
		return CellResult{}, fmt.Errorf("harness: read cell record: %w", err)
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	cell, err := DecodeRecord(line)
	if err != nil {
		return CellResult{}, err
	}
	if key != "" && cell.Key != key {
		return CellResult{}, fmt.Errorf("harness: cell record key %q does not match requested %q (version skew?)", cell.Key, key)
	}
	return cell, nil
}

// parseDecimal parses a canonical decimal — digits only, no leading zero
// but in "0" itself — of at most max.
func parseDecimal(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 || len(b) > 1 && b[0] == '0' {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || u > (max-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	return u, true
}
