package farm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unsafe"

	"repro/internal/core"
	"repro/internal/harness"
)

// The cell codec. Every cell body the farm sends or accepts — a stream
// line, a GET answer, a PUT body — is one line of space-separated fields:
//
//	<schema> <key> <scheme> <cached> <Run's scalars in declaration order>
//
// The Run's scalars are its fields with Stats flattened in place, so a
// line carries values and no field names. The order is derived from
// harness.Run once, by reflection, and the schema token names it:
// cellSchema is Schema plus a hash of every scalar's path and kind. A
// peer built with another Run layout writes another schema token, which
// this process rejects as layout skew, so counters never land in the
// wrong fields. The same walk records each scalar's byte offset in Run
// and its width; encoding and decoding reach a scalar by that offset, with
// one typed load or store, and use no reflection per cell.
//
// Parsing is strict, because every line comes from the network: exactly
// the expected number of fields, one space apart, no bytes after the last;
// integers in canonical decimal (digits only, no leading zero) within
// their type's range, so a SchemeKind above 255 is an overflow; a float
// as the decimal of its IEEE bits, so it round-trips bit-exact; strings
// drawn from printable ASCII without the space; cached as 0 or 1. A line
// is at most maxBodyBytes long. Encoding fails, rather than writing a line
// that would not parse back, on a string outside that alphabet or a
// negative integer.

// scalar is how one of Run's scalars crosses the wire.
type scalar uint8

const (
	scalarString scalar = iota
	scalarUint          // canonical decimal, at most max
	scalarInt           // canonical decimal, non-negative, at most max
	scalarFloat         // the decimal of its IEEE 754 bits
)

// cellField is one scalar of harness.Run: its path name (Stats' fields
// are one level down), how it is written, the largest value its type
// holds, and where it lies in Run: its byte offset and, for a number, its
// width in bytes (1, 2, 4 or 8).
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

// cellFields lists Run's scalars in wire order; cellSchema is the first
// token of every cell line.
var cellFields, cellSchema = cellLayout(reflect.TypeFor[harness.Run]())

// cellTokens is the number of fields on a cell line.
var cellTokens = 4 + len(cellFields)

// cellLayout flattens t's fields, nested structs in place, into wire
// order, with each scalar's offset in t, and names the layout. Offsets and
// widths stay out of the name: they follow from the paths and kinds it
// hashes. A field kind the codec cannot carry panics at package
// initialization, so a change to Run that the codec does not follow fails
// every test of the package.
func cellLayout(t reflect.Type) ([]cellField, string) {
	var fields []cellField
	var walk func(t reflect.Type, prefix string, base uintptr)
	walk = func(t reflect.Type, prefix string, base uintptr) {
		for i := range t.NumField() {
			f := t.Field(i)
			name := prefix + f.Name
			if !f.IsExported() {
				panic(fmt.Sprintf("farm: cell codec: %s.%s is unexported", t, f.Name))
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
				panic(fmt.Sprintf("farm: cell codec: %s has kind %s, which the codec does not carry", name, k))
			}
			fields = append(fields, cf)
		}
	}
	walk(t, "", 0)
	h := fnv.New32a()
	for _, f := range fields {
		fmt.Fprintf(h, "%s:%d:%d;", f.name, f.enc, f.max)
	}
	return fields, fmt.Sprintf("%s.%08x", Schema, h.Sum32())
}

// cellString reports whether s may be a string field: printable ASCII
// without the space, which separates fields.
func cellString[S string | []byte](s S) bool {
	for i := range len(s) {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// appendCell appends the line of one cell to b, without its newline.
func appendCell(b []byte, key string, r *harness.Run, cached bool) ([]byte, error) {
	scheme := r.Scheme.String()
	if !cellString(key) || !cellString(scheme) {
		return b, fmt.Errorf("farm: cell %q: key or scheme %q is not encodable", key, scheme)
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
			if !cellString(s) {
				return b, fmt.Errorf("farm: cell %q: %s %q is not encodable", key, f.name, s)
			}
			b = append(b, s...)
			continue
		}
		u := f.bits(p)
		if u > f.max {
			return b, fmt.Errorf("farm: cell %q: %s is negative", key, f.name)
		}
		b = strconv.AppendUint(b, u, 10)
	}
	return b, nil
}

// decodeCell parses one cell line (without its newline) strictly, see
// above, and checks its scheme name against this process's roster and the
// run's scheme kind.
func decodeCell(line []byte) (CellEnvelope, error) {
	if len(line) > maxBodyBytes {
		return CellEnvelope{}, fmt.Errorf("farm: cell line: %d bytes exceeds %d", len(line), maxBodyBytes)
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
	env := CellEnvelope{Schema: Schema}
	if tok := next(); string(tok) != cellSchema {
		if len(tok) > len(Schema) && string(tok[:len(Schema)+1]) == Schema+"." {
			return CellEnvelope{}, fmt.Errorf("farm: cell line: schema %.40q is another layout of harness.Run than %q (version skew)", tok, cellSchema)
		}
		return CellEnvelope{}, fmt.Errorf("farm: cell line: schema %.40q, want %q", tok, cellSchema)
	}
	key, scheme, cached := next(), next(), next()
	if !cellString(key) || !cellString(scheme) {
		return CellEnvelope{}, errors.New("farm: cell line: key or scheme outside the string alphabet")
	}
	env.Key = string(key)
	switch string(cached) {
	case "0":
	case "1":
		env.Cached = true
	default:
		return CellEnvelope{}, fmt.Errorf("farm: cell line: cached %.20q is not 0 or 1", cached)
	}
	p := unsafe.Pointer(&env.Run)
	for i := range cellFields {
		f := &cellFields[i]
		if rest == nil {
			return CellEnvelope{}, fmt.Errorf("farm: cell line: %d fields, want %d", n, cellTokens)
		}
		tok := next()
		if f.enc == scalarString {
			if !cellString(tok) {
				return CellEnvelope{}, fmt.Errorf("farm: cell line: %s outside the string alphabet", f.name)
			}
			*f.str(p) = string(tok)
			continue
		}
		u, ok := parseDecimal(tok, f.max)
		if !ok {
			return CellEnvelope{}, fmt.Errorf("farm: cell line: %s %.24q is not a decimal of at most %d", f.name, tok, f.max)
		}
		f.setBits(p, u)
	}
	if rest != nil {
		return CellEnvelope{}, fmt.Errorf("farm: cell line: more than %d fields", cellTokens)
	}
	kind, ok := core.SchemeKindByName(string(scheme))
	if !ok || kind != env.Run.Scheme {
		return CellEnvelope{}, fmt.Errorf("farm: cell scheme %.40q does not resolve to the run's kind", scheme)
	}
	env.Scheme = kind.String()
	return env, nil
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
