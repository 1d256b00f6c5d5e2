package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func fingerprintProfile(t *testing.T) workloads.Profile {
	t.Helper()
	p, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCellFingerprintStability pins the key derivation: fingerprints must
// be reproducible across processes (they address on-disk cache entries),
// insensitive to the Options fields that cannot change results, and
// sensitive to everything that can.
func TestCellFingerprintStability(t *testing.T) {
	prof := fingerprintProfile(t)
	opts := DefaultOptions()
	key := CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, opts)

	// Pinned literal: a silent change to the derivation (field order,
	// hash truncation, canonicalization) would orphan every persisted
	// cache entry; this test makes that loud. Regenerate the literal when
	// the derivation changes intentionally.
	const want = "6e16ba941e130d4c68002e6de75f99e1"
	if key != want {
		t.Errorf("fingerprint drifted: got %s, want %s (intentional changes must update this literal)", key, want)
	}

	// Result-neutral knobs must not change the key.
	neutral := opts
	neutral.Parallelism = 7
	neutral.Progress = func(string, ...any) {}
	if got := CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, neutral); got != key {
		t.Error("Parallelism/Progress changed the fingerprint")
	}
	scale0, scale1 := opts, opts
	scale0.Scale, scale1.Scale = 0, 1
	if CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, scale0) !=
		CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, scale1) {
		t.Error("Scale 0 and 1 must fingerprint identically (RunOne clamps)")
	}

	// Result-affecting inputs must each change the key.
	variants := map[string]string{}
	add := func(name, k string) {
		if k == key {
			t.Errorf("%s: variant kept the base fingerprint", name)
		}
		if prev, ok := variants[k]; ok {
			t.Errorf("%s and %s collide", name, prev)
		}
		variants[k] = name
	}
	add("version", CellFingerprint("test/v2", core.MegaConfig(), core.KindBaseline, prof, opts))
	add("config", CellFingerprint("test/v1", core.SmallConfig(), core.KindBaseline, prof, opts))
	add("scheme", CellFingerprint("test/v1", core.MegaConfig(), core.KindNDA, prof, opts))
	warm := opts
	warm.WarmupCycles++
	add("warmup", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, warm))
	meas := opts
	meas.MeasureCycles++
	add("measure", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, meas))
	sc := opts
	sc.Scale = 2
	add("scale", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, sc))
	other := prof
	other.Iters++
	add("profile", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, other, opts))
}

func fakeRun(bench string, kind core.SchemeKind, cycles uint64) Run {
	return Run{
		Bench: bench, Config: "mega", Scheme: kind,
		Cycles: cycles, Insts: 2 * cycles, IPC: 2,
		TotalCycles: cycles + 1000,
	}
}

func TestMemoryCacheLRU(t *testing.T) {
	c := NewMemoryCache(2)
	mustPut := func(key string, r Run) {
		t.Helper()
		if err := c.Put(key, r); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("a", fakeRun("a", core.KindBaseline, 1))
	mustPut("b", fakeRun("b", core.KindBaseline, 2))
	if _, ok, _ := c.Get("a"); !ok { // bumps a over b
		t.Fatal("a missing")
	}
	mustPut("c", fakeRun("c", core.KindBaseline, 3)) // evicts b (LRU)
	if _, ok, _ := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok, _ := c.Get(key); !ok {
			t.Errorf("%s should have survived", key)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// Refreshing an existing key must not grow the cache.
	mustPut("a", fakeRun("a", core.KindBaseline, 9))
	if c.Len() != 2 {
		t.Errorf("Len after refresh = %d, want 2", c.Len())
	}
	if r, ok, _ := c.Get("a"); !ok || r.Cycles != 9 {
		t.Errorf("refreshed entry = %+v, %v", r, ok)
	}
}

// TestDiskCacheRoundTrip: entries must survive a new DiskCache instance
// (the cross-process path behind -cache), and corrupt, mislabeled, or
// stale-scheme entries must read as misses, never as wrong results.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fakeRun("505.mcf", core.KindNDA, 8000)
	if err := c1.Put("key1", want); err != nil {
		t.Fatal(err)
	}

	c2, err := NewDiskCache(dir) // fresh instance = fresh process
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c2.Get("key1")
	if err != nil || !ok {
		t.Fatalf("Get = ok %v, err %v", ok, err)
	}
	if got != want {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if _, ok, err := c2.Get("missing"); ok || err != nil {
		t.Errorf("missing key: ok %v, err %v", ok, err)
	}

	// Corrupt entry: miss with a reported error.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c2.Get("bad"); ok || err == nil {
		t.Errorf("corrupt entry: ok %v, err %v; want miss with error", ok, err)
	}

	// An entry renamed to the wrong key must miss (content-addressing).
	if err := os.Rename(filepath.Join(dir, "key1.json"), filepath.Join(dir, "key2.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("key2"); ok {
		t.Error("entry under a foreign key must miss")
	}

	// A stale scheme label (name no longer resolving to the run's kind)
	// must miss instead of mislabeling the result.
	stale := fakeRun("505.mcf", core.KindSTTIssue, 8000)
	if err := c1.Put("key3", stale); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "key3.json"))
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), " key3 stt-issue ", " key3 nda ", 1)
	if mangled == string(data) {
		t.Fatal("test setup: scheme label not found in entry")
	}
	if err := os.WriteFile(filepath.Join(dir, "key3.json"), []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("key3"); ok {
		t.Error("entry with a mismatched scheme label must miss")
	}
}

// TestTieredCacheBackfill: a hit in a slower layer must be promoted into
// the faster ones.
func TestTieredCacheBackfill(t *testing.T) {
	mem := NewMemoryCache(8)
	disk, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredCache(mem, disk)

	want := fakeRun("525.x264", core.KindBaseline, 4000)
	if err := disk.Put("k", want); err != nil { // disk only: simulates a cold process
		t.Fatal(err)
	}
	if got, ok, err := tiered.Get("k"); !ok || err != nil || got != want {
		t.Fatalf("tiered Get = %+v, %v, %v", got, ok, err)
	}
	if got, ok, _ := mem.Get("k"); !ok || got != want {
		t.Error("hit was not promoted into the memory layer")
	}

	// Put writes through all layers.
	w2 := fakeRun("505.mcf", core.KindNDA, 5000)
	if err := tiered.Put("k2", w2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.Get("k2"); !ok {
		t.Error("write-through missed the memory layer")
	}
	if _, ok, _ := disk.Get("k2"); !ok {
		t.Error("write-through missed the disk layer")
	}
}

// TestDiskCacheRefusesUnsafeKeys: a key that would name a file outside the
// store is a miss on Get and an error on Put — never a read or write of a
// neighbouring file.
func TestDiskCacheRefusesUnsafeKeys(t *testing.T) {
	root := t.TempDir()
	c, err := NewDiskCache(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(root, "secret.json")
	if err := os.WriteFile(secret, []byte("not a cell"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../secret", "a/b", `a\b`, ".."} {
		if _, ok, err := c.Get(key); ok || err != nil {
			t.Errorf("Get(%q): ok=%v err=%v, want a clean miss", key, ok, err)
		}
		if err := c.Put(key, Run{}); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
	}
	if data, err := os.ReadFile(secret); err != nil || string(data) != "not a cell" {
		t.Fatalf("file outside the store touched: %q, %v", data, err)
	}
}

// FuzzDiskCacheGet: whatever bytes sit in a store file — the store is a
// shared directory any process can write — Get must not panic, and an
// entry it accepts must be exactly the record Put writes for the run it
// read: Put back under the same key in a fresh store, it is the same file
// byte for byte, and reads back as an equal Run.
func FuzzDiskCacheGet(f *testing.F) {
	const key = "fuzzkey"
	seed, err := NewDiskCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(key, fakeRun("505.mcf", core.KindSTTIssue, 8000)); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(good),
		strings.Replace(string(good), " stt-issue ", " nda ", 1),
		strings.Replace(string(good), " fuzzkey ", " key2 ", 1),
		strings.Replace(string(good), cellSchema, RecordSchema+".00000000", 1),
		"{nope",
		"not a cell",
		"",
		oldJSONEntry,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		run, ok, err := c.Get(key)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("hit reported an error: %v", err)
		}
		fresh, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Put(key, run); err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		written, err := os.ReadFile(fresh.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSuffix(data, []byte("\n")), bytes.TrimSuffix(written, []byte("\n"))) {
			t.Fatalf("accepted entry is not the record Put writes for its run:\n%q\n%q", data, written)
		}
		again, ok, err := fresh.Get(key)
		if !ok || err != nil || again != run {
			t.Fatalf("round trip: ok=%v err=%v\ngot  %+v\nwant %+v", ok, err, again, run)
		}
	})
}

// oldJSONEntry is a cell entry as stores held it before the record: an
// indented shadowbinding-cell/v1 JSON document whose missing counters a
// lenient decoder read as zero.
const oldJSONEntry = `{
  "schema": "shadowbinding-cell/v1",
  "key": "oldkey",
  "scheme": "nda",
  "run": {
    "Bench": "505.mcf",
    "Config": "mega",
    "Scheme": 3,
    "Cycles": 8000,
    "Instructions": 16000,
    "IPC": 2,
    "TotalCycles": 9000
  }
}
`

// editedToken is the schema token a process would write whose Run had the
// fields at the paths in edits renamed to the names they map to, or
// dropped where the name is empty.
func editedToken(t *testing.T, edits map[string]string) string {
	t.Helper()
	var edit func(typ reflect.Type, prefix string) reflect.Type
	edit = func(typ reflect.Type, prefix string) reflect.Type {
		var fields []reflect.StructField
		for i := range typ.NumField() {
			f := typ.Field(i)
			path := prefix + f.Name
			if name, ok := edits[path]; ok {
				if name == "" {
					continue
				}
				f.Name = name
			}
			if f.Type.Kind() == reflect.Struct {
				f.Type = edit(f.Type, path+".")
			}
			fields = append(fields, f)
		}
		return reflect.StructOf(fields)
	}
	_, token := cellLayout(edit(reflect.TypeFor[Run](), ""))
	if token == cellSchema {
		t.Fatalf("edits %v leave the layout token %s unchanged", edits, token)
	}
	return token
}

// withoutField returns line with field i removed.
func withoutField(line string, i int) string {
	f := strings.Split(line, " ")
	return strings.Join(append(f[:i], f[i+1:]...), " ")
}

// TestDiskCacheRefusesEditedRecords: every edit of a store entry is a
// miss, never a run with counters in the wrong fields or at zero; an
// edited field is reported with the parse error. An entry from before the
// record is a miss that the next Put replaces.
func TestDiskCacheRefusesEditedRecords(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := sampleRun()
	good := cellLine(t, testKey, run, false)
	insts, mispredicts := fieldAt(t, "Insts"), fieldAt(t, "Stats.Mispredicts")
	for _, tc := range []struct{ name, entry string }{
		{"renamed field", withField(good, 0, editedToken(t, map[string]string{"Insts": "Instructions"}))},
		{"renamed and dropped Stats fields", withoutField(withField(good, 0,
			editedToken(t, map[string]string{"Stats.Committed": "Retired", "Stats.Mispredicts": ""})), mispredicts)},
		{"missing field", withoutField(good, insts)},
		{"extra field", withField(good, insts, "7 7")},
		{"foreign layout token", withField(good, 0, RecordSchema+".00000000")},
		{"key mismatch", cellLine(t, "ffeeddccbbaa99887766554433221100", run, false)},
		{"scheme mismatch", withField(good, 2, "stt-issue")},
		{"old JSON entry", oldJSONEntry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(c.path(testKey), []byte(tc.entry+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := c.Get(testKey); ok || err == nil {
				t.Errorf("ok=%v err=%v run=%+v; want a miss with the parse error", ok, err, got)
			}
		})
	}
	if err := c.Put(testKey, run); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get(testKey); !ok || err != nil || got != run {
		t.Fatalf("after Put over the old entry: ok=%v err=%v\ngot  %+v\nwant %+v", ok, err, got, run)
	}
}

// TestDiskCacheReadIsBounded: a store file holding a record at the bound
// is a hit, and one a byte longer is a miss with an error.
func TestDiskCacheReadIsBounded(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := sampleRun()
	line := cellLine(t, testKey, r, false)
	r.Bench += strings.Repeat("x", MaxRecordBytes-len(line))
	if line = cellLine(t, testKey, r, false); len(line) != MaxRecordBytes {
		t.Fatalf("test setup: a %d-byte record", len(line))
	}
	if err := os.WriteFile(c.path(testKey), []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get(testKey); !ok || err != nil || got != r {
		t.Fatalf("a record at the bound: ok=%v err=%v", ok, err)
	}
	r.Bench += "x"
	if err := os.WriteFile(c.path(testKey), []byte(cellLine(t, testKey, r, false)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(testKey); ok || err == nil {
		t.Fatalf("a record one byte over the bound: ok=%v err=%v; want a miss with an error", ok, err)
	}
}

// TestDiskCacheUnencodableNames: a benchmark whose name a record cannot
// carry (it holds a space) is simulated and rendered exactly as without a
// cache; each store write fails with the engine's cell cache write
// warning, and nothing fails the run.
func TestDiskCacheUnencodableNames(t *testing.T) {
	bench := sessionBenches(t, "505.mcf")[0]
	bench.Name = "505 mcf"
	spec := MatrixSpec{
		Name:    "spaced",
		Configs: []core.Config{core.SmallConfig()},
		Schemes: []core.SchemeKind{core.KindBaseline, core.KindNDA},
		Benches: []workloads.Profile{bench},
	}
	render := func(cache CellCache, progress func(string, ...any)) (string, SessionStats) {
		t.Helper()
		opts := sessionOptions()
		opts.Progress = progress
		s := NewSession(SessionConfig{Options: opts, Cache: cache})
		m, err := s.Matrix(context.Background(), spec)
		if err != nil {
			t.Fatalf("matrix: %v", err)
		}
		var b strings.Builder
		for _, kind := range spec.Schemes {
			cell, ok := m.Cell(core.SmallConfig().Name, kind)
			if !ok {
				t.Fatalf("no %s cell", kind)
			}
			fmt.Fprintf(&b, "%s %v %+v\n", kind, cell.MeanIPC, cell.Runs)
		}
		return b.String(), s.Stats()
	}
	want, _ := render(nil, nil)
	disk, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // workers report progress concurrently
	var warnings []string
	got, st := render(disk, func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "cell cache write") {
			mu.Lock()
			warnings = append(warnings, line)
			mu.Unlock()
		}
	})
	if got != want {
		t.Errorf("over the store:\n%s\nwant\n%s", got, want)
	}
	if len(warnings) != len(spec.Schemes) || st.Simulated != len(spec.Schemes) {
		t.Errorf("%d cell cache write warnings, %+v; want one a cell, every cell simulated:\n%s",
			len(warnings), st, strings.Join(warnings, "\n"))
	}
}
