package harness

import (
	"os"
	"path/filepath"
	"strings"
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
	const want = "3187ab36d0c122b72f229ba777c2bf91"
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
	mangled := strings.Replace(string(data), `"scheme": "stt-issue"`, `"scheme": "nda"`, 1)
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
// entry it accepts must round-trip: Put back under the same key in a fresh
// store, it reads back as an equal Run.
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
		strings.Replace(string(good), `"scheme": "stt-issue"`, `"scheme": "nda"`, 1),
		strings.Replace(string(good), `"key": "fuzzkey"`, `"key": "key2"`, 1),
		strings.Replace(string(good), CellSchema, "shadowbinding-cell/v0", 1),
		"{nope",
		"not a cell",
		"",
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
		again, ok, err := fresh.Get(key)
		if !ok || err != nil || again != run {
			t.Fatalf("round trip: ok=%v err=%v\ngot  %+v\nwant %+v", ok, err, again, run)
		}
	})
}
