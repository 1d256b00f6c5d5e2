package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

// tagState is a copy of a cache's tag array and LRU stamp: everything an
// access or fill can change.
type tagState struct {
	lines []cacheLine
	stamp uint64
}

func tags(c *Cache) tagState { return tagState{slices.Clone(c.lines), c.stamp} }

func (s tagState) equal(o tagState) bool {
	return s.stamp == o.stamp && slices.Equal(s.lines, o.lines)
}

// evicted counts the lines valid in before that no longer sit in their
// way in after: the evictions between the two copies.
func evicted(before, after tagState) int {
	n := 0
	for i, ln := range before.lines {
		if ln.valid() && (!after.lines[i].valid() || after.lines[i].tag != ln.tag) {
			n++
		}
	}
	return n
}

func TestMainReadWrite(t *testing.T) {
	m := NewMain()
	if m.Read(0x100) != 0 {
		t.Error("unwritten memory must read zero")
	}
	m.Write(0x100, 42)
	if m.Read(0x100) != 42 {
		t.Error("read after write")
	}
	m.Write(0x103, 7) // unaligned: same word
	if m.Read(0x100) != 7 {
		t.Error("unaligned write must alias the aligned word")
	}
}

// TestMainResetZeroesRecycledPages: Reset hands its pages to the page
// pool, and a page taken back from it must read as a fresh one. Every word
// of a few pages is dirtied, the memory is Reset, and a partial image is
// written into the same page keys: every word the image leaves alone must
// read 0, and so must a page that was never written.
func TestMainResetZeroesRecycledPages(t *testing.T) {
	const pages = 8
	base := uint64(0x2000_0000)
	pageBytes := uint64(8 * pageWords)
	m := NewMain()
	dirty := make([]uint64, pageWords)
	for i := range dirty {
		dirty[i] = ^uint64(i)
	}
	old := map[*memPage]bool{}
	for p := range uint64(pages) {
		m.WriteRange(base+p*pageBytes, dirty)
		old[m.pages[(base+p*pageBytes)>>pageShift]] = true
	}

	m.Reset()
	image := []uint64{11, 12, 13}
	const at = 100 // first word the image writes, within each page
	recycled := 0
	for p := range uint64(pages) {
		m.WriteRange(base+p*pageBytes+8*at, image)
		if old[m.pages[(base+p*pageBytes)>>pageShift]] {
			recycled++
		}
	}
	for p := range uint64(pages) {
		for w := range uint64(pageWords) {
			want := uint64(0)
			if w >= at && w < at+uint64(len(image)) {
				want = image[w-at]
			}
			if got := m.Read(base + p*pageBytes + 8*w); got != want {
				t.Fatalf("page %d word %d = %#x after Reset and a partial image, want %#x", p, w, got, want)
			}
		}
	}
	if got := m.Read(base + pages*pageBytes); got != 0 {
		t.Errorf("a page never written reads %#x, want 0", got)
	}
	// The pool may drop pages (it does at random under the race
	// detector), so recycling is reported, not required.
	t.Logf("%d of %d pages came back from the pool", recycled, pages)
}

// TestMainFirstDiff: FirstDiff compares two images over the union of
// their pages. Equal images report no difference, whichever side holds
// more pages; a page held by one side only compares as zeros, so an
// all-zero page matches its absence and one non-zero word in it does not;
// and of several differing words, in several pages and either order of
// map iteration, the lowest address is reported, with each side's word.
func TestMainFirstDiff(t *testing.T) {
	pageBytes := uint64(8 * pageWords)
	image := func() *Main {
		m := NewMain()
		m.WriteRange(0x10000, []uint64{1, 2, 3})
		m.WriteRange(0x30000, []uint64{4, 5})
		return m
	}
	a, b := image(), image()
	if addr, _, _, differ := a.FirstDiff(b); differ {
		t.Fatalf("equal images differ at %#x", addr)
	}

	// A page only b holds, all zeros, equals its absence in a.
	b.WriteRange(0x50000, make([]uint64, pageWords))
	for _, pair := range [][2]*Main{{a, b}, {b, a}} {
		if addr, _, _, differ := pair[0].FirstDiff(pair[1]); differ {
			t.Fatalf("an all-zero page differs from a missing one at %#x", addr)
		}
	}
	// One non-zero word in it does not, from either side.
	b.Write(0x50000+8*7, 9)
	if addr, got, want, differ := a.FirstDiff(b); !differ || addr != 0x50000+8*7 || got != 0 || want != 9 {
		t.Errorf("a.FirstDiff(b) = %#x, %d, %d, %v; want 0x50038, 0, 9, true", addr, got, want, differ)
	}
	if addr, got, want, differ := b.FirstDiff(a); !differ || addr != 0x50000+8*7 || got != 9 || want != 0 {
		t.Errorf("b.FirstDiff(a) = %#x, %d, %d, %v; want 0x50038, 9, 0, true", addr, got, want, differ)
	}

	// Differences in several pages, the lowest in a middle page and late
	// in it: the lowest address wins.
	a.Write(0x30000+pageBytes-8, 77)
	a.Write(0x10000+8, 20)
	for range 20 { // map iteration order varies from call to call
		addr, got, want, differ := a.FirstDiff(b)
		if !differ || addr != 0x10008 || got != 20 || want != 2 {
			t.Fatalf("FirstDiff = %#x, %d, %d, %v; want 0x10008, 20, 2, true", addr, got, want, differ)
		}
	}
	a.Write(0x10000+8, 2)
	if addr, got, want, differ := a.FirstDiff(b); !differ || addr != 0x30000+pageBytes-8 || got != 77 || want != 0 {
		t.Errorf("FirstDiff = %#x, %d, %d, %v; want %#x, 77, 0, true", addr, got, want, differ, 0x30000+pageBytes-8)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{Name: "t", SizeKB: 32, Ways: 8, LineB: 64, HitLat: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero", SizeKB: 0, Ways: 1, LineB: 64},
		{Name: "npo2line", SizeKB: 32, Ways: 8, LineB: 48},
		{Name: "npo2sets", SizeKB: 24, Ways: 8, LineB: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %s accepted", c.Name)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1", SizeKB: 1, Ways: 2, LineB: 64, HitLat: 4})
	if _, hit := c.Access(0x1000, 10); hit {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0x1000, 50)
	avail, hit := c.Access(0x1000, 60)
	if !hit {
		t.Fatal("filled line must hit")
	}
	if avail != 64 {
		t.Errorf("hit avail = %d, want 64 (now+HitLat)", avail)
	}
	// Hit-under-fill: access before the fill completes waits for the fill.
	c.Fill(0x2000, 100)
	avail, hit = c.Access(0x2000, 80)
	if !hit || avail != 100 {
		t.Errorf("hit-under-fill avail = %d (hit=%v), want 100", avail, hit)
	}
	// Same line within a set: 0x1040 is a different line.
	if c.Contains(0x1040) {
		t.Error("adjacent line must not be resident")
	}
	if !c.Contains(0x1000) || !c.Contains(0x103f) {
		t.Error("all bytes of a resident line must probe as present")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 64B lines, 1KB => 8 sets. Addresses 64*8 apart share a set.
	c := NewCache(CacheConfig{Name: "L1", SizeKB: 1, Ways: 2, LineB: 64, HitLat: 1})
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Fill(a, 0)
	c.Fill(b, 0)
	c.Access(a, 10) // a is now MRU
	before := tags(c)
	c.Fill(d, 20) // must evict b
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line not evicted")
	}
	if !c.Contains(d) {
		t.Error("filled line missing")
	}
	if n := evicted(before, tags(c)); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1", SizeKB: 1, Ways: 2, LineB: 64, HitLat: 1})
	c.Fill(0x40, 0)
	c.Fill(0x80, 0)
	c.InvalidateLine(0x40)
	if c.Contains(0x40) || !c.Contains(0x80) {
		t.Error("InvalidateLine wrong line")
	}
	c.InvalidateAll()
	if c.Contains(0x80) {
		t.Error("InvalidateAll left residue")
	}
}

// TestCacheRefillsInvalidatedWay: a way freed by InvalidateLine is the
// next fill's victim even when it is not the LRU way, so no valid line is
// evicted and the refill does not count as an eviction. An invalid way is
// encoded as lastUse == 0; this pins that encoding to Fill's victim choice.
func TestCacheRefillsInvalidatedWay(t *testing.T) {
	// 2 ways, 64B lines, 1KB => 8 sets. Addresses 64*8 apart share a set.
	c := NewCache(CacheConfig{Name: "L1", SizeKB: 1, Ways: 2, LineB: 64, HitLat: 1})
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Fill(a, 0)
	c.Fill(b, 0)
	c.InvalidateLine(b) // frees the MRU way; a stays LRU
	before := tags(c)
	c.Fill(d, 20)
	if !c.Contains(a) || !c.Contains(d) {
		t.Errorf("refill evicted a valid way: a=%v d=%v", c.Contains(a), c.Contains(d))
	}
	if c.Contains(b) {
		t.Error("invalidated line resident again")
	}
	if n := evicted(before, tags(c)); n != 0 {
		t.Errorf("evictions = %d, want 0 (the refill took a free way)", n)
	}
	// The set is full again: the next fill evicts the true LRU, a.
	before = tags(c)
	c.Fill(b, 30)
	if c.Contains(a) || !c.Contains(d) || !c.Contains(b) {
		t.Error("full set did not evict its LRU way")
	}
	if n := evicted(before, tags(c)); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
}

// TestNewHierarchyAllocs: each cache's tag array is one flat allocation,
// so building the default hierarchy costs a handful of allocations
// regardless of set count (a slice per set made the 1024-set L2 alone
// cost over a thousand).
func TestNewHierarchyAllocs(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	allocs := testing.AllocsPerRun(10, func() { NewHierarchy(cfg) })
	if allocs > 8 {
		t.Errorf("NewHierarchy made %.0f allocations, want at most 8", allocs)
	}
}

func TestStridePrefetcherDetectsStride(t *testing.T) {
	p := NewStridePrefetcher(64, 2, 2)
	pc := uint64(0x400)
	var got []uint64
	for i := uint64(0); i < 6; i++ {
		got = p.Train(pc, 0x1000+i*64)
	}
	if len(got) != 2 {
		t.Fatalf("prefetches = %v, want 2 addresses", got)
	}
	last := uint64(0x1000 + 5*64)
	if got[0] != last+64 || got[1] != last+128 {
		t.Errorf("prefetch targets %v, want next two lines", got)
	}
}

func TestStridePrefetcherNoiseResistance(t *testing.T) {
	p := NewStridePrefetcher(64, 2, 2)
	pc := uint64(0x400)
	addrs := []uint64{0x1000, 0x9000, 0x1040, 0x22000, 0x1080}
	for _, a := range addrs {
		if got := p.Train(pc, a); len(got) != 0 {
			t.Errorf("prefetched %v on random pattern", got)
		}
	}
}

func TestStridePrefetcherZeroStride(t *testing.T) {
	p := NewStridePrefetcher(64, 1, 2)
	pc := uint64(0x10)
	for i := 0; i < 5; i++ {
		if got := p.Train(pc, 0x1000); len(got) != 0 {
			t.Errorf("zero stride must not prefetch, got %v", got)
		}
	}
}

func TestHierarchyLoadPath(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchTable = 0 // isolate the demand path
	h := NewHierarchy(cfg)

	// Cold load: L1 miss, L2 miss, DRAM.
	done, hitL1, ok := h.Load(0, 0x1000, 100)
	if !ok || hitL1 {
		t.Fatalf("cold load: ok=%v hitL1=%v", ok, hitL1)
	}
	wantDRAM := uint64(100) + cfg.L1D.HitLat + cfg.L2.HitLat + cfg.MemLat + cfg.L1D.FillLat
	if done != wantDRAM {
		t.Errorf("DRAM load done = %d, want %d", done, wantDRAM)
	}

	// Re-access after the fill completes: L1 hit.
	done2, hitL1, ok := h.Load(0, 0x1008, wantDRAM+10)
	if !ok || !hitL1 {
		t.Fatalf("warm load should hit L1")
	}
	if done2 != wantDRAM+10+cfg.L1D.HitLat {
		t.Errorf("L1 hit done = %d", done2)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchTable = 0
	h := NewHierarchy(cfg)
	h.Load(0, 0x1000, 0) // brings into L1+L2
	h.L1D().InvalidateAll()
	done, hitL1, ok := h.Load(0, 0x1000, 1000)
	if !ok || hitL1 {
		t.Fatalf("expected L1 miss after invalidate")
	}
	want := uint64(1000) + cfg.L1D.HitLat + cfg.L2.HitLat + cfg.L1D.FillLat
	if done != want {
		t.Errorf("L2 hit done = %d, want %d", done, want)
	}
}

func TestHierarchyMSHRLimit(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchTable = 0
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	if _, _, ok := h.Load(0, 0x10000, 0); !ok {
		t.Fatal("first miss rejected")
	}
	if _, _, ok := h.Load(0, 0x20000, 0); !ok {
		t.Fatal("second miss rejected")
	}
	if _, _, ok := h.Load(0, 0x30000, 0); ok {
		t.Fatal("third concurrent miss must be rejected (MSHRs full)")
	}
	// The rejected miss left no trace: no fill, no MSHR.
	if h.Contains(0x30000) || h.OutstandingMisses(0) != 2 {
		t.Errorf("rejected miss changed state: resident=%v mshrs=%d", h.Contains(0x30000), h.OutstandingMisses(0))
	}
	// Miss to an already-outstanding line merges instead of rejecting.
	if _, _, ok := h.Load(0, 0x10008, 0); !ok {
		t.Fatal("merged miss must be accepted")
	}
	// After the misses complete, capacity frees up.
	if _, _, ok := h.Load(0, 0x30000, 10_000); !ok {
		t.Fatal("miss after drain rejected")
	}
}

func TestHierarchyPrefetchHidesLatency(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	pc := uint64(0x44)
	now := uint64(0)
	var lastDone uint64
	// Stream through 32 consecutive lines; by the tail of the stream the
	// prefetcher should be covering misses.
	var coldLat, tailLat uint64
	for i := uint64(0); i < 32; i++ {
		done, _, ok := h.Load(pc, 0x100000+i*64, now)
		if !ok {
			// MSHR pressure: skip forward.
			now += 10
			done, _, _ = h.Load(pc, 0x100000+i*64, now)
		}
		if i == 0 {
			coldLat = done - now
		}
		if i == 31 {
			tailLat = done - now
		}
		lastDone = done
		now = done + 1
	}
	_ = lastDone
	// Only a prefetch can have filled the line past the stream's end.
	if !h.L1D().Contains(0x100000 + 32*64) {
		t.Fatal("prefetcher issued nothing on a streaming pattern")
	}
	if tailLat >= coldLat {
		t.Errorf("prefetching did not reduce latency: cold %d, tail %d", coldLat, tailLat)
	}
}

func TestHierarchyStoreAllocates(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchTable = 0
	h := NewHierarchy(cfg)
	h.Store(0x5000, 0)
	if !h.Contains(0x5000) {
		t.Error("store must allocate the line")
	}
	done, hitL1, ok := h.Load(0, 0x5000, 1000)
	if !ok || !hitL1 {
		t.Errorf("load after store: done=%d hit=%v", done, hitL1)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Load(0, 0x9000, 0)
	h.FlushLine(0x9000)
	if h.Contains(0x9000) {
		t.Error("FlushLine left the line resident")
	}
	h.Load(0, 0xA000, 0)
	h.FlushAll()
	if h.Contains(0xA000) {
		t.Error("FlushAll left residue")
	}
}

// Property: a load is always available no earlier than now+L1 hit latency,
// and hits never take longer than the full DRAM path.
func TestHierarchyLatencyBounds(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	maxLat := cfg.L1D.HitLat + cfg.L2.HitLat + cfg.MemLat + cfg.L1D.FillLat
	f := func(addrSeed uint16, pcSeed uint8) bool {
		addr := 0x1000 + uint64(addrSeed)*8
		now := uint64(50_000) // past any pending fills from earlier iterations
		done, _, ok := h.Load(uint64(pcSeed), addr, now)
		if !ok {
			return true // MSHR-full is a legal outcome
		}
		return done >= now+cfg.L1D.HitLat && done <= now+maxLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyPeekMatchesLoad: Peek's verdict and timing must agree with
// an immediately following Load at every residency state — the contract
// the DoM and InvisiSpec load policies rest on.
func TestHierarchyPeekMatchesLoad(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchTable = 0
	h := NewHierarchy(cfg)

	check := func(name string, addr, now uint64) {
		t.Helper()
		peekDone, peekHit := h.Peek(addr, now)
		done, hit, ok := h.Load(0, addr, now)
		if !ok {
			t.Fatalf("%s: load rejected", name)
		}
		if peekHit != hit || peekDone != done {
			t.Errorf("%s: Peek = (%d, %v), Load = (%d, %v)", name, peekDone, peekHit, done, hit)
		}
	}

	check("cold (DRAM)", 0x1000, 100)
	check("hit under fill", 0x1000, 150) // fill in flight: hit at fill time
	check("warm L1 hit", 0x1000, 1000)
	h.L1D().InvalidateAll()
	check("L2 hit", 0x1000, 2000)
}

// TestHierarchyPeekIsSideEffectFree: Peek must not touch MSHRs, stats,
// residency, or LRU state — a delayed speculative miss probes the tags
// every attempt and must leave no trace an attacker could time.
func TestHierarchyPeekIsSideEffectFree(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchTable = 0
	h := NewHierarchy(cfg)
	h.Load(0, 0x9000, 0) // resident state for Peek to leave alone
	l1, l2 := tags(h.l1d), tags(h.l2)
	inFlight := h.OutstandingMisses(10) // the warm-up miss

	if _, hit := h.Peek(0x5000, 10); hit {
		t.Fatal("cold Peek reported a hit")
	}
	if got := h.OutstandingMisses(10); got != inFlight {
		t.Errorf("cold Peek allocated an MSHR: %d outstanding, want %d", got, inFlight)
	}
	if _, hit := h.Peek(0x9000, 500); !hit {
		t.Fatal("Peek missed a resident line")
	}
	if h.OutstandingMisses(500) != 0 {
		t.Error("resident Peek allocated an MSHR")
	}
	if h.Contains(0x5000) {
		t.Error("Peek installed the line")
	}
	if !tags(h.l1d).equal(l1) || !tags(h.l2).equal(l2) {
		t.Error("Peek changed a tag array or LRU stamp")
	}

	// LRU neutrality: fill a set to capacity, Peek one line many times,
	// then force an eviction — the peeked line must still be the LRU
	// victim (Peek must not refresh lastUse).
	small := HierarchyConfig{
		L1D:    CacheConfig{Name: "L1D", SizeKB: 1, Ways: 2, LineB: 64, HitLat: 1, FillLat: 1},
		L2:     CacheConfig{Name: "L2", SizeKB: 4, Ways: 2, LineB: 64, HitLat: 2, FillLat: 1},
		MemLat: 10, MSHRs: 4,
	}
	hs := NewHierarchy(small)
	setStride := uint64(small.L1D.SizeKB) * 1024 / uint64(small.L1D.Ways) // lines mapping to set 0
	a, b, c := uint64(0), setStride, 2*setStride
	hs.Load(0, a, 0)
	hs.Load(0, b, 100) // set full; a is LRU
	for i := uint64(0); i < 8; i++ {
		hs.Peek(a, 200+i)
	}
	hs.Load(0, c, 300) // evicts the true LRU
	if hs.L1D().Contains(a) {
		t.Error("peeked line survived eviction: Peek refreshed LRU state")
	}
	if !hs.L1D().Contains(b) {
		t.Error("wrong victim evicted")
	}
}
