package mem

// HierarchyConfig describes the full data-memory system.
type HierarchyConfig struct {
	L1D    CacheConfig
	L2     CacheConfig
	MemLat uint64 // DRAM access latency beyond the L2
	MSHRs  int    // outstanding L1 demand misses

	PrefetchTable  int
	PrefetchConf   int
	PrefetchDegree int
}

// DefaultHierarchyConfig returns a BOOM-like memory system: 32 KiB 8-way
// L1D with a 4-cycle hit, 512 KiB 8-way L2 with a 14-cycle hit beyond the
// L1, and ~90 cycles to DRAM. Stride prefetchers train at the L1D.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:            CacheConfig{Name: "L1D", SizeKB: 32, Ways: 8, LineB: 64, HitLat: 4, FillLat: 2},
		L2:             CacheConfig{Name: "L2", SizeKB: 512, Ways: 8, LineB: 64, HitLat: 14, FillLat: 4},
		MemLat:         90,
		MSHRs:          8,
		PrefetchTable:  256,
		PrefetchConf:   2,
		PrefetchDegree: 2,
	}
}

// Gem5HierarchyConfig returns the idealized memory system that Section 9.5
// criticizes in earlier gem5-based evaluations: a single-cycle L1 hit and a
// generous MSHR pool, which understates the cost of delaying loads.
func Gem5HierarchyConfig() HierarchyConfig {
	c := DefaultHierarchyConfig()
	c.L1D.HitLat = 1
	c.L2.HitLat = 10
	c.MemLat = 70
	c.MSHRs = 16
	return c
}

// Hierarchy is the data-memory timing front door used by the LSU.
type Hierarchy struct {
	cfg HierarchyConfig
	l1d *Cache
	l2  *Cache
	pf  *StridePrefetcher

	mshrs []mshr
	// mshrMinDone is the earliest completion among live MSHRs; expiry
	// skips the filter entirely until that cycle arrives, instead of
	// re-filtering the slice on every access.
	mshrMinDone uint64
}

type mshr struct {
	line uint64
	done uint64
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1d: NewCache(cfg.L1D),
		l2:  NewCache(cfg.L2),
	}
	if cfg.PrefetchTable > 0 {
		h.pf = NewStridePrefetcher(cfg.PrefetchTable, cfg.PrefetchConf, cfg.PrefetchDegree)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1D exposes the first-level cache (side-channel probes).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

func (h *Hierarchy) expire(now uint64) {
	if len(h.mshrs) == 0 || now < h.mshrMinDone {
		return // nothing can have completed yet
	}
	live := h.mshrs[:0]
	minDone := ^uint64(0)
	for _, m := range h.mshrs {
		if m.done > now {
			live = append(live, m)
			if m.done < minDone {
				minDone = m.done
			}
		}
	}
	h.mshrs = live
	h.mshrMinDone = minDone
}

// Load performs a demand load access for the load at pc to addr at cycle
// now. It returns the cycle the data is available and whether the access
// was accepted; a false return means all MSHRs are busy and the LSU must
// retry. hitL1 reports whether the access hit in the L1 (used by the
// speculative-wakeup scheduler).
func (h *Hierarchy) Load(pc, addr, now uint64) (done uint64, hitL1, accepted bool) {
	line := h.l1d.LineAddr(addr)
	h.expire(now)

	// A line with an in-flight fill (from a prior miss or a prefetch) is a
	// hit whose data arrives when the fill completes.
	if present, _ := h.l1d.Lookup(line); !present {
		// True miss: needs an MSHR unless one is already allocated for this
		// line (miss merge).
		merged := false
		for _, m := range h.mshrs {
			if m.line == line {
				merged = true
				break
			}
		}
		if !merged && len(h.mshrs) >= h.cfg.MSHRs {
			return 0, false, false
		}
	}

	avail, hit := h.l1d.Access(line, now)
	if hit {
		h.train(pc, line, now)
		return avail, true, true
	}

	// L1 miss: probe the L2.
	l2Start := now + h.cfg.L1D.HitLat
	l2Avail, l2Hit := h.l2.Access(line, l2Start)
	if !l2Hit {
		l2Avail = l2Start + h.cfg.L2.HitLat + h.cfg.MemLat
		h.l2.Fill(line, l2Avail)
	}
	done = l2Avail + h.cfg.L1D.FillLat
	h.l1d.Fill(line, done)
	h.mshrs = append(h.mshrs, mshr{line: line, done: done})
	if len(h.mshrs) == 1 || done < h.mshrMinDone {
		h.mshrMinDone = done
	}
	h.train(pc, line, now)
	return done, false, true
}

// Peek computes the completion cycle a demand load to addr would see if it
// accessed the hierarchy at cycle now, and whether it would hit in the L1,
// WITHOUT perturbing any state: no MSHR allocation, no fills, no LRU
// update, no prefetcher training. It is the hit/miss
// disambiguation hook behind the delay-on-miss and invisible-load secure
// schemes (internal/core): DoM consults it to decide whether a speculative
// load may proceed (L1 hit) or must wait for the visibility point (miss),
// and InvisiSpec uses the returned latency to time an access that goes to
// a speculative buffer instead of the cache. A line with an in-flight fill
// counts as a hit whose data arrives when the fill completes, mirroring
// Load's hit-under-fill behaviour, so Peek(…) and an immediately following
// Load(…) agree on both verdict and timing.
func (h *Hierarchy) Peek(addr, now uint64) (done uint64, hitL1 bool) {
	line := h.l1d.LineAddr(addr)
	if present, availAt := h.l1d.Lookup(line); present {
		done = now + h.cfg.L1D.HitLat
		if availAt > done {
			done = availAt
		}
		return done, true
	}
	l2Start := now + h.cfg.L1D.HitLat
	if present, availAt := h.l2.Lookup(line); present {
		done = l2Start + h.cfg.L2.HitLat
		if availAt > done {
			done = availAt
		}
	} else {
		done = l2Start + h.cfg.L2.HitLat + h.cfg.MemLat
	}
	return done + h.cfg.L1D.FillLat, false
}

// Store performs the commit-time cache write for a store to addr at cycle
// now, returning when the write completes. Stores drain from a post-commit
// store buffer, so the latency rarely stalls the core; write misses
// allocate without consuming load MSHRs.
func (h *Hierarchy) Store(addr, now uint64) (done uint64) {
	line := h.l1d.LineAddr(addr)
	avail, hit := h.l1d.Access(line, now)
	if hit {
		return avail
	}
	l2Start := now + h.cfg.L1D.HitLat
	l2Avail, l2Hit := h.l2.Access(line, l2Start)
	if !l2Hit {
		l2Avail = l2Start + h.cfg.L2.HitLat + h.cfg.MemLat
		h.l2.Fill(line, l2Avail)
	}
	done = l2Avail + h.cfg.L1D.FillLat
	h.l1d.Fill(line, done)
	return done
}

func (h *Hierarchy) train(pc, line, now uint64) {
	if h.pf == nil {
		return
	}
	for _, target := range h.pf.Train(pc, line) {
		tl := h.l1d.LineAddr(target)
		if present, _ := h.l1d.Lookup(tl); present {
			continue
		}
		// Prefetches fill both levels; their latency depends on where the
		// line currently lives.
		var fillDone uint64
		if present, availAt := h.l2.Lookup(tl); present {
			fillDone = now + h.cfg.L1D.HitLat + h.cfg.L2.HitLat
			if availAt > fillDone {
				fillDone = availAt
			}
		} else {
			fillDone = now + h.cfg.L1D.HitLat + h.cfg.L2.HitLat + h.cfg.MemLat
			h.l2.Fill(tl, fillDone)
		}
		h.l1d.Fill(tl, fillDone+h.cfg.L1D.FillLat)
	}
}

// Contains reports whether addr's line is resident in the L1 or L2 — the
// attack harness's side-channel probe.
func (h *Hierarchy) Contains(addr uint64) bool {
	line := h.l1d.LineAddr(addr)
	return h.l1d.Contains(line) || h.l2.Contains(line)
}

// FlushAll empties both cache levels and the MSHRs.
func (h *Hierarchy) FlushAll() {
	h.l1d.InvalidateAll()
	h.l2.InvalidateAll()
	h.mshrs = nil
	if h.pf != nil {
		h.pf.Reset()
	}
}

// FlushLine evicts addr's line from both levels (clflush).
func (h *Hierarchy) FlushLine(addr uint64) {
	line := h.l1d.LineAddr(addr)
	h.l1d.InvalidateLine(line)
	h.l2.InvalidateLine(line)
}

// EarliestMSHRDone returns the earliest completion cycle among the
// outstanding MSHRs, or ^uint64(0) when none are in flight. This is the
// explicit registration of the memory system's only implicit wake-up — "a
// fill completes at cycle X" — for the core's idle-cycle skipper. The
// value may be stale-low (a completed MSHR the lazy expiry has not
// filtered yet); callers treating it as a wake hint must ignore values in
// the past, which the skipper's future-only min does.
func (h *Hierarchy) EarliestMSHRDone() uint64 {
	if len(h.mshrs) == 0 {
		return ^uint64(0)
	}
	return h.mshrMinDone
}

// OutstandingMisses returns the number of live MSHRs at cycle now.
func (h *Hierarchy) OutstandingMisses(now uint64) int {
	h.expire(now)
	return len(h.mshrs)
}
