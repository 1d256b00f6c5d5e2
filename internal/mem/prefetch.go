package mem

// StridePrefetcher is a per-PC stride prefetcher (the paper's gem5
// configuration uses stride prefetchers at L1D and L2, Table 2). Each table
// entry tracks the last address and stride observed for a load PC; after
// the same stride repeats confThreshold times, the prefetcher emits
// prefetches degree lines ahead.
type StridePrefetcher struct {
	entries       []strideEntry
	mask          uint64
	confThreshold int
	degree        int
	scratch       []uint64 // reused Train return buffer; see Train
}

type strideEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int
	valid    bool
}

// NewStridePrefetcher builds a prefetcher with a power-of-two table size.
func NewStridePrefetcher(tableSize, confThreshold, degree int) *StridePrefetcher {
	if tableSize&(tableSize-1) != 0 || tableSize <= 0 {
		panic("mem: prefetcher table size must be a power of two")
	}
	return &StridePrefetcher{
		entries:       make([]strideEntry, tableSize),
		mask:          uint64(tableSize - 1),
		confThreshold: confThreshold,
		degree:        degree,
		scratch:       make([]uint64, 0, degree),
	}
}

// Train observes a demand access by the load at pc to addr and returns the
// addresses to prefetch (possibly none). The returned slice is a scratch
// buffer owned by the prefetcher and overwritten by the next Train call —
// Train sits on the per-load hot path, and a fresh slice per confident
// train was one of the simulator's last steady-state allocations. Callers
// must consume it before training again (the hierarchy does, immediately).
func (p *StridePrefetcher) Train(pc, addr uint64) []uint64 {
	e := &p.entries[pc&p.mask]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < p.confThreshold {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.lastAddr = addr
	if e.conf < p.confThreshold || e.stride == 0 {
		return nil
	}
	out := p.scratch[:0]
	next := addr
	for i := 0; i < p.degree; i++ {
		next = uint64(int64(next) + e.stride)
		out = append(out, next)
	}
	return out
}

// Reset clears all table state.
func (p *StridePrefetcher) Reset() {
	for i := range p.entries {
		p.entries[i] = strideEntry{}
	}
}
