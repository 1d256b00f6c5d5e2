// Package mem implements the simulator's memory system: a sparse
// byte-addressed main memory holding architectural data values, and a
// timing model consisting of set-associative write-allocate caches (L1D, L2)
// with MSHRs and per-PC stride prefetchers, fronted by a Hierarchy that the
// core's load-store unit talks to.
//
// Data values and timing are deliberately separated: Main always holds the
// committed architectural image (plus speculative wrong-path reads see the
// same committed state), while the caches track only tags and fill times.
// This mirrors how trace-driven cache models work and keeps the timing
// model independent of value forwarding, which the LSU handles.
package mem

import "sync"

// Memory is paged: a sparse map of fixed-size pages with a one-entry
// page cache in front of it. Loads are the single hottest data access in
// the simulator (every issued load reads Main), and the page cache turns
// the per-access hash lookup into a shift-and-compare for the common
// locality-heavy case.
const (
	pageWords = 512                   // 64-bit words per page (4 KiB)
	pageShift = 12                    // log2(pageWords * 8): address bits below the page key
	wordMask  = uint64(pageWords - 1) // word index within a page
)

type memPage struct {
	words [pageWords]uint64
}

// pagePool recycles pages across every Main in the process: Reset hands
// its pages here and pageFor takes them back, zeroed, so a core that is
// Reset for cell after cell stops allocating its data image. The pool is
// package-level rather than a free list on Main, so a Main that has been
// Reset is reflect.DeepEqual to a new one.
var pagePool = sync.Pool{New: func() any { return new(memPage) }}

// Main is the architectural data memory: an aligned 64-bit word store.
// Reads of unwritten locations return zero.
type Main struct {
	pages   map[uint64]*memPage
	lastKey uint64
	last    *memPage
}

// NewMain returns an empty main memory. The page map is pre-sized for a
// typical proxy-benchmark footprint so image loading doesn't grow it
// repeatedly.
func NewMain() *Main {
	m := new(Main)
	m.Reset()
	return m
}

// Reset empties m as NewMain builds it. The page map keeps its buckets;
// the pages go back to the package's page pool, and writes after a Reset
// take pages from it, zeroed before use, so they read as fresh ones.
func (m *Main) Reset() {
	pages := m.pages
	if pages == nil {
		pages = make(map[uint64]*memPage, 64)
	}
	for _, p := range pages {
		pagePool.Put(p)
	}
	clear(pages)
	*m = Main{pages: pages}
}

// pageFor returns addr's page, allocating it when alloc is set; a nil
// return means the page has never been written.
func (m *Main) pageFor(addr uint64, alloc bool) *memPage {
	key := addr >> pageShift
	if m.last != nil && key == m.lastKey {
		return m.last
	}
	p := m.pages[key]
	if p == nil {
		if !alloc {
			return nil
		}
		p = pagePool.Get().(*memPage)
		*p = memPage{}
		m.pages[key] = p
	}
	m.lastKey, m.last = key, p
	return p
}

// Read returns the word at the (aligned) address.
func (m *Main) Read(addr uint64) uint64 {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p.words[(addr>>3)&wordMask]
}

// Write stores a word at the (aligned) address.
func (m *Main) Write(addr, val uint64) {
	p := m.pageFor(addr, true)
	i := (addr >> 3) & wordMask
	p.words[i] = val
}

// WriteRange stores a contiguous run of words starting at the (aligned)
// address, page by page. This is the bulk image-load path: installing a
// proxy benchmark's data segment word-by-word through a scratch
// map[uint64]uint64 was the single largest cost of constructing a matrix
// cell — more than the simulation it set up — almost all of it map rehash.
// A contiguous copy touches each page once.
func (m *Main) WriteRange(addr uint64, words []uint64) {
	for len(words) > 0 {
		p := m.pageFor(addr, true)
		i := (addr >> 3) & wordMask
		n := uint64(copy(p.words[i:], words))
		words = words[n:]
		addr += 8 * n
	}
}
