package core

// lsu holds the load and store queues and implements store-to-load
// forwarding and memory-ordering-violation detection. Queues are kept in
// program (seq) order; capacities are enforced at rename. Entries are raw
// arena indices: a uop's queue entry is removed at the same pipeline event
// that ends its life (head removal at commit, tail truncation at squash),
// so the queues never hold a recycled slot across a cycle boundary.
//
// The LSU speculates that loads do not alias older stores with unresolved
// addresses ("always predict no-alias", as the unmodified BOOM does). When
// a store address resolves and a younger load turns out to have executed
// with stale data, the load is marked with an ordering violation and the
// pipeline is flushed when that load reaches commit — BOOM's recovery
// mechanism. The paper's exchange2 analysis (Section 9.2) hinges on this
// machinery: schemes that delay store address generation suffer more such
// violations.
type lsu struct {
	a  *uopArena
	lq []int32
	sq []int32

	// specBufLive counts the live InvisiSpec speculative-buffer entries.
	// The buffer is modeled per load-queue entry (an invisible load holds
	// one from issue until exposure or squash), so occupancy is bounded by
	// LQSize — the hardware sizing the Stats.SpecBufPeak counter reports.
	specBufLive int
}

// reset empties both queues and the speculative buffer.
func (l *lsu) reset(a *uopArena) { *l = lsu{a: a, lq: emptied(l.lq), sq: emptied(l.sq)} }

func (l *lsu) lqLen() int { return len(l.lq) }
func (l *lsu) sqLen() int { return len(l.sq) }

func (l *lsu) addLoad(i int32)  { l.lq = append(l.lq, i) }
func (l *lsu) addStore(i int32) { l.sq = append(l.sq, i) }

// fwdResult is the outcome of a forwarding search.
type fwdResult uint8

const (
	fwdNone fwdResult = iota // no older store matches: go to memory
	fwdHit                   // forward from a ready older store
	fwdWait                  // matching older store's data not ready yet
)

// search scans older stores for the load's address (8-byte word
// granularity), youngest first. sawUnknown reports whether any older store
// had an unresolved address, i.e. the load would execute speculatively.
func (l *lsu) search(load int32) (res fwdResult, value uint64, fromSeq int64, sawUnknown bool) {
	a := l.a
	addr := a.body[load].addr &^ 7
	loadSeq := a.seq[load]
	for i := len(l.sq) - 1; i >= 0; i-- {
		si := l.sq[i]
		if a.seq[si] >= loadSeq {
			continue
		}
		st := &a.body[si]
		if !st.addrReady {
			sawUnknown = true
			continue
		}
		if st.addr&^7 != addr {
			continue
		}
		if st.dataReady {
			return fwdHit, st.result, int64(a.seq[si]), sawUnknown
		}
		return fwdWait, 0, int64(a.seq[si]), sawUnknown
	}
	return fwdNone, 0, -1, sawUnknown
}

// checkViolations is called when a store's address resolves: any younger
// load that already executed against the same word without forwarding from
// this store (or a younger one) read stale data. The offending loads are
// marked; the oldest will flush the pipeline at commit. Returns the number
// of violations found.
func (l *lsu) checkViolations(st int32) int {
	n := 0
	a := l.a
	addr := a.body[st].addr &^ 7
	stSeq := a.seq[st]
	for _, li := range l.lq {
		if a.seq[li] <= stSeq || a.state[li] == stateWaiting || a.state[li] == stateSquashed {
			continue
		}
		ld := &a.body[li]
		if ld.addr&^7 != addr {
			continue
		}
		if ld.fwdFromSeq >= int64(stSeq) {
			continue // got its data from this store or a younger one
		}
		if !ld.orderViolation {
			ld.orderViolation = true
			n++
		}
	}
	return n
}

// specBufAdd claims a speculative-buffer entry for an invisible load and
// returns the new occupancy (for the peak statistic).
func (l *lsu) specBufAdd(i int32) int {
	l.a.body[i].inSpecBuf = true
	l.specBufLive++
	return l.specBufLive
}

// specBufDrop releases a load's speculative-buffer entry, if it holds one:
// at exposure, or when a squash kills the load before it ever reached the
// visibility point (the no-side-effect discard that makes wrong-path
// invisible loads invisible for good).
func (l *lsu) specBufDrop(i int32) {
	b := &l.a.body[i]
	if b.inSpecBuf {
		b.inSpecBuf = false
		l.specBufLive--
	}
}

// commitOldest removes the queue head for a committing load or store. The
// removal copies down in place rather than reslicing off the front:
// sliding the slice along its backing array would make the rename-side
// append reallocate once the capacity walks off the end — one heap
// allocation per LQSize commits, forever. The copy is a handful of moves
// over a queue bounded by LQ/SQ size.
func (l *lsu) commitOldest(i int32) {
	if l.a.isLoad(i) && len(l.lq) > 0 && l.lq[0] == i {
		n := copy(l.lq, l.lq[1:])
		l.lq = l.lq[:n]
	}
	if l.a.isStore(i) && len(l.sq) > 0 && l.sq[0] == i {
		n := copy(l.sq, l.sq[1:])
		l.sq = l.sq[:n]
	}
}

// squashYoungerThan drops all queue entries with seq > limit. It runs
// inside the squash window, after the ROB walk released the squashed
// slots: the freed tails are readable (nothing reallocates mid-squash)
// and their seq values still identify them.
func (l *lsu) squashYoungerThan(limit uint64) {
	for len(l.lq) > 0 && l.a.seq[l.lq[len(l.lq)-1]] > limit {
		l.lq = l.lq[:len(l.lq)-1]
	}
	for len(l.sq) > 0 && l.a.seq[l.sq[len(l.sq)-1]] > limit {
		l.sq = l.sq[:len(l.sq)-1]
	}
}

// clear empties both queues (full-pipeline flush).
func (l *lsu) clear() {
	l.lq = l.lq[:0]
	l.sq = l.sq[:0]
}

// memDepPredictor is a store-set-style memory dependence predictor: loads
// whose PC recently caused an ordering violation are forced to wait until
// all older store addresses are known, instead of speculating no-alias.
// Real BOOMs carry an equivalent structure; without it, a scheme that
// systematically delays store addresses (STT, Section 9.2) would livelock
// on a flush/re-violate cycle. Entries decay periodically so the predictor
// tracks phase behaviour rather than pinning loads forever.
type memDepPredictor struct {
	pcs        [64]uint64
	valid      [64]bool
	decayEvery uint64
	lastDecay  uint64
}

// reset forgets every recorded PC.
func (m *memDepPredictor) reset() { *m = memDepPredictor{decayEvery: 16_384} }

func (m *memDepPredictor) index(pc uint64) int { return int(pc % uint64(len(m.pcs))) }

// record marks a load PC as violation-prone.
func (m *memDepPredictor) record(pc uint64) {
	i := m.index(pc)
	m.pcs[i] = pc
	m.valid[i] = true
}

// mustWait reports whether the load at pc should wait for all older store
// addresses, decaying stale entries as a side effect.
func (m *memDepPredictor) mustWait(pc, now uint64) bool {
	if now-m.lastDecay >= m.decayEvery {
		m.lastDecay = now
		for i := range m.valid {
			m.valid[i] = false
		}
	}
	i := m.index(pc)
	return m.valid[i] && m.pcs[i] == pc
}
