package branch

// TAGELite is a small TAGE predictor: a bimodal base plus tagged tables
// indexed with geometrically increasing history lengths. It stands in for
// the MultiperspectivePerceptronTAGE64KB configuration the paper uses on
// gem5 (Table 2): the structure (tagged geometric history matching with a
// bimodal fallback) is TAGE's; the sizing is scaled to the simulator.
type TAGELite struct {
	base   *Bimodal
	tables []tageTable
}

type tageTable struct {
	entries  []tageEntry
	mask     uint64
	histLen  uint
	tagShift uint
}

type tageEntry struct {
	tag    uint16
	ctr    counter
	useful uint8
	valid  bool
}

// NewTAGELite builds a TAGE predictor with the given per-table entry count
// (power of two) and history lengths such as {8, 16, 32, 64}.
func NewTAGELite(tableSize int, histLens []uint) *TAGELite {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("branch: TAGE table size must be a power of two")
	}
	t := &TAGELite{base: NewBimodal(tableSize * 2)}
	for i, hl := range histLens {
		tbl := tageTable{
			entries:  make([]tageEntry, tableSize),
			mask:     uint64(tableSize - 1),
			histLen:  hl,
			tagShift: uint(i + 3),
		}
		t.tables = append(t.tables, tbl)
	}
	return t
}

// NewDefaultTAGE returns the predictor used by the simulator's default core
// configurations.
func NewDefaultTAGE() *TAGELite {
	return NewTAGELite(1024, []uint{8, 16, 32, 64})
}

// Reset untrains the predictor: the base back to weakly not-taken and
// every tagged entry invalid.
func (t *TAGELite) Reset() {
	t.base.reset()
	for i := range t.tables {
		clear(t.tables[i].entries)
	}
}

// foldHistory compresses hist's low n bits into width chunks XORed together.
func foldHistory(hist uint64, n, width uint) uint64 {
	h := hist
	if n < 64 {
		h &= (1 << n) - 1
	}
	var folded uint64
	for h != 0 {
		folded ^= h & ((1 << width) - 1)
		h >>= width
	}
	return folded
}

func (t *tageTable) index(pc, hist uint64) uint64 {
	return (pc ^ foldHistory(hist, t.histLen, 10) ^ (pc >> 5)) & t.mask
}

func (t *tageTable) tag(pc, hist uint64) uint16 {
	return uint16((pc>>2 ^ foldHistory(hist, t.histLen, 8) ^ pc<<t.tagShift) & 0xff)
}

// lookup returns the matching entry, or nil.
func (t *tageTable) lookup(pc, hist uint64) *tageEntry {
	e := &t.entries[t.index(pc, hist)]
	if e.valid && e.tag == t.tag(pc, hist) {
		return e
	}
	return nil
}

// provider finds the longest-history matching table, or -1 for the base.
func (t *TAGELite) provider(pc, hist uint64) (int, *tageEntry) {
	for i := len(t.tables) - 1; i >= 0; i-- {
		if e := t.tables[i].lookup(pc, hist); e != nil {
			return i, e
		}
	}
	return -1, nil
}

// Predict returns the predicted direction for the branch at pc given the
// global history at prediction time.
func (t *TAGELite) Predict(pc, hist uint64) bool {
	if i, e := t.provider(pc, hist); i >= 0 {
		return e.ctr.taken()
	}
	return t.base.Predict(pc)
}

// Update trains the predictor with the resolved outcome, using the history
// that was live when the branch was predicted. On a mispredict by the
// provider it allocates an entry in a longer-history table, stealing a
// non-useful slot.
func (t *TAGELite) Update(pc, hist uint64, taken bool) {
	pi, pe := t.provider(pc, hist)
	var predicted bool
	if pi >= 0 {
		predicted = pe.ctr.taken()
		pe.ctr = pe.ctr.update(taken)
		if predicted == taken {
			if pe.useful < 3 {
				pe.useful++
			}
		} else if pe.useful > 0 {
			pe.useful--
		}
	} else {
		predicted = t.base.Predict(pc)
		t.base.Update(pc, taken)
	}
	if predicted == taken {
		return
	}
	// Mispredicted: allocate in the next longer table with a free or
	// non-useful entry.
	for i := pi + 1; i < len(t.tables); i++ {
		tbl := &t.tables[i]
		e := &tbl.entries[tbl.index(pc, hist)]
		if !e.valid || e.useful == 0 {
			*e = tageEntry{tag: tbl.tag(pc, hist), ctr: initCounter(taken), valid: true}
			return
		}
		e.useful--
	}
}

func initCounter(taken bool) counter {
	if taken {
		return 2
	}
	return 1
}
