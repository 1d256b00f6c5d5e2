package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name    string
	SizeKB  int // total capacity
	Ways    int
	LineB   int    // line size in bytes (power of two)
	HitLat  uint64 // cycles from access to data for a hit
	FillLat uint64 // additional cycles to fill from the level below
}

// Validate checks the configuration for structural sanity.
func (c CacheConfig) Validate() error {
	if c.SizeKB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineB)
	}
	lines := c.SizeKB * 1024 / c.LineB
	if lines%c.Ways != 0 {
		return fmt.Errorf("mem: %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// cacheLine is one way of the tag array. A line is valid iff lastUse is
// non-zero: the cache's stamp is incremented before every fill, so a
// resident line always carries a non-zero stamp, and invalidation zeroes
// the whole line.
type cacheLine struct {
	tag     uint64
	lastUse uint64 // LRU stamp; 0 marks an invalid way (see valid)
	availAt uint64 // cycle at which an in-flight fill completes
}

func (ln *cacheLine) valid() bool { return ln.lastUse != 0 }

// Cache is one set-associative, write-allocate cache level with true-LRU
// replacement. It models tags, LRU state and fill timing only: data values
// live in Main, and there is no dirty state or write-back traffic.
type Cache struct {
	cfg       CacheConfig
	lines     []cacheLine // the tag array; set s is lines[s*Ways:(s+1)*Ways]
	lineShift uint
	setMask   uint64
	stamp     uint64
}

// NewCache builds a cache from its configuration. It panics on an invalid
// configuration: geometries are constants (DefaultHierarchyConfig and
// Gem5HierarchyConfig, which a core configuration only selects between)
// or test fixtures, never user input.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeKB * 1024 / cfg.LineB
	c := &Cache{cfg: cfg, lines: make([]cacheLine, lines)}
	for c.cfg.LineB>>c.lineShift != 1 {
		c.lineShift++
	}
	c.setMask = uint64(lines/cfg.Ways - 1)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// set returns addr's set (its ways, in way order) and the tag it is
// looked up by. The tag keeps the full line address for simplicity.
func (c *Cache) set(addr uint64) (ways []cacheLine, tag uint64) {
	tag = addr >> c.lineShift
	s := int(tag&c.setMask) * c.cfg.Ways
	return c.lines[s : s+c.cfg.Ways], tag
}

// Lookup probes the cache without modifying replacement state. It returns
// whether the line is present and, if so, the cycle at which its fill
// completes (0 for long-resident lines).
func (c *Cache) Lookup(addr uint64) (present bool, availAt uint64) {
	ways, tag := c.set(addr)
	for i := range ways {
		if ln := &ways[i]; ln.valid() && ln.tag == tag {
			return true, ln.availAt
		}
	}
	return false, 0
}

// Access performs a demand access at cycle now. It returns the cycle at
// which the data is available from this level and whether it was a hit.
// On a hit to a line still being filled, availability is the fill time
// (hit-under-fill). On a miss the caller is responsible for filling via
// Fill once the lower level responds.
func (c *Cache) Access(addr uint64, now uint64) (availAt uint64, hit bool) {
	c.stamp++
	ways, tag := c.set(addr)
	for i := range ways {
		if ln := &ways[i]; ln.valid() && ln.tag == tag {
			ln.lastUse = c.stamp
			avail := now + c.cfg.HitLat
			if ln.availAt > avail {
				avail = ln.availAt
			}
			return avail, true
		}
	}
	return 0, false
}

// Fill installs the line containing addr, completing at cycle doneAt, in
// the first invalid way or else by evicting the LRU way. Filling an
// already-present line only refreshes its availability if the new fill
// completes earlier.
func (c *Cache) Fill(addr uint64, doneAt uint64) {
	c.stamp++
	ways, tag := c.set(addr)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range ways {
		ln := &ways[i]
		if ln.valid() && ln.tag == tag {
			if doneAt < ln.availAt {
				ln.availAt = doneAt
			}
			ln.lastUse = c.stamp
			return
		}
		if !ln.valid() {
			victim = i
			break
		}
		if ln.lastUse < oldest {
			oldest = ln.lastUse
			victim = i
		}
	}
	ways[victim] = cacheLine{tag: tag, lastUse: c.stamp, availAt: doneAt}
}

// Contains reports whether the line holding addr is resident. It is the
// side-channel probe used by the Spectre attack harness: a real attacker
// measures access latency; the simulator can simply inspect the tag array.
func (c *Cache) Contains(addr uint64) bool {
	present, _ := c.Lookup(addr)
	return present
}

// InvalidateAll empties the cache (used by the attack harness to prime a
// clean probe array state).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}

// InvalidateLine removes the line containing addr if present (clflush).
func (c *Cache) InvalidateLine(addr uint64) {
	ways, tag := c.set(addr)
	for i := range ways {
		if ways[i].valid() && ways[i].tag == tag {
			ways[i] = cacheLine{}
			return
		}
	}
}

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineB) - 1) }
