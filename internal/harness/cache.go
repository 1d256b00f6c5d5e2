package harness

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// CellCache persists content-addressed cell results. Implementations must
// be safe for concurrent use: the engine calls them from every worker
// goroutine. Get returns ok=false for a miss; a read error is reported but
// should be treated as a miss by callers (a corrupt or unreadable entry
// must degrade to re-simulation, never fail the run).
type CellCache interface {
	Get(key string) (Run, bool, error)
	Put(key string, r Run) error
}

// CellResolver is an optional CellCache extension for caches that can
// resolve a *job*, not just look up a key — e.g. the farm HTTPCache in
// compute mode, which asks a remote shadowbindingd to simulate the cell
// when its store misses. The engine prefers ResolveCell over Get whenever
// a cache implements it; the contract matches Get exactly (ok=false is a
// miss, an error degrades to local re-simulation, never fails the run),
// and a resolver must NOT fall back to simulating locally itself — the
// engine owns that path.
type CellResolver interface {
	ResolveCell(key string, job CellJob, opts Options) (Run, bool, error)
}

// ExperimentResolver is an optional CellCache extension one level above
// CellResolver: a cache that can resolve a whole experiment spec in one
// round trip — the farm HTTPCache in compute mode, whose single streaming
// request replaces one POST per cell. Each cell is handed to deliver as
// it arrives (already validated by the implementation, one cell at a
// time, on the calling goroutine); the engine puts
// it straight into the slots of the matrix that asked, counts it as a
// hit, and walks per cell only what was not delivered. (0, nil) means the
// cache has no experiment path and the caller loses nothing by resolving
// per cell. The failure contract matches the rest of the cache surface:
// deliver what arrived, return the error, and the engine resolves the
// remainder per cell — a broken stream costs time, never the run. The
// engine hands its keys of the spec's cells down in ctx (KeySetFrom), so
// an implementation checks what it streams against them rather than
// deriving the keys again.
type ExperimentResolver interface {
	ResolveExperiment(ctx context.Context, spec MatrixSpec, opts Options, deliver func(key string, r Run)) (int, error)
}

// KeySet is the keys of one spec's cells, in the canonical enumeration
// order, with an index from key to cell built at its first lookup. The
// engine derives it once a matrix and hands it to an ExperimentResolver
// through the request context; it is valid while that call runs.
type KeySet struct {
	keys []string
	once sync.Once
	cell map[string]int
}

// NewKeySet returns the set of keys, which it keeps without copying.
func NewKeySet(keys []string) *KeySet { return &KeySet{keys: keys} }

// Index returns the cell whose key is key — the last such cell if cells
// share a key — or false if no cell has it.
func (k *KeySet) Index(key string) (int, bool) {
	k.once.Do(func() {
		k.cell = make(map[string]int, len(k.keys))
		for i, key := range k.keys {
			k.cell[key] = i
		}
	})
	i, ok := k.cell[key]
	return i, ok
}

type keySetKey struct{}

// WithKeySet returns ctx carrying k, for an ExperimentResolver.
func WithKeySet(ctx context.Context, k *KeySet) context.Context {
	return context.WithValue(ctx, keySetKey{}, k)
}

// KeySetFrom returns the KeySet ctx carries, if it carries one.
func KeySetFrom(ctx context.Context) (*KeySet, bool) {
	k, ok := ctx.Value(keySetKey{}).(*KeySet)
	return k, ok
}

// cacheLookup reads one key from a cache, routing through ResolveCell for
// caches that can resolve the full job (see CellResolver).
func cacheLookup(c CellCache, key string, job CellJob, opts Options) (Run, bool, error) {
	if r, ok := c.(CellResolver); ok {
		return r.ResolveCell(key, job, opts)
	}
	return c.Get(key)
}

// ---------------------------------------------------------------------------
// In-memory LRU.

// MemoryCache is a bounded in-memory LRU cell store — the fast layer of
// every standard cache stack and the default cache of a Session created
// without one.
type MemoryCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	byKey map[string]*list.Element
}

type memEntry struct {
	key string
	run Run
}

// DefaultMemoryCacheSize holds every cell of the full evaluation (756,
// `-experiment all`) with generous headroom for option sweeps.
const DefaultMemoryCacheSize = 8192

// NewMemoryCache returns an LRU cache bounded to capacity entries (zero or
// negative: DefaultMemoryCacheSize).
func NewMemoryCache(capacity int) *MemoryCache {
	if capacity <= 0 {
		capacity = DefaultMemoryCacheSize
	}
	return &MemoryCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the cached run and bumps its recency.
func (c *MemoryCache) Get(key string) (Run, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return Run{}, false, nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).run, true, nil
}

// Put inserts or refreshes an entry, evicting the least recently used one
// beyond capacity.
func (c *MemoryCache) Put(key string, r Run) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*memEntry).run = r
		c.order.MoveToFront(el)
		return nil
	}
	c.byKey[key] = c.order.PushFront(&memEntry{key: key, run: r})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*memEntry).key)
	}
	return nil
}

// Len returns the number of cached entries.
func (c *MemoryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// ---------------------------------------------------------------------------
// On-disk record store.

// DiskCache stores one cell record (record.go) per file under a directory
// — the persistent layer behind the cmds' -cache flag. Writes are atomic
// (temp file + rename), so concurrent processes sharing a directory see
// whole entries or none. Reads go through the record's strict parse, as
// the farm's do: an entry written under another layout of Run, with a
// field edited, added or dropped, under another key, or with a scheme
// name that no longer resolves to the run's kind, is a miss, never a
// mislabeled result.
type DiskCache struct {
	dir string
}

// NewDiskCache opens (creating if needed) an on-disk cell store.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cell cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// path is the file of key's record. It keeps the name of the JSON entry
// stores held before, so a Put overwrites such an entry (a miss) in place.
func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// safeKey reports whether key names a file inside the store: keys reach
// the store from the network, and one carrying a path separator or ".."
// could otherwise read or write outside it.
func safeKey(key string) bool {
	return !strings.ContainsAny(key, `/\`) && !strings.Contains(key, "..")
}

// Get loads one entry. A missing file, or a key that would resolve
// outside the store, is a clean miss; any entry the record's strict parse
// refuses, or one longer than a record can be, is a miss with the error
// reported.
func (c *DiskCache) Get(key string) (Run, bool, error) {
	if !safeKey(key) {
		return Run{}, false, nil
	}
	f, err := os.Open(c.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Run{}, false, nil
		}
		return Run{}, false, err
	}
	defer f.Close()
	cell, err := ReadRecord(f, key)
	if err != nil {
		return Run{}, false, fmt.Errorf("harness: cell cache %s: %w", c.path(key), err)
	}
	return cell.Run, true, nil
}

// Put writes one entry atomically. Every failure path is wrapped with the
// cell key so the engine's "cell cache write" warning names the entry that
// failed, not just the syscall — an unwritable directory (read-only mount,
// quota, permissions) or a run the record cannot carry (a name outside its
// alphabet) degrades the whole run to warn-and-continue, never to an
// error.
func (c *DiskCache) Put(key string, r Run) error {
	if !safeKey(key) {
		return fmt.Errorf("harness: cell cache write %q: key is not a file name", key)
	}
	line, err := AppendRecord(nil, key, &r, false)
	if err != nil {
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	if _, err := tmp.Write(append(line, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cell cache write %s: %w", key, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Tiering.

// TieredCache layers caches fastest-first: Get walks the layers in order
// and backfills every faster layer on a hit; Put writes through to all.
type TieredCache struct {
	layers []CellCache
}

// NewTieredCache composes caches fastest-first.
func NewTieredCache(layers ...CellCache) *TieredCache {
	return &TieredCache{layers: layers}
}

// Get returns the first hit, promoting it into the missed faster layers.
func (c *TieredCache) Get(key string) (Run, bool, error) {
	return c.lookup(key, func(layer CellCache) (Run, bool, error) {
		return layer.Get(key)
	})
}

// ResolveCell is Get with the full job threaded through to layers that can
// resolve it (CellResolver — e.g. a farm HTTPCache in compute mode as the
// slowest layer): the walk is still fastest-first with backfill promotion,
// so a remote-computed cell lands in the local memory and disk layers on
// the way back.
func (c *TieredCache) ResolveCell(key string, job CellJob, opts Options) (Run, bool, error) {
	return c.lookup(key, func(layer CellCache) (Run, bool, error) {
		return cacheLookup(layer, key, job, opts)
	})
}

// ResolveExperiment forwards a whole spec to the first layer that can
// resolve experiments (ExperimentResolver — the farm client as the slowest
// layer of the canonical stack) and hands each streamed cell to deliver.
// On the way through, each cell is stored in every faster persistent
// layer (a disk store under -remote); a memory layer is skipped, because
// the engine puts streamed cells straight into the matrix that asked for
// them and the next request for the spec streams again. With no such
// layer it is a clean no-op: the engine resolves per cell as before.
func (c *TieredCache) ResolveExperiment(ctx context.Context, spec MatrixSpec, opts Options, deliver func(key string, r Run)) (int, error) {
	for i, layer := range c.layers {
		er, ok := layer.(ExperimentResolver)
		if !ok {
			continue
		}
		return er.ResolveExperiment(ctx, spec, opts, func(key string, r Run) {
			for _, upper := range c.layers[:i] {
				if _, mem := upper.(*MemoryCache); !mem {
					_ = upper.Put(key, r) // best-effort backfill, like the tier walk
				}
			}
			if deliver != nil {
				deliver(key, r)
			}
		})
	}
	return 0, nil
}

// lookup walks the layers fastest-first with read, backfilling every faster
// layer on a hit.
func (c *TieredCache) lookup(key string, read func(CellCache) (Run, bool, error)) (Run, bool, error) {
	var firstErr error
	for i, layer := range c.layers {
		r, ok, err := read(layer)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			for _, upper := range c.layers[:i] {
				if err := upper.Put(key, r); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return r, true, firstErr
		}
	}
	return Run{}, false, firstErr
}

// Put writes through every layer, returning the first error.
func (c *TieredCache) Put(key string, r Run) error {
	var firstErr error
	for _, layer := range c.layers {
		if err := layer.Put(key, r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
