// Package vcache is the shared version-reconstruction cache: a
// concurrency-safe, byte-budgeted LRU of materialized document versions
// keyed by (DocID, VersionNo), sitting between the query layer and the
// version store.
//
// The paper's Section 7.3.3 shows Reconstruct cost growing linearly with
// the number of deltas between a stored snapshot and the requested
// version (claim C3 in DESIGN.md). The store bounds that statically with
// interspersed snapshots; this cache bounds it dynamically across
// queries:
//
//   - An exact hit returns a clone of the resident tree — no delta I/O.
//   - A miss with a cached ancestor v′ < v clones v′ and replays only the
//     v′→v delta chain forward (store.ReconstructFromContext) instead of
//     walking backward from the nearest snapshot at or after v.
//   - Concurrent misses for the same version collapse into a single
//     flight: one goroutine replays, the rest wait and share the result.
//
// Cached trees are immutable; every Get returns a deep clone, so callers
// may mutate their copy freely (history walks Detach subtrees, the plan
// executor hands nodes into result rows). Writers invalidate through
// InvalidateDoc, which drops the document's entries and bumps its
// generation so that in-flight reconstructions racing the write cannot
// install entries carrying a stale validity interval.
//
// Document versions are append-only — an update never rewrites version
// v's content, it appends v+1 — so invalidation exists to keep the
// *metadata* honest: the formerly-current version's VersionInfo.End
// changes from Forever to the update time, and a deleted document's last
// version gains a real end stamp.
package vcache

import (
	"container/list"
	"context"
	"sync"

	"txmldb/internal/model"
	"txmldb/internal/store"
)

// Source is the reconstruction backend beneath the cache. *store.Store
// implements it. The context bounds the backend reads: retry backoff
// aborts when it is canceled, and the store's circuit breaker may reject
// reads fast while open — either way the error propagates to every
// goroutine collapsed onto the flight and is never cached. Both methods
// return a tree the caller owns.
type Source interface {
	// ReconstructVersionContext materializes one version from scratch
	// (backward replay from the nearest snapshot at or after it).
	ReconstructVersionContext(ctx context.Context, doc model.DocID, ver model.VersionNo) (store.VersionTree, error)
	// ReconstructFromContext materializes version `to` by forward replay
	// from an already-materialized base version; base is not modified.
	ReconstructFromContext(ctx context.Context, doc model.DocID, base store.VersionTree, to model.VersionNo) (store.VersionTree, error)
}

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes is the residency budget: the sum of the deep sizes of all
	// cached trees never exceeds it (least-recently-used versions are
	// evicted). Zero or negative disables the cache at the layer that
	// owns it (core.Config); the constructor itself treats <= 0 as a
	// minimal 1 MiB budget so a directly-constructed cache always works.
	MaxBytes int64
	// MaxReplay bounds how many deltas a nearest-cached-ancestor miss
	// replays forward. An ancestor further away than this is ignored and
	// the version is reconstructed from scratch, which keeps ancestor
	// replay from losing to a nearby stored snapshot. Default 128.
	MaxReplay int
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 20
	}
	if c.MaxReplay <= 0 {
		c.MaxReplay = 128
	}
	return c
}

// Stats is a consistent snapshot of the cache counters. Lookups is always
// Hits + Misses; AncestorHits and CollapsedFlights are subsets of Misses.
type Stats struct {
	Lookups          int64 // Get calls
	Hits             int64 // exact (doc, version) hits
	Misses           int64 // everything else, including collapsed waiters
	AncestorHits     int64 // misses served by forward replay from a cached ancestor
	CollapsedFlights int64 // misses that waited on another goroutine's replay
	Evictions        int64 // entries evicted by the byte budget
	Invalidations    int64 // entries dropped by InvalidateDoc
	Fills            int64 // entries installed via Add (history-walk fills)
	ResidentBytes    int64 // current deep size of all cached trees
	Entries          int64 // current entry count
}

type key struct {
	doc model.DocID
	ver model.VersionNo
}

// entry is one resident version. The tree is owned by the cache and never
// mutated after insertion; readers clone it.
type entry struct {
	key  key
	vt   store.VersionTree
	size int64
}

// flight is one in-progress reconstruction that concurrent misses for the
// same key attach to.
type flight struct {
	done chan struct{}
	vt   store.VersionTree // cache-owned on success; waiters clone
	err  error
}

// Cache is the shared version cache. It is safe for concurrent use.
type Cache struct {
	src Source
	cfg Config

	mu      sync.Mutex
	order   *list.List // front = most recently used; values are *entry
	items   map[key]*list.Element
	byDoc   map[model.DocID]map[model.VersionNo]*list.Element
	flights map[key]*flight
	gens    map[model.DocID]uint64 // bumped by InvalidateDoc
	used    int64
	stats   Stats
}

// New builds a cache over a reconstruction source.
func New(src Source, cfg Config) *Cache {
	return &Cache{
		src:     src,
		cfg:     cfg.withDefaults(),
		order:   list.New(),
		items:   make(map[key]*list.Element),
		byDoc:   make(map[model.DocID]map[model.VersionNo]*list.Element),
		flights: make(map[key]*flight),
		gens:    make(map[model.DocID]uint64),
	}
}

// Get returns version ver of the document, from cache when resident,
// otherwise reconstructing it (once, however many goroutines ask) and
// caching the result. The returned tree is a private deep copy owned by
// the caller.
func (c *Cache) Get(doc model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	return c.GetContext(context.Background(), doc, ver)
}

// GetContext is Get honoring ctx: a goroutine waiting on another
// goroutine's in-flight reconstruction stops waiting when ctx is
// canceled, and a reconstruction this call leads passes ctx down to the
// store. Exact hits never touch the backend, so a cache-resident version
// is served even mid-outage.
func (c *Cache) GetContext(ctx context.Context, doc model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	k := key{doc, ver}
	c.mu.Lock()
	c.stats.Lookups++

	if el, ok := c.items[k]; ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		vt := el.Value.(*entry).vt
		c.mu.Unlock()
		// Cached trees are immutable, so cloning outside the lock is safe
		// even if the entry is evicted meanwhile.
		return cloneTree(vt), nil
	}
	c.stats.Misses++

	if f, ok := c.flights[k]; ok {
		c.stats.CollapsedFlights++
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return store.VersionTree{}, ctx.Err()
		case <-f.done:
		}
		if f.err != nil {
			return store.VersionTree{}, f.err
		}
		return cloneTree(f.vt), nil
	}

	// Lead a new flight. Snapshot the generation and the nearest cached
	// ancestor under the lock; replay outside it.
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	gen := c.gens[doc]
	base, haveBase := c.nearestAncestorLocked(doc, ver)
	c.mu.Unlock()

	var vt store.VersionTree
	var err error
	usedAncestor := false
	if haveBase {
		vt, err = c.src.ReconstructFromContext(ctx, doc, base, ver)
		usedAncestor = err == nil
		// A broken forward chain (corrupt delta) falls back to the full
		// backward reconstruction, which may route around the damage via
		// a later snapshot.
	}
	if !usedAncestor {
		vt, err = c.src.ReconstructVersionContext(ctx, doc, ver)
	}

	// The cache and the waiters share an owned copy; the reconstructed
	// tree itself is private to this call and goes to the leader.
	var owned store.VersionTree
	if err == nil {
		owned = ownedTree(vt)
	}
	c.mu.Lock()
	delete(c.flights, k)
	f.vt, f.err = owned, err
	if err == nil {
		if usedAncestor {
			c.stats.AncestorHits++
		}
		// Install only if no invalidation raced the replay: a write to
		// this document may have changed the validity interval carried in
		// vt.Info between our snapshot of the generation and now.
		if c.gens[doc] == gen {
			c.insertLocked(k, owned)
		}
	}
	c.mu.Unlock()
	close(f.done)

	if err != nil {
		return store.VersionTree{}, err
	}
	return vt, nil
}

// Add offers an already-materialized version to the cache (history walks
// use it to convert their backward replay into future hits). The tree is
// deep-copied; the caller keeps ownership of vt. Already-resident
// versions are refreshed in recency only.
func (c *Cache) Add(doc model.DocID, vt store.VersionTree) {
	if vt.Root == nil || vt.Info.Ver < 1 {
		return
	}
	k := key{doc, vt.Info.Ver}
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// Clone outside the lock — the caller owns vt and may mutate it later.
	owned := ownedTree(vt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.stats.Fills++
	c.insertLocked(k, owned)
}

// InvalidateDoc drops every cached version of the document and prevents
// in-flight reconstructions of it from installing their (now possibly
// stale-metadata) results. Write paths call it after UpdateDocument /
// DeleteDocument mutate the store.
func (c *Cache) InvalidateDoc(doc model.DocID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[doc]++
	for _, el := range c.byDoc[doc] {
		c.removeLocked(el)
		c.stats.Invalidations++
	}
}

// Purge empties the cache (benchmarks use it for cold-cache runs).
// Generations are kept so racing flights still cannot install stale
// entries.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.items {
		c.removeLocked(el)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.ResidentBytes = c.used
	st.Entries = int64(len(c.items))
	return st
}

// nearestAncestorLocked returns a cache-owned tree of the closest cached
// version strictly below ver, if one is within the forward-replay bound.
func (c *Cache) nearestAncestorLocked(doc model.DocID, ver model.VersionNo) (store.VersionTree, bool) {
	var bestEl *list.Element
	var best model.VersionNo
	for v, el := range c.byDoc[doc] {
		if v < ver && (bestEl == nil || v > best) {
			best, bestEl = v, el
		}
	}
	if bestEl == nil || int(ver-best) > c.cfg.MaxReplay {
		return store.VersionTree{}, false
	}
	return bestEl.Value.(*entry).vt, true
}

// insertLocked adds a cache-owned tree under k and evicts LRU entries
// until the byte budget holds. Oversize trees are not cached at all.
func (c *Cache) insertLocked(k key, vt store.VersionTree) {
	size := entryOverhead + vt.Root.DeepSize()
	if size > c.cfg.MaxBytes {
		return
	}
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
	el := c.order.PushFront(&entry{key: k, vt: vt, size: size})
	c.items[k] = el
	vers := c.byDoc[k.doc]
	if vers == nil {
		vers = make(map[model.VersionNo]*list.Element)
		c.byDoc[k.doc] = vers
	}
	vers[k.ver] = el
	c.used += size
	for c.used > c.cfg.MaxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.stats.Evictions++
	}
}

// entryOverhead approximates the per-entry bookkeeping cost (list element,
// map slots, entry struct) charged against the byte budget.
const entryOverhead = 160

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.items, e.key)
	if vers := c.byDoc[e.key.doc]; vers != nil {
		delete(vers, e.key.ver)
		if len(vers) == 0 {
			delete(c.byDoc, e.key.doc)
		}
	}
	c.used -= e.size
}

func cloneTree(vt store.VersionTree) store.VersionTree {
	return store.VersionTree{Info: vt.Info, Root: vt.Root.Clone()}
}

// ownedTree copies a tree for residence: reconstructed trees share their
// strings with the decoded snapshot and deltas, which the byte budget
// (DeepSize) does not count, so a cached copy takes its own.
func ownedTree(vt store.VersionTree) store.VersionTree {
	return store.VersionTree{Info: vt.Info, Root: vt.Root.CloneOwned()}
}
