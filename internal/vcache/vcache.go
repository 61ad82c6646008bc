// Package vcache is the shared version-reconstruction cache: a
// concurrency-safe, byte-budgeted LRU of materialized document versions
// keyed by (DocID, VersionNo), sitting between the query layer and the
// version store.
//
// The paper's Section 7.3.3 shows Reconstruct cost growing linearly with
// the number of deltas between a base and the requested version (claim
// C3 in DESIGN.md). The store bounds that statically with interspersed
// snapshots; this cache bounds it dynamically across queries:
//
//   - An exact hit returns a clone of the resident tree — no delta I/O.
//   - A miss asks the store's planner, handing it the document's resident
//     versions (Resident): the planner may start from any of them, before
//     or after the target, when that is cheaper than a stored snapshot.
//     History walks take the same hook, so a run of resident versions is
//     walked without reading an extent.
//   - Concurrent misses for the same version collapse into a single
//     flight: one goroutine reconstructs, the rest wait and share the
//     result.
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
	"txmldb/internal/xmltree"
)

// Source is the reconstruction backend beneath the cache. *store.Store
// implements it. The context bounds the backend reads: retry backoff
// aborts when it is canceled, and the store's circuit breaker may reject
// reads fast while open — either way the error propagates to every
// goroutine collapsed onto the flight and is never cached.
type Source interface {
	// ReconstructWith materializes one version, possibly starting from or
	// passing through a version res holds (res may be nil), and returns a
	// tree the caller owns.
	ReconstructWith(ctx context.Context, doc model.DocID, ver model.VersionNo, res store.Resident) (store.VersionTree, error)
}

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes is the residency budget: the sum of the deep sizes of all
	// cached trees never exceeds it (least-recently-used versions are
	// evicted). Zero or negative disables the cache at the layer that
	// owns it (core.Config); the constructor itself treats <= 0 as a
	// minimal 1 MiB budget so a directly-constructed cache always works.
	MaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 20
	}
	return c
}

// Stats is a consistent snapshot of the cache counters. Lookups is always
// Hits + Misses; CollapsedFlights is a subset of Misses.
type Stats struct {
	Lookups          int64 // Get calls
	Hits             int64 // exact (doc, version) hits
	Misses           int64 // everything else, including collapsed waiters
	CollapsedFlights int64 // misses that waited on another goroutine's reconstruction
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

	// Lead a new flight. Snapshot the generation under the lock;
	// reconstruct outside it, planning with the resident versions.
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	gen := c.gens[doc]
	c.mu.Unlock()

	vt, err := c.src.ReconstructWith(ctx, doc, ver, c.Resident(doc))

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
		// Install only if no invalidation raced the reconstruction: a
		// write to this document may have changed the validity interval
		// carried in vt.Info between our snapshot of the generation and
		// now.
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
// use it to convert their walk into future hits). The tree is
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

// Resident returns the store planner's hook over the versions of doc
// resident now: the store may start a reconstruction or a history walk
// from any of them, or pick them up on its way, instead of reading
// extents. The hook is a snapshot: it never takes the cache's lock, and
// the trees it hands out are the cache's own, which the store only reads.
// Content is immutable, so it serves pinned readers too. A nil cache has
// no hook.
func (c *Cache) Resident(doc model.DocID) store.Resident {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	vers := c.byDoc[doc]
	if len(vers) == 0 {
		return nil
	}
	trees := make(map[model.VersionNo]*xmltree.Node, len(vers))
	for v, el := range vers {
		trees[v] = el.Value.(*entry).vt.Root
	}
	return func(v model.VersionNo) *xmltree.Node { return trees[v] }
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
