// Package core composes the temporal XML database: the version store
// (complete current version + completed delta chain, Section 7.1), the
// temporal full-text index (Section 7.2), the auxiliary create/delete-time
// index (Section 7.3.6) and the pattern matcher — and exposes the eleven
// temporal query operators of Section 6.1 plus the query language executor.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/diff"
	"txmldb/internal/doctime"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/parallel"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/resilience"
	"txmldb/internal/store"
	"txmldb/internal/tidx"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// IndexKind selects the FTI maintenance alternative of Section 7.2.
type IndexKind uint8

const (
	// IndexVersions indexes version contents — the paper's choice.
	IndexVersions IndexKind = iota
	// IndexDeltas indexes the delta documents.
	IndexDeltas
	// IndexBoth maintains both indexes.
	IndexBoth
)

func (k IndexKind) String() string {
	switch k {
	case IndexVersions:
		return "versions"
	case IndexDeltas:
		return "deltas"
	case IndexBoth:
		return "both"
	default:
		return fmt.Sprintf("IndexKind(%d)", uint8(k))
	}
}

// Config parameterizes a DB.
type Config struct {
	// Store configures the version store and its simulated disk.
	Store store.Config
	// Index selects the FTI alternative (default: IndexVersions). The
	// CreTime/DelTime index of Section 7.3.6 is always kept beside it.
	Index IndexKind
	// Clock supplies the current transaction time for NOW and PatternScan
	// on the current state; defaults to wall-clock time.
	Clock func() model.Time
	// DocTimePaths enables the document-time index (Section 3.1 of the
	// paper): slash-separated element paths whose text holds a timestamp
	// inside the document, e.g. "item/published".
	DocTimePaths []string
	// Cache configures the shared version-reconstruction cache
	// (internal/vcache): a byte-budgeted LRU of materialized versions with
	// singleflight collapse, whose resident versions the store's
	// reconstruction planner may start from, shared by every operator that
	// materializes a version. MaxBytes <= 0
	// leaves the cache disabled (the default, so operator-level
	// benchmarks keep measuring the raw reconstruction path).
	Cache vcache.Config
	// Workers bounds the shared worker pool beneath the multi-document
	// operators (TPatternScanAll, Diff and ReconstructBatch). History
	// walks (DocHistory, ElementHistory, [EVERY], [t1 TO t2]) are one
	// sequential backward walk at every width. 0 defaults to GOMAXPROCS;
	// 1 forces the inline sequential path, whose results every parallel
	// run is guaranteed to reproduce byte-for-byte.
	Workers int
	// Resilience configures the health tier (internal/resilience): a
	// circuit breaker around backend reads plus per-component health state
	// machines driving degraded cache-first serving. Enabled=false (the
	// default) leaves it off, preserving raw fault behaviour.
	Resilience resilience.Config
	// Checkpoint configures the checkpoint & compaction subsystem of
	// durable databases (internal/checkpoint): segment size, automatic
	// triggers (EveryCommits / EveryBytes) and image retention. The zero
	// value disables automatic checkpoints; DB.Checkpoint still works.
	Checkpoint checkpoint.Config
	// OpenLogf, when non-nil, receives the one-line recovery summary of
	// OpenDurable (source, replay and reindex cost); the CLIs pass
	// log.Printf. Nil keeps opens silent.
	OpenLogf func(format string, args ...any)
}

// DB is a temporal XML database.
type DB struct {
	Operators // the operators of Section 6.1, composed over this DB
	store     *store.Store
	ix        *indexes
	vcache    *vcache.Cache    // nil when disabled
	pool      *parallel.Pool   // shared worker pool of the parallel tier
	res       *resilience.Tier // nil when disabled
	clock     func() model.Time

	// wmu is the writer gate of the checkpoint subsystem: Put/Update/Delete
	// hold it shared for the duration of a mutation, checkpoint capture
	// holds it exclusively for the (brief) in-memory snapshot. Reads never
	// touch it.
	wmu sync.RWMutex

	// Durable-tier checkpoint state; all nil/zero on non-durable databases.
	segwal        *pagestore.SegmentedWAL
	ckpt          *checkpoint.Checkpointer
	ckptCfg       checkpoint.Config
	ckptBusy      atomic.Bool
	ckptMu        sync.Mutex // guards ckptStats and ckptBytesMark
	ckptStats     CheckpointStats
	ckptBytesMark int64 // BytesAppended at the last checkpoint (EveryBytes trigger)
	openRep       OpenReport
}

var _ plan.Engine = (*DB)(nil)

// Open creates an empty database.
func Open(cfg Config) *DB {
	attachTier(&cfg)
	return assemble(cfg, store.New(cfg.Store))
}

// attachTier builds the resilience tier (when enabled) and injects it into
// the store configuration, so the store's read path and the DB's serving
// policy share one breaker and one set of health machines. A tier already
// present in cfg.Store.Resilience is reused.
func attachTier(cfg *Config) *resilience.Tier {
	if cfg.Store.Resilience == nil {
		cfg.Store.Resilience = resilience.New(cfg.Resilience)
	}
	return cfg.Store.Resilience
}

// assemble builds a DB around an existing version store.
func assemble(cfg Config, st *store.Store) *DB {
	db := &DB{
		store: st,
		ix:    newIndexes(cfg),
		res:   st.Resilience(),
		clock: cfg.Clock,
	}
	if cfg.Cache.MaxBytes > 0 {
		db.vcache = vcache.New(st, cfg.Cache)
	}
	db.pool = parallel.New(parallel.Config{Workers: cfg.Workers})
	db.Operators = NewOperators(db, db.pool)
	if db.clock == nil {
		db.clock = func() model.Time { return model.TimeOf(time.Now()) }
	}
	return db
}

// Store exposes the version store (benchmarks and tools use it).
func (db *DB) Store() *store.Store { return db.store }

// FTI exposes the full-text index.
func (db *DB) FTI() fti.Index { return db.ix.fti }

// TimeIndex exposes the CreTime/DelTime index.
func (db *DB) TimeIndex() *tidx.Index { return db.ix.times }

// DocTimeRange returns the elements whose *document* time — a timestamp
// carried in the document content at one of the configured DocTimePaths —
// lies in [from, to). It fails when the index was not configured.
func (db *DB) DocTimeRange(iv model.Interval) ([]doctime.Entry, error) {
	return db.ix.docTimeRange(iv)
}

// Now implements plan.Engine.
func (db *DB) Now() model.Time { return db.clock() }

// Pool exposes the shared worker pool; the serving layer registers its
// counters on /metrics, and callers composing their own fan-out (batch
// endpoints) schedule through it so the per-process concurrency bound
// holds across requests.
func (db *DB) Pool() *parallel.Pool { return db.pool }

// PoolStats returns the worker-pool counters.
func (db *DB) PoolStats() parallel.Stats { return db.pool.Stats() }

// Resilience exposes the health tier, nil when disabled.
func (db *DB) Resilience() *resilience.Tier { return db.res }

// Health returns a snapshot of the resilience tier; ok is false when the
// tier is disabled. The serving layer maps it onto /readyz and /metrics.
func (db *DB) Health() (resilience.Snapshot, bool) {
	if db.res == nil {
		return resilience.Snapshot{}, false
	}
	return db.res.Snapshot(), true
}

// DegradedMode implements plan.Engine: true while the tier is serving
// cache-first with writes rejected. The executor asks after every query,
// so it probes a degraded backend first (resilience.Tier.Recover).
func (db *DB) DegradedMode() bool { return db.res.Recover(db.store.Probe) }

// RetryAfter suggests how long a caller rejected by the resilience tier
// should wait before retrying — the breaker's remaining open window,
// never under a second. The serving layer turns it into a Retry-After
// header.
func (db *DB) RetryAfter() time.Duration { return db.res.RetryAfter() }

// checkWritable rejects writes while the tier is degraded: a mutation
// would have to touch the sick backend (and, for corruption, could graft
// new versions onto a damaged chain), so the DB is read-only until the
// tier recovers, which this check probes. Errors wrap resilience.ErrDegraded.
func (db *DB) checkWritable(op string) error {
	if db.DegradedMode() {
		db.res.NoteDegradedReject()
		return fmt.Errorf("core: %s rejected, %s: %w", op, db.res.State(), resilience.ErrDegraded)
	}
	return nil
}

// --- document lifecycle ---

// Put stores the first version of a document at time t.
func (db *DB) Put(url string, root *xmltree.Node, t model.Time) (model.DocID, error) {
	id, err := db.putGated(url, root, t)
	if err == nil {
		db.maybeCheckpoint()
	}
	return id, err
}

// putGated is Put under the shared writer gate: a checkpoint capture sees
// either none or all of the mutation (store + indexes).
func (db *DB) putGated(url string, root *xmltree.Node, t model.Time) (model.DocID, error) {
	db.wmu.RLock()
	defer db.wmu.RUnlock()
	if err := db.checkWritable("put"); err != nil {
		return 0, err
	}
	id, err := db.store.Put(url, root, t)
	if err != nil {
		return 0, err
	}
	// Maintenance only reads the version: index it from the store's own
	// published tree, not a copy.
	cur, _, err := db.store.Published(id)
	if err != nil {
		return 0, err
	}
	if err := db.ix.add(id, cur, nil, t); err != nil {
		return 0, fmt.Errorf("core: index maintenance: %w", err)
	}
	return id, nil
}

// Update stores a new version of the document at time t and maintains all
// indexes from the completed delta. It returns the new version number and
// the delta script.
func (db *DB) Update(id model.DocID, root *xmltree.Node, t model.Time) (model.VersionNo, *diff.Script, error) {
	ver, script, err := db.updateGated(id, root, t)
	if err == nil {
		db.maybeCheckpoint()
	}
	return ver, script, err
}

// updateGated is Update under the shared writer gate.
func (db *DB) updateGated(id model.DocID, root *xmltree.Node, t model.Time) (model.VersionNo, *diff.Script, error) {
	db.wmu.RLock()
	defer db.wmu.RUnlock()
	if err := db.checkWritable("update"); err != nil {
		return 0, nil, err
	}
	ver, script, err := db.store.Update(id, root, t)
	if err != nil {
		return 0, nil, err
	}
	if db.vcache != nil {
		// Drop cached versions of the document before Update returns: the
		// formerly-current version's validity interval just closed, and
		// in-flight reconstructions must not install stale metadata.
		db.vcache.InvalidateDoc(id)
	}
	cur, _, err := db.store.Published(id) // read-only, as in putGated
	if err != nil {
		return 0, nil, err
	}
	if err := db.ix.add(id, cur, script, t); err != nil {
		return 0, nil, fmt.Errorf("core: index maintenance: %w", err)
	}
	return ver, script, nil
}

// Delete removes the document at time t; its history stays queryable.
func (db *DB) Delete(id model.DocID, t model.Time) error {
	err := db.deleteGated(id, t)
	if err == nil {
		db.maybeCheckpoint()
	}
	return err
}

// deleteGated is Delete under the shared writer gate.
func (db *DB) deleteGated(id model.DocID, t model.Time) error {
	db.wmu.RLock()
	defer db.wmu.RUnlock()
	if err := db.checkWritable("delete"); err != nil {
		return err
	}
	if err := db.store.Delete(id, t); err != nil {
		return err
	}
	if db.vcache != nil {
		db.vcache.InvalidateDoc(id)
	}
	if err := db.ix.del(id, t); err != nil {
		return fmt.Errorf("core: index maintenance: %w", err)
	}
	return nil
}

// LookupDoc implements plan.Engine.
func (db *DB) LookupDoc(url string) (model.DocID, bool) { return db.store.Lookup(url) }

// Info returns document metadata.
func (db *DB) Info(id model.DocID) (store.DocInfo, error) { return db.store.Info(id) }

// Docs lists all documents ever stored.
func (db *DB) Docs() []model.DocID { return db.store.Docs() }

// Current returns the live current version of a document.
func (db *DB) Current(id model.DocID) (*xmltree.Node, store.VersionInfo, error) {
	return db.store.Current(id)
}

// --- the primitives the operators of Section 6.1 compose ---

// ScanTContext implements plan.Engine: TPatternScan with the per-document
// join on the shared worker pool, under the caller's context.
func (db *DB) ScanTContext(ctx context.Context, p *pattern.PNode, t model.Time) ([]pattern.Match, error) {
	ms, err := pattern.ScanTPool(ctx, db.ix.fti, p, t, db.pool)
	if err != nil {
		return nil, err
	}
	return db.clampMatches(ctx, ms), nil
}

// ScanAllContext implements plan.Engine: TPatternScanAll under the
// caller's context.
func (db *DB) ScanAllContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error) {
	ms, err := pattern.ScanAllPool(ctx, db.ix.fti, p, db.pool)
	if err != nil {
		return nil, err
	}
	return db.clampMatches(ctx, ms), nil
}

// ScanCurrentContext implements plan.Engine: the non-temporal PatternScan
// under the caller's context.
func (db *DB) ScanCurrentContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error) {
	ms, err := pattern.ScanCurrentPool(ctx, db.ix.fti, p, db.pool)
	if err != nil {
		return nil, err
	}
	return db.clampMatches(ctx, ms), nil
}

// DocHistoryContext implements plan.Engine: the versions of the document
// valid in iv, most recent first, from the store's walk of Section 7.3.4,
// one reconstruction plus one delta per version. The walk starts from and
// picks up the cache's resident versions at any pin, since a version's
// content is immutable, and offers the cache the closed versions, oldest
// first: a closed version's info is final, while the open one's changes
// when the next version is published and is clamped under a pin.
func (db *DB) DocHistoryContext(ctx context.Context, id model.DocID, iv model.Interval) ([]store.VersionTree, error) {
	out, err := db.store.DocHistoryWith(ctx, id, iv, db.vcache.Resident(id))
	if err != nil {
		return nil, err
	}
	if db.vcache != nil {
		for i := len(out) - 1; i >= 0; i-- {
			if out[i].Info.End != model.Forever {
				db.vcache.Add(id, out[i])
			}
		}
	}
	return out, nil
}

// ReconstructVersionContext implements plan.Engine. With the cache enabled
// this is the shared entry point that gives the plan executor, server, CLI
// and operators exact hits, plans from resident versions and singleflight
// collapse transparently. Exact cache hits never touch the backend, and
// neither does the current version (the store keeps it whole, Section
// 7.1), so both are served even while the circuit breaker is open.
// Anything else propagates the typed failure fast.
func (db *DB) ReconstructVersionContext(ctx context.Context, id model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	_, pinnedRead := store.EpochOf(ctx)
	var vt store.VersionTree
	var err error
	if db.vcache != nil {
		fetchCtx := ctx
		if pinnedRead {
			// Fetch through the cache at the live horizon: a committed
			// version's content is immutable, so the bytes are identical,
			// and the cache stays free of pin-clamped validity metadata.
			// The caller's pinned view of the metadata is re-derived below.
			fetchCtx = store.WithEpoch(ctx, 0)
		}
		vt, err = db.vcache.GetContext(fetchCtx, id, ver)
	} else {
		vt, err = db.store.ReconstructVersionContext(ctx, id, ver)
	}
	if err != nil || !pinnedRead {
		return vt, err
	}
	if vt.Info, err = db.store.ClampInfoContext(ctx, id, vt.Info); err != nil {
		return store.VersionTree{}, err
	}
	return vt, nil
}

// CacheStats returns the version-cache counters; ok is false when the
// cache is disabled.
func (db *DB) CacheStats() (vcache.Stats, bool) {
	if db.vcache == nil {
		return vcache.Stats{}, false
	}
	return db.vcache.Stats(), true
}

// PurgeCache empties the version cache (cold-cache benchmark runs). It is
// a no-op when the cache is disabled.
func (db *DB) PurgeCache() {
	if db.vcache != nil {
		db.vcache.Purge()
	}
}

// IOStats returns the simulated-disk counters, including the buffer
// pool's hit/miss/eviction counts (the serving layer exposes them on
// /metrics).
func (db *DB) IOStats() pagestore.IOStats { return db.store.Pages().Stats() }

// Versions returns the document's delta index, one entry per version in
// ascending order.
func (db *DB) Versions(id model.DocID) ([]store.VersionInfo, error) {
	return db.store.Versions(id)
}

// VersionsContext implements plan.Engine: the version list clamped to the
// epoch pin carried by ctx, so [EVERY] and interval expansions inside a
// pinned query never select post-pin versions.
func (db *DB) VersionsContext(ctx context.Context, id model.DocID) ([]store.VersionInfo, error) {
	return db.store.VersionsContext(ctx, id)
}

// VersionAtContext returns the document version valid at t.
func (db *DB) VersionAtContext(ctx context.Context, id model.DocID, t model.Time) (store.VersionInfo, error) {
	return db.store.VersionAtContext(ctx, id, t)
}

// CreTime returns the element's creation time from the CreTime/DelTime
// index of Section 7.3.6; the store's CreTimeTraverse and
// CreTimeTraverseFromCurrent are the paper's traversal strategies.
func (db *DB) CreTime(eid model.EID) (model.Time, error) {
	if t, ok := db.ix.times.CreTime(eid); ok {
		return t, nil
	}
	return 0, fmt.Errorf("core: unknown element %s", eid)
}

// DelTime returns the element's deletion time (Forever while it exists).
func (db *DB) DelTime(eid model.EID) (model.Time, error) {
	if t, ok := db.ix.times.DelTime(eid); ok {
		return t, nil
	}
	return 0, fmt.Errorf("core: unknown element %s", eid)
}

// PreviousTS returns the document version preceding the one valid at the
// TEID's timestamp.
func (db *DB) PreviousTS(teid model.TEID) (store.VersionInfo, error) {
	return db.store.PreviousTS(teid.E.Doc, teid.T)
}

// NextTS returns the document version following the one valid at the
// TEID's timestamp.
func (db *DB) NextTS(teid model.TEID) (store.VersionInfo, error) {
	return db.store.NextTS(teid.E.Doc, teid.T)
}

// CurrentTS returns the current version of the element's document.
func (db *DB) CurrentTS(eid model.EID) (store.VersionInfo, error) {
	return db.store.CurrentTS(eid.Doc)
}

// QueryContext parses and executes a temporal query under a context:
// cancellation and deadline expiry abort execution between reconstructions
// and rows, returning the context's error. The request-scoped entry point
// the query server uses. While the resilience tier is degraded, queries
// that complete from cache-resident versions or the in-memory current
// snapshot succeed flagged Result.Degraded; queries needing the sick
// backend fail fast with an error wrapping resilience.ErrCircuitOpen.
func (db *DB) QueryContext(ctx context.Context, src string) (*plan.Result, error) {
	// Pin the commit horizon once: the whole query observes one consistent
	// snapshot while concurrent writers keep publishing (see epoch.go).
	ctx = db.pinned(ctx)
	res, err := plan.RunStringContext(ctx, db, src)
	if err != nil {
		if errors.Is(err, resilience.ErrCircuitOpen) {
			db.res.NoteDegradedReject()
		}
		return nil, err
	}
	if res.Degraded {
		db.res.NoteDegradedServe()
	}
	return res, nil
}
