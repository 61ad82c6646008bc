package core

import (
	"context"
	"sync"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/parallel"
	"txmldb/internal/plan"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// Pool exposes the shared worker pool; the serving layer registers its
// counters on /metrics, and callers composing their own fan-out (batch
// endpoints) schedule through it so the per-process concurrency bound
// holds across requests.
func (db *DB) Pool() *parallel.Pool { return db.pool }

// PoolStats returns the worker-pool counters.
func (db *DB) PoolStats() parallel.Stats { return db.pool.Stats() }

// ReconstructBatch materializes many element versions, fanning the
// independent reconstructions out over the shared worker pool. Results
// are returned in input order; the first failure cancels the remaining
// work and is returned. Each reconstruction goes through the version
// cache (when enabled), so concurrent requests for the same version
// collapse into one flight.
func (db *DB) ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error) {
	return parallel.Map(ctx, db.pool, "reconstruct", len(teids), func(i int) (*xmltree.Node, error) {
		return db.ReconstructContext(ctx, teids[i])
	})
}

// minHistoryChunk is the smallest number of versions worth assigning to a
// history chunk: below it the per-chunk head reconstruction dominates the
// deltas it saves.
const minHistoryChunk = 2

// parallelDocHistory reconstructs the versions of the document overlapping
// iv by splitting the version range into contiguous chunks, one worker
// each: a chunk reconstructs its newest version (through the version
// cache when enabled, so snapshots and cached ancestors bound the replay)
// and walks backwards with inverted deltas, exactly like the sequential
// algorithm of Section 7.3.4 but on a sub-range.
//
// Version metadata is snapshotted once up front, so the returned Info
// entries are consistent with each other even if writers race the walk.
// Completed deltas and non-current snapshots are immutable, which makes
// the chunk walks safe; the one mutable extent (the formerly-current
// snapshot freed by a racing Update) is handled by reconstruction's
// fall-forward, and any chunk error abandons the parallel attempt in
// favor of the atomic sequential walk.
//
// ok is false when the parallel path does not apply (single worker, no
// snapshots or cache to bound chunk heads, too few versions) or failed;
// the caller then runs the sequential path.
func (db *DB) parallelDocHistory(ctx context.Context, id model.DocID, iv model.Interval) ([]store.VersionTree, bool) {
	workers := db.pool.Workers()
	if workers <= 1 {
		return nil, false
	}
	// Without interspersed snapshots or a version cache every chunk head
	// pays a full backward replay from the current version, which costs
	// more than the single pass it replaces.
	if db.store.SnapshotEvery() <= 0 && db.vcache == nil {
		return nil, false
	}
	versions, err := db.store.VersionsContext(ctx, id)
	if err != nil {
		return nil, false
	}
	// The versions overlapping [from, to) form one contiguous run, since
	// validity intervals partition the document's lifetime.
	first, last := -1, -1
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].Interval().Overlaps(iv) {
			last = i
			break
		}
	}
	if last < 0 {
		return nil, false
	}
	for i := 0; i <= last; i++ {
		if versions[i].Interval().Overlaps(iv) {
			first = i
			break
		}
	}
	n := last - first + 1
	chunks := workers
	if max := n / minHistoryChunk; chunks > max {
		chunks = max
	}
	if chunks <= 1 {
		return nil, false
	}
	// Chunk c covers indices [first+c*n/chunks, first+(c+1)*n/chunks).
	parts, err := parallel.Map(ctx, db.pool, "history", chunks,
		func(c int) ([]store.VersionTree, error) {
			lo := first + c*n/chunks
			hi := first + (c+1)*n/chunks - 1
			return db.historyChunk(ctx, id, versions, lo, hi)
		})
	if err != nil {
		return nil, false
	}
	// Chunks are index-ascending; output is most recent first.
	var out []store.VersionTree
	for c := len(parts) - 1; c >= 0; c-- {
		out = append(out, parts[c]...)
	}
	return out, true
}

// historyChunk reconstructs versions[lo..hi] (indices into the snapshotted
// metadata), most recent first.
func (db *DB) historyChunk(ctx context.Context, id model.DocID, versions []store.VersionInfo, lo, hi int) ([]store.VersionTree, error) {
	vt, err := db.ReconstructVersionContext(ctx, id, versions[hi].Ver)
	if err != nil {
		return nil, err
	}
	tree := vt.Root // owned: ReconstructVersionContext returns a private tree
	ap := diff.NewApplier(tree)
	out := make([]store.VersionTree, 0, hi-lo+1)
	for i := hi; i >= lo; i-- {
		out = append(out, store.VersionTree{Info: versions[i], Root: tree.Clone()})
		if i > lo {
			script, err := db.store.ReadDeltaContext(ctx, id, versions[i-1].Ver)
			if err != nil {
				return nil, err
			}
			if err := ap.Apply(script.Invert()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// PrefetchVersions implements plan.Engine: it materializes the given
// document versions on the worker pool, handing each to sink as it
// completes (serialized by a mutex, so the executor's tree cache needs no
// locking of its own). Reconstructions go through the version cache when
// enabled, so concurrent queries collapse duplicate flights. With a
// single worker it reports ran=false and does nothing — the executor's
// on-demand path is then byte-identical to the historical sequential
// plan.
func (db *DB) PrefetchVersions(ctx context.Context, keys []plan.VersionKey, sink func(plan.VersionKey, store.VersionTree)) (bool, error) {
	if db.pool.Workers() <= 1 {
		return false, nil
	}
	var mu sync.Mutex
	err := db.pool.Run(ctx, "plan", len(keys), func(i int) error {
		vt, err := db.ReconstructVersionContext(ctx, keys[i].Doc, keys[i].Ver)
		if err != nil {
			return err
		}
		mu.Lock()
		sink(keys[i], vt)
		mu.Unlock()
		return nil
	})
	return true, err
}
