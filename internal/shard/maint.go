package shard

import (
	"errors"
	"fmt"

	"txmldb/internal/checkpoint"
	"txmldb/internal/core"
	"txmldb/internal/pagestore"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
)

// Maintenance fans out to every shard and keeps going past per-shard
// failures: a checkpoint that succeeds on seven shards and fails on one
// should persist the seven, and the joined error names the eighth.

// Checkpoint runs a checkpoint on every durable shard and returns the
// summed run statistics (File summarizes the fan-out; per-shard image
// names are in each shard's CheckpointStats).
func (r *Router) Checkpoint() (checkpoint.RunStats, error) {
	var agg checkpoint.RunStats
	var errs []error
	ran := 0
	for i, db := range r.shards {
		st, err := db.Checkpoint()
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			continue
		}
		ran++
		agg.Bytes += st.Bytes
		agg.Extents += st.Extents
		agg.SegmentsDeleted += st.SegmentsDeleted
		agg.CheckpointsDeleted += st.CheckpointsDeleted
		agg.Duration += st.Duration
	}
	agg.File = fmt.Sprintf("%d/%d shards", ran, r.n)
	return agg, errors.Join(errs...)
}

// CheckpointStats sums the per-shard checkpointer counters; ok is false
// when no shard is durable. LastFile/LastBytes/LastDuration report the
// highest-numbered durable shard's last image (a representative; the
// full per-shard view is ShardStats).
func (r *Router) CheckpointStats() (core.CheckpointStats, bool) {
	var agg core.CheckpointStats
	any := false
	for _, db := range r.shards {
		st, ok := db.CheckpointStats()
		if !ok {
			continue
		}
		any = true
		agg.Runs += st.Runs
		agg.Errors += st.Errors
		agg.SegmentsDeleted += st.SegmentsDeleted
		agg.LastFile = st.LastFile
		agg.LastBytes = st.LastBytes
		agg.LastDuration = st.LastDuration
	}
	return agg, any
}

// WALSegments sums the live WAL segment counts across shards.
func (r *Router) WALSegments() (n int64) {
	for _, db := range r.shards {
		n += db.WALSegments()
	}
	return n
}

// WALStats sums the per-shard WAL counters; ok is false when no shard is
// durable.
func (r *Router) WALStats() (pagestore.WALStats, bool) {
	var agg pagestore.WALStats
	any := false
	for _, db := range r.shards {
		st, ok := db.WALStats()
		if !ok {
			continue
		}
		any = true
		agg.Records += st.Records
		agg.Commits += st.Commits
		agg.Syncs += st.Syncs
		agg.BytesAppended += st.BytesAppended
		agg.PayloadBytes += st.PayloadBytes
		agg.RecoveredBytes += st.RecoveredBytes
		agg.TruncatedOnOpen += st.TruncatedOnOpen
		agg.ReplayedCommits += st.ReplayedCommits
		agg.ReplayedExtents += st.ReplayedExtents
		agg.SegmentsScanned += st.SegmentsScanned
	}
	return agg, any
}

// CommitBatchStats sums the per-shard WAL group-commit counters; ok is
// false when no shard has commit batching configured. Each shard owns an
// independent batcher (its engine's page store), so MaxBatch is the
// largest any one shard amortized into a single fsync.
func (r *Router) CommitBatchStats() (pagestore.GroupStats, bool) {
	var agg pagestore.GroupStats
	any := false
	for _, db := range r.shards {
		st, ok := db.CommitBatchStats()
		if !ok {
			continue
		}
		any = true
		agg.Commits += st.Commits
		agg.Batches += st.Batches
		agg.Failures += st.Failures
		if st.MaxBatch > agg.MaxBatch {
			agg.MaxBatch = st.MaxBatch
		}
	}
	return agg, any
}

// Vacuum applies the retention policy on every shard and merges the
// reports; the checkpoint half of the return sums like Checkpoint's.
func (r *Router) Vacuum(ret store.Retention) (store.VacuumReport, checkpoint.RunStats, error) {
	var rep store.VacuumReport
	var run checkpoint.RunStats
	var errs []error
	ran := 0
	for i, db := range r.shards {
		vr, cs, err := db.Vacuum(ret)
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			continue
		}
		ran++
		rep.Docs += vr.Docs
		rep.VersionsPruned += vr.VersionsPruned
		rep.ExtentsFreed += vr.ExtentsFreed
		rep.BytesFreed += vr.BytesFreed
		rep.SnapshotsAdded += vr.SnapshotsAdded
		run.Bytes += cs.Bytes
		run.Extents += cs.Extents
		run.SegmentsDeleted += cs.SegmentsDeleted
		run.CheckpointsDeleted += cs.CheckpointsDeleted
		run.Duration += cs.Duration
	}
	run.File = fmt.Sprintf("%d/%d shards", ran, r.n)
	return rep, run, errors.Join(errs...)
}

// Fsck walks every shard's store and merges the reports, with each
// problem's DocID translated to the global space (a zero Doc means the
// shard document predates the docmap — it should not happen, and is left
// untranslated so the problem still surfaces).
func (r *Router) Fsck() store.FsckReport {
	var agg store.FsckReport
	for s, db := range r.shards {
		rep := db.Fsck()
		agg.Docs += rep.Docs
		agg.Versions += rep.Versions
		agg.Extents += rep.Extents
		for _, p := range rep.Problems {
			if g, ok := r.globalOf(s, p.Doc); ok {
				p.Doc = g
			}
			agg.Problems = append(agg.Problems, p)
		}
	}
	return agg
}

// CacheStats sums the per-shard version-cache counters; ok is false when
// no shard has a cache.
func (r *Router) CacheStats() (vcache.Stats, bool) {
	var agg vcache.Stats
	any := false
	for _, db := range r.shards {
		st, ok := db.CacheStats()
		if !ok {
			continue
		}
		any = true
		agg.Lookups += st.Lookups
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.CollapsedFlights += st.CollapsedFlights
		agg.Evictions += st.Evictions
		agg.Invalidations += st.Invalidations
		agg.Fills += st.Fills
		agg.ResidentBytes += st.ResidentBytes
		agg.Entries += st.Entries
	}
	return agg, any
}

// PurgeCache empties every shard's version cache.
func (r *Router) PurgeCache() {
	for _, db := range r.shards {
		db.PurgeCache()
	}
}

// IOStats sums the simulated-disk counters across shards.
func (r *Router) IOStats() pagestore.IOStats {
	var agg pagestore.IOStats
	for _, db := range r.shards {
		agg = agg.Add(db.IOStats())
	}
	return agg
}
