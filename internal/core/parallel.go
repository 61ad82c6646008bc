package core

import (
	"context"

	"txmldb/internal/model"
	"txmldb/internal/parallel"
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
