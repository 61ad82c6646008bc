// Fixture for the epochpin analyzer, engine side. DB implements the plan
// fixture's Engine interface; Snapshot is reached from plan.RunContext
// only through the devirtualized interface edge, and its direct
// Versions() call is the positive finding. The pinned variant and the
// function outside any query path are the negatives.
package core

import (
	"context"

	"txmldb/internal/analysis/epochpin/testdata/src/plan"
)

type DB struct {
	versions map[string][]int
}

func (db *DB) QueryContext(ctx context.Context) context.Context {
	return ctx // the real one pins the epoch; the shape is what matters here
}

// Prefetch names the plan fixture's own type: DB implements plan.Engine
// only when signatures are compared across type universes.
func (db *DB) Prefetch([]plan.Key) bool { return false }

// Snapshot is on the pinned query path (RunContext → Snapshot via the
// Engine interface) and reads the live version list.
func (db *DB) Snapshot(doc string) []int {
	return db.Versions(doc) // want "unpinned Versions\\(\\) on pinned query path"
}

// SnapshotPinned uses the clamping API: clean.
func (db *DB) SnapshotPinned(ctx context.Context, doc string) []int {
	return db.VersionsContext(ctx, doc)
}

// Versions is the unpinned compatibility shim — exempt as a caller.
func (db *DB) Versions(doc string) []int {
	return db.versions[doc]
}

// VersionsContext clamps to the epoch pinned in ctx (elided here) —
// exempt as a caller even though it reads the live list.
func (db *DB) VersionsContext(ctx context.Context, doc string) []int {
	_ = ctx
	return db.versions[doc]
}

// Dump is not reachable from any QueryContext or plan entry point, so
// its direct Versions call is fine: maintenance paths need the live list.
func Dump(db *DB) []int {
	return db.Versions("doc")
}
