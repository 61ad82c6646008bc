// Fixture for the epochpin analyzer, query-plan side. The path segment
// "plan" puts this package inside the analyzer's gate and makes its
// exported Run entry point a reachability root. The Engine interface
// mirrors the real plan.Engine shape; the concrete implementation lives
// in the sibling core fixture, so the only route from RunContext to the
// Versions call there is a devirtualized interface edge — this is the
// cross-package call-graph fixture.
package plan

import "context"

// Key is declared here and named by Engine, an interface naming its own
// package's type: the core fixture sees it through export data while
// this package is checked from source, so devirtualizing Engine must
// match signatures across the two type universes.
type Key struct{ Doc string }

// Engine is the interface the executor drives; the core fixture's DB
// implements it.
type Engine interface {
	QueryContext(ctx context.Context) context.Context
	Snapshot(doc string) []int
	Prefetch(keys []Key) (ran bool)
}

// RunContext is a reachability root (exported Run* in a plan package).
func RunContext(ctx context.Context, e Engine) []int {
	ctx = e.QueryContext(ctx)
	_ = ctx
	return e.Snapshot("doc")
}
