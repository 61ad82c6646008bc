package shard

import (
	"context"
	"fmt"
	"sort"

	"txmldb/internal/core"
	"txmldb/internal/diff"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/parallel"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// --- write path ---
//
// Writes hold the router lock exclusively for the whole operation: global
// DocIDs must be allocated in shard-commit order so docmap.log replays to
// the same space, and so the allocation sequence matches what a single
// unsharded engine (whose store also serializes writes) would produce.

// Put stores the first version of a new document on its home shard and
// returns its global DocID.
func (r *Router) Put(url string, root *xmltree.Node, t model.Time) (model.DocID, error) {
	s := r.homeShard(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	release := r.gates[s].enter()
	local, err := r.shards[s].Put(url, root, t)
	release()
	if err != nil {
		return 0, err
	}
	g := r.adopt(s, local)
	if err := r.appendRecord(g, s, local, url); err != nil {
		return 0, fmt.Errorf("shard: docmap append: %w", err)
	}
	return g, nil
}

// route runs fn on the home shard of global DocID g, inside that shard's
// admission gate, with g translated to the shard-local DocID: the one path
// of every single-document primitive.
func route[T any](r *Router, g model.DocID, fn func(db *core.DB, local model.DocID) (T, error)) (T, error) {
	s, local, err := r.locate(g)
	if err != nil {
		var zero T
		return zero, err
	}
	defer r.gates[s].enter()()
	return fn(r.shards[s], local)
}

// Update stores a new version of the document.
func (r *Router) Update(id model.DocID, root *xmltree.Node, t model.Time) (ver model.VersionNo, script *diff.Script, err error) {
	script, err = route(r, id, func(db *core.DB, l model.DocID) (sc *diff.Script, err error) {
		ver, sc, err = db.Update(l, root, t)
		return sc, err
	})
	return ver, script, err
}

// Delete ends the document's life at t. Its history stays queryable.
func (r *Router) Delete(id model.DocID, t model.Time) error {
	_, err := route(r, id, func(db *core.DB, l model.DocID) (struct{}, error) {
		return struct{}{}, db.Delete(l, t)
	})
	return err
}

// --- identity and metadata ---

// Now implements plan.Engine. Shard clocks are expected to agree; shard 0
// answers for the ensemble.
func (r *Router) Now() model.Time { return r.shards[0].Now() }

// LookupDoc implements plan.Engine: URL to global DocID.
func (r *Router) LookupDoc(url string) (model.DocID, bool) {
	s := r.homeShard(url)
	local, ok := r.shards[s].LookupDoc(url)
	if !ok {
		return 0, false
	}
	return r.globalOf(s, local)
}

// Info returns document metadata with the global DocID.
func (r *Router) Info(id model.DocID) (store.DocInfo, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return store.DocInfo{}, err
	}
	info, err := r.shards[s].Info(local)
	if err != nil {
		return store.DocInfo{}, err
	}
	info.ID = id
	return info, nil
}

// Docs lists all documents ever stored, ascending. Globals are allocated
// densely in put order, so this is 1..N exactly as a single engine lists.
func (r *Router) Docs() []model.DocID {
	n := r.docCount()
	out := make([]model.DocID, n)
	for i := range out {
		out[i] = model.DocID(i + 1)
	}
	return out
}

// Current returns the live current version of a document.
func (r *Router) Current(id model.DocID) (root *xmltree.Node, info store.VersionInfo, err error) {
	root, err = route(r, id, func(db *core.DB, l model.DocID) (n *xmltree.Node, err error) {
		n, info, err = db.Current(l)
		return n, err
	})
	return root, info, err
}

// VersionsContext implements plan.Engine, routed to the home shard under
// the caller's context. The router pins no epoch of its own, so an
// unpinned ctx lists the live versions.
func (r *Router) VersionsContext(ctx context.Context, id model.DocID) ([]store.VersionInfo, error) {
	return route(r, id, func(db *core.DB, l model.DocID) ([]store.VersionInfo, error) {
		return db.VersionsContext(ctx, l)
	})
}

// VersionAtContext returns the document version valid at t, from the home
// shard.
func (r *Router) VersionAtContext(ctx context.Context, id model.DocID, t model.Time) (store.VersionInfo, error) {
	return route(r, id, func(db *core.DB, l model.DocID) (store.VersionInfo, error) {
		return db.VersionAtContext(ctx, l, t)
	})
}

// --- scatter-gather scans ---

// scatter fans one index scan out to every shard through the router pool
// (per-shard admission applies), translates each shard's matches into the
// global DocID space, and merges deterministically: concatenate in shard
// order, then stable-sort by global DocID. Locals are assigned in put
// order per shard and globals in put order overall, so a shard's
// local-ascending output is already global-ascending; the stable sort is
// a pure interleave that reproduces the single engine's ascending-DocID
// merge byte for byte. A failing shard fails the scan typed ("shard %d:"
// wrapping the engine's resilience error) — multi-document operators do
// not silently return partial results.
func (r *Router) scatter(ctx context.Context, scope string, fn func(db *core.DB) ([]pattern.Match, error)) ([]pattern.Match, error) {
	per, err := parallel.Map(ctx, r.pool, scope, r.n, func(s int) ([]pattern.Match, error) {
		release := r.gates[s].enter()
		ms, err := fn(r.shards[s])
		release()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		return r.translateMatches(s, ms)
	})
	if err != nil {
		return nil, err
	}
	var all []pattern.Match
	for _, ms := range per {
		all = append(all, ms...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Doc < all[j].Doc })
	return all, nil
}

// translateMatches rewrites one shard's matches into the global DocID
// space: the match's Doc and every binding's posting Doc (TEIDs are built
// from postings, so both must agree).
func (r *Router) translateMatches(s int, ms []pattern.Match) ([]pattern.Match, error) {
	out := make([]pattern.Match, len(ms))
	for i, m := range ms {
		g, ok := r.globalOf(s, m.Doc)
		if !ok {
			return nil, fmt.Errorf("shard %d: local doc %d has no global id", s, m.Doc)
		}
		nb := make(map[*pattern.PNode]fti.Posting, len(m.Bindings))
		for pn, post := range m.Bindings {
			post.Doc = g
			nb[pn] = post
		}
		out[i] = pattern.Match{Doc: g, Bindings: nb, Span: m.Span}
	}
	return out, nil
}

// ScanTContext implements plan.Engine: the pattern against the snapshot
// valid at t, across all shards.
func (r *Router) ScanTContext(ctx context.Context, p *pattern.PNode, t model.Time) ([]pattern.Match, error) {
	return r.scatter(ctx, "scan", func(db *core.DB) ([]pattern.Match, error) {
		return db.ScanTContext(ctx, p, t)
	})
}

// ScanAllContext implements plan.Engine: the pattern against all versions
// of all documents, across all shards.
func (r *Router) ScanAllContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error) {
	return r.scatter(ctx, "scan", func(db *core.DB) ([]pattern.Match, error) {
		return db.ScanAllContext(ctx, p)
	})
}

// ScanCurrentContext implements plan.Engine: the non-temporal PatternScan
// across all shards.
func (r *Router) ScanCurrentContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error) {
	return r.scatter(ctx, "scan", func(db *core.DB) ([]pattern.Match, error) {
		return db.ScanCurrentContext(ctx, p)
	})
}

// --- single-document history and reconstruction ---

// DocHistoryContext implements plan.Engine: the document's versions valid
// in iv, most recent first, from the home shard.
func (r *Router) DocHistoryContext(ctx context.Context, id model.DocID, iv model.Interval) ([]store.VersionTree, error) {
	return route(r, id, func(db *core.DB, l model.DocID) ([]store.VersionTree, error) {
		return db.DocHistoryContext(ctx, l, iv)
	})
}

// ReconstructVersionContext implements plan.Engine, routed to the owning
// shard's cache-aware reconstruction.
func (r *Router) ReconstructVersionContext(ctx context.Context, id model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	return route(r, id, func(db *core.DB, l model.DocID) (store.VersionTree, error) {
		return db.ReconstructVersionContext(ctx, l, ver)
	})
}

// --- timestamp operators ---

// CreTime implements plan.Engine: the element's creation time.
func (r *Router) CreTime(eid model.EID) (model.Time, error) {
	return route(r, eid.Doc, func(db *core.DB, l model.DocID) (model.Time, error) {
		return db.CreTime(model.EID{Doc: l, X: eid.X})
	})
}

// DelTime implements plan.Engine: the element's deletion time.
func (r *Router) DelTime(eid model.EID) (model.Time, error) {
	return route(r, eid.Doc, func(db *core.DB, l model.DocID) (model.Time, error) {
		return db.DelTime(model.EID{Doc: l, X: eid.X})
	})
}

// PreviousTS returns the document version preceding the TEID's timestamp.
func (r *Router) PreviousTS(teid model.TEID) (store.VersionInfo, error) {
	return route(r, teid.E.Doc, func(db *core.DB, l model.DocID) (store.VersionInfo, error) {
		return db.PreviousTS(model.TEID{E: model.EID{Doc: l, X: teid.E.X}, T: teid.T})
	})
}

// NextTS returns the document version following the TEID's timestamp.
func (r *Router) NextTS(teid model.TEID) (store.VersionInfo, error) {
	return route(r, teid.E.Doc, func(db *core.DB, l model.DocID) (store.VersionInfo, error) {
		return db.NextTS(model.TEID{E: model.EID{Doc: l, X: teid.E.X}, T: teid.T})
	})
}

// CurrentTS returns the current version of the element's document.
func (r *Router) CurrentTS(eid model.EID) (store.VersionInfo, error) {
	return route(r, eid.Doc, func(db *core.DB, l model.DocID) (store.VersionInfo, error) {
		return db.CurrentTS(model.EID{Doc: l, X: eid.X})
	})
}

// QueryContext parses and executes a temporal query under a caller
// context: the plan executor runs unmodified on the router.
// Degraded-serving accounting happens inside each shard's engine
// (cache-hit fallbacks note themselves); the result's Degraded flag
// reflects the ensemble via the router's DegradedMode.
func (r *Router) QueryContext(ctx context.Context, src string) (*plan.Result, error) {
	return plan.RunStringContext(ctx, r, src)
}
