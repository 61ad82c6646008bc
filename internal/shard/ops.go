package shard

import (
	"context"
	"fmt"
	"io"
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
	return r.put(url, func(db *core.DB) (model.DocID, error) { return db.Put(url, root, t) })
}

// PutXML parses and stores the first version of a new document.
func (r *Router) PutXML(url string, rd io.Reader, t model.Time) (model.DocID, error) {
	return r.put(url, func(db *core.DB) (model.DocID, error) { return db.PutXML(url, rd, t) })
}

func (r *Router) put(url string, fn func(db *core.DB) (model.DocID, error)) (model.DocID, error) {
	s := r.homeShard(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	release := r.gates[s].enter()
	local, err := fn(r.shards[s])
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

// Update stores a new version of the document.
func (r *Router) Update(id model.DocID, root *xmltree.Node, t model.Time) (model.VersionNo, *diff.Script, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return 0, nil, err
	}
	defer r.gates[s].enter()()
	return r.shards[s].Update(local, root, t)
}

// UpdateXML parses and stores a new version of the document.
func (r *Router) UpdateXML(id model.DocID, rd io.Reader, t model.Time) (model.VersionNo, *diff.Script, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return 0, nil, err
	}
	defer r.gates[s].enter()()
	return r.shards[s].UpdateXML(local, rd, t)
}

// Delete ends the document's life at t. Its history stays queryable.
func (r *Router) Delete(id model.DocID, t model.Time) error {
	s, local, err := r.locate(id)
	if err != nil {
		return err
	}
	defer r.gates[s].enter()()
	return r.shards[s].Delete(local, t)
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
func (r *Router) Current(id model.DocID) (*xmltree.Node, store.VersionInfo, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return nil, store.VersionInfo{}, err
	}
	defer r.gates[s].enter()()
	return r.shards[s].Current(local)
}

// VersionsContext implements plan.Engine, routed to the home shard under
// the caller's context. The router pins no epoch of its own, so an
// unpinned ctx lists the live versions.
func (r *Router) VersionsContext(ctx context.Context, id model.DocID) ([]store.VersionInfo, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return nil, err
	}
	defer r.gates[s].enter()()
	return r.shards[s].VersionsContext(ctx, local)
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

// --- the TEID-level operators of Section 6.1 ---

// TPatternScan matches the pattern at time t and returns projected TEIDs
// in the global space.
func (r *Router) TPatternScan(p *pattern.PNode, t model.Time) ([]model.TEID, error) {
	ms, err := r.ScanTContext(context.Background(), p, t)
	if err != nil {
		return nil, err
	}
	return pattern.TEIDs(ms, p, func(pattern.Match) model.Time { return t }), nil
}

// TPatternScanAll matches against all versions of all documents; each
// TEID is stamped with the start of its match's temporal overlap.
func (r *Router) TPatternScanAll(p *pattern.PNode) ([]model.TEID, error) {
	ms, err := r.ScanAllContext(context.Background(), p)
	if err != nil {
		return nil, err
	}
	return pattern.TEIDs(ms, p, func(m pattern.Match) model.Time { return m.Span.Start }), nil
}

// PatternScan matches against the current database state.
func (r *Router) PatternScan(p *pattern.PNode) ([]model.TEID, error) {
	ms, err := r.ScanCurrentContext(context.Background(), p)
	if err != nil {
		return nil, err
	}
	now := r.Now()
	return pattern.TEIDs(ms, p, func(pattern.Match) model.Time { return now }), nil
}

// --- single-document history and reconstruction ---

// DocHistory returns all versions of the document valid in the interval,
// most recent first.
func (r *Router) DocHistory(id model.DocID, iv model.Interval) ([]store.VersionTree, error) {
	return r.DocHistoryContext(context.Background(), id, iv)
}

// DocHistoryContext implements plan.Engine: DocHistory under a caller
// context, on the home shard.
func (r *Router) DocHistoryContext(ctx context.Context, id model.DocID, iv model.Interval) ([]store.VersionTree, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return nil, err
	}
	defer r.gates[s].enter()()
	return r.shards[s].DocHistoryContext(ctx, local, iv)
}

// ElementHistory returns all versions of the element valid in the
// interval, most recent first.
func (r *Router) ElementHistory(eid model.EID, iv model.Interval) ([]store.VersionTree, error) {
	return r.ElementHistoryContext(context.Background(), eid, iv)
}

// ElementHistoryContext is ElementHistory under a caller context.
func (r *Router) ElementHistoryContext(ctx context.Context, eid model.EID, iv model.Interval) ([]store.VersionTree, error) {
	s, local, err := r.locate(eid.Doc)
	if err != nil {
		return nil, err
	}
	defer r.gates[s].enter()()
	eid.Doc = local
	return r.shards[s].ElementHistoryContext(ctx, eid, iv)
}

// Reconstruct rebuilds the element version identified by the TEID.
func (r *Router) Reconstruct(teid model.TEID) (*xmltree.Node, error) {
	return r.ReconstructContext(context.Background(), teid)
}

// ReconstructContext is Reconstruct under a caller context.
func (r *Router) ReconstructContext(ctx context.Context, teid model.TEID) (*xmltree.Node, error) {
	s, local, err := r.locate(teid.E.Doc)
	if err != nil {
		return nil, err
	}
	defer r.gates[s].enter()()
	teid.E.Doc = local
	return r.shards[s].ReconstructContext(ctx, teid)
}

// ReconstructVersion rebuilds one document version on its owning shard.
func (r *Router) ReconstructVersion(id model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	return r.ReconstructVersionContext(context.Background(), id, ver)
}

// ReconstructVersionContext implements plan.Engine, routed to the owning
// shard's cache-aware reconstruction.
func (r *Router) ReconstructVersionContext(ctx context.Context, id model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	s, local, err := r.locate(id)
	if err != nil {
		return store.VersionTree{}, err
	}
	defer r.gates[s].enter()()
	return r.shards[s].ReconstructVersionContext(ctx, local, ver)
}

// ReconstructBatch reconstructs many element versions on the router pool;
// each TEID routes to its owning shard.
func (r *Router) ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error) {
	return parallel.Map(ctx, r.pool, "reconstruct", len(teids), func(i int) (*xmltree.Node, error) {
		return r.ReconstructContext(ctx, teids[i])
	})
}

// --- timestamp operators ---

// CreTime implements plan.Engine: the element's creation time.
func (r *Router) CreTime(eid model.EID) (model.Time, error) {
	s, local, err := r.locate(eid.Doc)
	if err != nil {
		return 0, err
	}
	defer r.gates[s].enter()()
	eid.Doc = local
	return r.shards[s].CreTime(eid)
}

// DelTime implements plan.Engine: the element's deletion time.
func (r *Router) DelTime(eid model.EID) (model.Time, error) {
	s, local, err := r.locate(eid.Doc)
	if err != nil {
		return 0, err
	}
	defer r.gates[s].enter()()
	eid.Doc = local
	return r.shards[s].DelTime(eid)
}

// PreviousTS returns the document version preceding the TEID's timestamp.
func (r *Router) PreviousTS(teid model.TEID) (store.VersionInfo, error) {
	s, local, err := r.locate(teid.E.Doc)
	if err != nil {
		return store.VersionInfo{}, err
	}
	defer r.gates[s].enter()()
	teid.E.Doc = local
	return r.shards[s].PreviousTS(teid)
}

// NextTS returns the document version following the TEID's timestamp.
func (r *Router) NextTS(teid model.TEID) (store.VersionInfo, error) {
	s, local, err := r.locate(teid.E.Doc)
	if err != nil {
		return store.VersionInfo{}, err
	}
	defer r.gates[s].enter()()
	teid.E.Doc = local
	return r.shards[s].NextTS(teid)
}

// CurrentTS returns the current version of the element's document.
func (r *Router) CurrentTS(eid model.EID) (store.VersionInfo, error) {
	s, local, err := r.locate(eid.Doc)
	if err != nil {
		return store.VersionInfo{}, err
	}
	defer r.gates[s].enter()()
	eid.Doc = local
	return r.shards[s].CurrentTS(eid)
}

// --- diff ---

// Diff computes the edit script between two element versions, possibly
// on different shards: the pair reconstructs concurrently on the router
// pool, then the (pure) tree diff runs on the caller.
func (r *Router) Diff(a, b model.TEID) (*xmltree.Node, error) {
	return r.DiffContext(context.Background(), a, b)
}

// DiffContext is Diff under a caller context.
func (r *Router) DiffContext(ctx context.Context, a, b model.TEID) (*xmltree.Node, error) {
	pair := [2]model.TEID{a, b}
	nodes, err := parallel.Map(ctx, r.pool, "diff", 2, func(i int) (*xmltree.Node, error) {
		return r.ReconstructContext(ctx, pair[i])
	})
	if err != nil {
		return nil, err
	}
	return diff.Elements(nodes[0], nodes[1])
}

// --- queries ---

// Query parses and executes a temporal query against the sharded
// ensemble: QueryContext without a caller context.
func (r *Router) Query(src string) (*plan.Result, error) {
	return r.QueryContext(context.Background(), src)
}

// QueryContext parses and executes a temporal query under a caller
// context: the plan executor runs unmodified on the router.
// Degraded-serving accounting happens inside each shard's engine
// (cache-hit fallbacks note themselves); the result's Degraded flag
// reflects the ensemble via the router's DegradedMode.
func (r *Router) QueryContext(ctx context.Context, src string) (*plan.Result, error) {
	return plan.RunStringContext(ctx, r, src)
}

// Explain returns the operator plan of a query without executing it.
func (r *Router) Explain(src string) (string, error) {
	return plan.ExplainString(src)
}
