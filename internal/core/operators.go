package core

import (
	"context"
	"fmt"
	"io"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/parallel"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// Primitives is what the operators of Section 6.1 are composed from: the
// plan executor's surface plus writes, queries and the version lookup.
// DB implements it over one store, shard.Router by routing to its shards.
type Primitives interface {
	plan.Engine
	Put(url string, root *xmltree.Node, t model.Time) (model.DocID, error)
	Update(id model.DocID, root *xmltree.Node, t model.Time) (model.VersionNo, *diff.Script, error)
	QueryContext(ctx context.Context, src string) (*plan.Result, error)
	VersionAtContext(ctx context.Context, id model.DocID, t model.Time) (store.VersionInfo, error)
}

// Operators composes the temporal operators of Section 6.1 from an
// engine's primitives, once for every engine: DB and shard.Router embed
// it. Multi-document operators fan out on the engine's worker pool.
type Operators struct {
	e    Primitives
	pool *parallel.Pool
}

// NewOperators composes the operators over e, fanning out on pool.
func NewOperators(e Primitives, pool *parallel.Pool) Operators {
	return Operators{e: e, pool: pool}
}

// background is the root context of the context-free operators.
func background() context.Context {
	//txvet:ignore ctxflow context-free operator API; every operator's *Context sibling is the canonical path
	return context.Background()
}

// PutXML parses and stores the first version of a document.
func (o *Operators) PutXML(url string, r io.Reader, t model.Time) (model.DocID, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return 0, err
	}
	return o.e.Put(url, root, t)
}

// UpdateXML parses and stores a new version.
func (o *Operators) UpdateXML(id model.DocID, r io.Reader, t model.Time) (model.VersionNo, *diff.Script, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return 0, nil, err
	}
	return o.e.Update(id, root, t)
}

// TPatternScan matches the pattern against the snapshot valid at time t
// and returns the TEIDs of the projected elements.
func (o *Operators) TPatternScan(p *pattern.PNode, t model.Time) ([]model.TEID, error) {
	ms, err := o.e.ScanTContext(background(), p, t)
	if err != nil {
		return nil, err
	}
	return pattern.TEIDs(ms, p, func(pattern.Match) model.Time { return t }), nil
}

// TPatternScanAll matches the pattern against all versions of all
// documents; each TEID is stamped with the start of its match's overlap.
func (o *Operators) TPatternScanAll(p *pattern.PNode) ([]model.TEID, error) {
	ms, err := o.e.ScanAllContext(background(), p)
	if err != nil {
		return nil, err
	}
	return pattern.TEIDs(ms, p, func(m pattern.Match) model.Time { return m.Span.Start }), nil
}

// PatternScan matches against the current database state.
func (o *Operators) PatternScan(p *pattern.PNode) ([]model.TEID, error) {
	ms, err := o.e.ScanCurrentContext(background(), p)
	if err != nil {
		return nil, err
	}
	now := o.e.Now()
	return pattern.TEIDs(ms, p, func(pattern.Match) model.Time { return now }), nil
}

// DocHistory is DocHistoryContext without a caller context.
func (o *Operators) DocHistory(id model.DocID, iv model.Interval) ([]store.VersionTree, error) {
	return o.e.DocHistoryContext(background(), id, iv)
}

// ElementHistory is DocHistory cut down to the element's subtree (Section
// 7.3.5): "even if it was possible to optimize this so that only the
// desired subtrees are reconstructed, the whole deltas would have to be
// read anyway".
func (o *Operators) ElementHistory(eid model.EID, iv model.Interval) ([]store.VersionTree, error) {
	return o.ElementHistoryContext(background(), eid, iv)
}

// ElementHistoryContext is ElementHistory under a caller context.
func (o *Operators) ElementHistoryContext(ctx context.Context, eid model.EID, iv model.Interval) ([]store.VersionTree, error) {
	docVersions, err := o.e.DocHistoryContext(ctx, eid.Doc, iv)
	if err != nil {
		return nil, err
	}
	var out []store.VersionTree
	for _, dv := range docVersions {
		if sub := dv.Root.FindXID(eid.X); sub != nil {
			out = append(out, store.VersionTree{Info: dv.Info, Root: sub.Detach()})
		}
	}
	return out, nil
}

// Reconstruct rebuilds the element version identified by the TEID: the
// Reconstruct operator of Section 7.3.3 followed by subtree extraction.
func (o *Operators) Reconstruct(teid model.TEID) (*xmltree.Node, error) {
	return o.ReconstructContext(background(), teid)
}

// ReconstructContext is Reconstruct under a caller context.
func (o *Operators) ReconstructContext(ctx context.Context, teid model.TEID) (*xmltree.Node, error) {
	v, err := o.e.VersionAtContext(ctx, teid.E.Doc, teid.T)
	if err != nil {
		return nil, err
	}
	vt, err := o.e.ReconstructVersionContext(ctx, teid.E.Doc, v.Ver)
	if err != nil {
		return nil, err
	}
	n := vt.Root.FindXID(teid.E.X)
	if n == nil {
		return nil, fmt.Errorf("core: element %s not valid at %s", teid.E, teid.T)
	}
	return n.Detach(), nil
}

// ReconstructVersion is the Reconstruct operator of Section 7.3.3 for a
// whole document version, without a caller context.
func (o *Operators) ReconstructVersion(id model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	return o.e.ReconstructVersionContext(background(), id, ver)
}

// ReconstructBatch materializes many element versions on the worker pool,
// in input order; the first failure cancels the rest and is returned.
// Concurrent requests for one cached version collapse into one flight.
func (o *Operators) ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error) {
	return parallel.Map(ctx, o.pool, "reconstruct", len(teids), func(i int) (*xmltree.Node, error) {
		return o.ReconstructContext(ctx, teids[i])
	})
}

// Diff computes the edit script between two element versions as an XML
// tree (<txdelta>), keeping queries closed under the data model (Section
// 6.1). The two reconstructions run as one pair on the worker pool.
func (o *Operators) Diff(a, b model.TEID) (*xmltree.Node, error) {
	return o.DiffContext(background(), a, b)
}

// DiffContext is Diff under a caller context.
func (o *Operators) DiffContext(ctx context.Context, a, b model.TEID) (*xmltree.Node, error) {
	pair := [2]model.TEID{a, b}
	nodes, err := parallel.Map(ctx, o.pool, "diff", 2, func(i int) (*xmltree.Node, error) {
		return o.ReconstructContext(ctx, pair[i])
	})
	if err != nil {
		return nil, err
	}
	return diff.Elements(nodes[0], nodes[1])
}

// Query is QueryContext without a caller context.
func (o *Operators) Query(src string) (*plan.Result, error) {
	return o.e.QueryContext(background(), src)
}

// Explain returns the operator plan of a query without executing it.
func (o *Operators) Explain(src string) (string, error) {
	return plan.ExplainString(src)
}
