// Package plan plans and executes parsed temporal queries against the
// database engine: FROM items become pattern scans (TPatternScan /
// TPatternScanAll / PatternScan, per their timespec), equality predicates
// are pushed into the patterns as containment words ("the general
// containment operators/access methods are used, followed by equality
// testing", Section 6.1), bindings are expanded into element versions,
// joined, filtered and projected.
//
// Reconstruction is lazy: a row only touches the version store when an
// expression actually needs element content. This is what makes the
// paper's Q2 observation measurable — aggregate/count queries run without
// reconstructing any document (Section 6.2).
package plan

import (
	"context"
	"fmt"
	"strconv"

	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/query"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// Engine is what the executor needs from the database; core.DB and
// shard.Router implement it. Every operator that touches the index or the
// version store takes the query's context, so cancellation, deadline
// expiry and an epoch pin (store.WithEpoch) reach the per-document join
// and the store's retry loop.
type Engine interface {
	// Now returns the current transaction time.
	Now() model.Time
	// LookupDoc resolves a document URL.
	LookupDoc(url string) (model.DocID, bool)
	// ScanTContext is the TPatternScan operator (snapshot at t).
	ScanTContext(ctx context.Context, p *pattern.PNode, t model.Time) ([]pattern.Match, error)
	// ScanAllContext is the TPatternScanAll operator (all versions).
	ScanAllContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error)
	// ScanCurrentContext is the non-temporal PatternScan.
	ScanCurrentContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error)
	// VersionsContext returns a document's delta index; under an epoch pin
	// only the versions published at or before the pin.
	VersionsContext(ctx context.Context, doc model.DocID) ([]store.VersionInfo, error)
	// ReconstructVersionContext is the Reconstruct operator.
	ReconstructVersionContext(ctx context.Context, doc model.DocID, ver model.VersionNo) (store.VersionTree, error)
	// DocHistoryContext is the DocHistory operator: the versions valid
	// in iv, most recent first, from one backward walk. The executor
	// materializes [EVERY] and [t1 TO t2] FROM items through it.
	DocHistoryContext(ctx context.Context, doc model.DocID, iv model.Interval) ([]store.VersionTree, error)
	// DegradedMode reports whether the engine's resilience tier is serving
	// cache-first; the executor flags such results (Result.Degraded).
	DegradedMode() bool
	// CreTime returns an element's creation time.
	CreTime(eid model.EID) (model.Time, error)
	// DelTime returns an element's deletion time (Forever while alive).
	DelTime(eid model.EID) (model.Time, error)
}

// Metrics counts the work a query performed.
type Metrics struct {
	// PatternMatches is the number of raw pattern-scan matches.
	PatternMatches int
	// Reconstructions counts version-store reconstructions (cache misses).
	Reconstructions int
	// RowsExamined counts candidate rows before WHERE filtering.
	RowsExamined int
}

// Result is an executed query.
type Result struct {
	Columns []string
	Rows    [][]any
	Metrics Metrics
	// Degraded reports that the engine answered while its resilience tier
	// was in degraded mode: the rows are correct (served from the version
	// cache or the in-memory current snapshot — committed versions are
	// immutable) but coverage-limited operations may have been rejected.
	Degraded bool
}

// RunContext executes a parsed query under a context. Cancellation and
// deadline expiry are observed at every version reconstruction and, for
// cheap row work, every ctxStride steps; an interrupted query returns the
// context's error (matched with errors.Is against context.Canceled or
// context.DeadlineExceeded).
func RunContext(ctx context.Context, e Engine, q *query.Query) (*Result, error) {
	ex := &executor{
		ctx:       ctx,
		engine:    e,
		treeCache: make(map[treeKey]*store.VersionTree),
	}
	return ex.run(q)
}

// RunStringContext parses and executes a query text under a context.
func RunStringContext(ctx context.Context, e Engine, src string) (*Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, e, q)
}

// Doc renders the result as the paper's default output document:
// <results> with one <result> element per row. Element-valued columns are
// embedded as copies of the elements; scalar columns become <value>
// elements carrying the column label.
func (r *Result) Doc() *xmltree.Node {
	root := xmltree.NewElement("results")
	for _, row := range r.Rows {
		res := xmltree.NewElement("result")
		for i, v := range row {
			renderValue(res, r.Columns[i], v)
		}
		root.AppendChild(res)
	}
	return root
}

func renderValue(parent *xmltree.Node, col string, v any) {
	switch x := v.(type) {
	case nil:
		e := xmltree.NewElement("value")
		e.SetAttr("col", col)
		parent.AppendChild(e)
	case []Elem:
		for _, nv := range x {
			c := nv.Node.Clone()
			c.Walk(func(d *xmltree.Node) bool { d.Stamp = 0; d.XID = 0; return true })
			parent.AppendChild(c)
		}
	case model.Time:
		e := xmltree.ElemText("value", x.String())
		e.SetAttr("col", col)
		parent.AppendChild(e)
	default:
		e := xmltree.ElemText("value", formatScalar(v))
		e.SetAttr("col", col)
		parent.AppendChild(e)
	}
}

func formatScalar(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// columnName derives a result column label.
func columnName(item query.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	return item.Expr.String()
}
