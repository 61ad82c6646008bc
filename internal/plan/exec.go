package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/query"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// binding is one candidate row entry: a pattern match pinned to a specific
// document version (one element version of the FROM variable).
type binding struct {
	doc     model.DocID
	match   pattern.Match
	varNode *pattern.PNode    // pattern node the FROM variable binds to
	docVer  store.VersionInfo // document version of this row
}

// eid returns the bound element's identifier.
func (b *binding) eid() model.EID {
	return model.EID{Doc: b.doc, X: b.match.Bindings[b.varNode].X}
}

// env is a row: FROM variable → binding.
type env map[string]*binding

type treeKey struct {
	doc model.DocID
	ver model.VersionNo
}

type executor struct {
	ctx       context.Context
	engine    Engine
	treeCache map[treeKey]*store.VersionTree
	metrics   Metrics
	steps     int // work units since the last context poll
}

// ctxStride is how many cheap work units (candidate rows, pattern matches,
// version expansions) run between context polls. Expensive units — version
// reconstructions — poll unconditionally in tree().
const ctxStride = 256

// checkCtx observes cancellation every ctxStride calls.
func (ex *executor) checkCtx() error {
	ex.steps++
	if ex.steps%ctxStride != 0 {
		return nil
	}
	return ex.ctx.Err()
}

// tree reconstructs (with caching) one document version.
func (ex *executor) tree(doc model.DocID, ver model.VersionNo) (*store.VersionTree, error) {
	key := treeKey{doc, ver}
	if t, ok := ex.treeCache[key]; ok {
		return t, nil
	}
	if err := ex.ctx.Err(); err != nil {
		return nil, err
	}
	vt, err := ex.engine.ReconstructVersionContext(ex.ctx, doc, ver)
	if err != nil {
		return nil, err
	}
	ex.metrics.Reconstructions++
	ex.treeCache[key] = &vt
	return &vt, nil
}

// node resolves the element bound by b in its document version.
func (ex *executor) node(b *binding) (*xmltree.Node, error) {
	vt, err := ex.tree(b.doc, b.docVer.Ver)
	if err != nil {
		return nil, err
	}
	n := vt.Root.FindXID(b.match.Bindings[b.varNode].X)
	if n == nil {
		return nil, fmt.Errorf("plan: element %s not found in version %d", b.eid(), b.docVer.Ver)
	}
	return n, nil
}

func (ex *executor) run(q *query.Query) (*Result, error) {
	// Bind every FROM item.
	bindingSets := make([][]*binding, len(q.From))
	for i, f := range q.From {
		bs, err := ex.bindFromItem(q, f)
		if err != nil {
			return nil, err
		}
		bindingSets[i] = bs
	}
	// Join (cartesian product across FROM items), filter with WHERE.
	var rows []env
	var build func(i int, acc env) error
	build = func(i int, acc env) error {
		if i == len(q.From) {
			ex.metrics.RowsExamined++
			if err := ex.checkCtx(); err != nil {
				return err
			}
			if q.Where != nil {
				v, err := ex.eval(q.Where, acc)
				if err != nil {
					return err
				}
				keep, err := truthy(v)
				if err != nil {
					return fmt.Errorf("plan: WHERE: %w", err)
				}
				if !keep {
					return nil
				}
			}
			row := make(env, len(acc))
			for k, v := range acc {
				row[k] = v
			}
			rows = append(rows, row)
			return nil
		}
		for _, b := range bindingSets[i] {
			acc[q.From[i].Var] = b
			if err := build(i+1, acc); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(0, make(env, len(q.From))); err != nil {
		return nil, err
	}

	res := &Result{}
	for i, item := range q.Select {
		res.Columns = append(res.Columns, columnName(item, i))
	}
	if q.IsAggregate() {
		out, err := ex.aggregate(q, rows)
		if err != nil {
			return nil, err
		}
		res.Rows = out
	} else {
		for _, row := range rows {
			vals := make([]any, len(q.Select))
			for i, item := range q.Select {
				v, err := ex.eval(item.Expr, row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			res.Rows = append(res.Rows, vals)
		}
	}
	if q.Distinct {
		res.Rows = distinctRows(res.Rows)
	}
	if len(q.OrderBy) > 0 {
		if err := ex.orderRows(q, rows, res); err != nil {
			return nil, err
		}
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	res.Metrics = ex.metrics
	if ex.engine.DegradedMode() {
		// The engine served this query while degraded: the rows that made
		// it here are correct, but the caller should know coverage was
		// cache-first.
		res.Degraded = true
	}
	return res, nil
}

// bindFromItem runs the pattern scan for one FROM item and expands the
// matches into element-version bindings.
func (ex *executor) bindFromItem(q *query.Query, f query.FromItem) ([]*binding, error) {
	doc, ok := ex.engine.LookupDoc(f.URL)
	if !ok {
		return nil, nil // unknown document: empty binding set
	}
	pat, varNode, err := buildPattern(f, q.Where)
	if err != nil {
		return nil, err
	}
	var matches []pattern.Match
	var snapAt model.Time
	clip := model.Always
	switch f.Kind {
	case query.AtCurrent:
		matches, err = ex.engine.ScanCurrentContext(ex.ctx, pat)
		snapAt = ex.engine.Now()
	case query.AtTime:
		at, err2 := ex.evalTime(f.At)
		if err2 != nil {
			return nil, err2
		}
		snapAt = at
		matches, err = ex.engine.ScanTContext(ex.ctx, pat, at)
	case query.AtEvery:
		matches, err = ex.engine.ScanAllContext(ex.ctx, pat)
	case query.AtRange:
		// [t1 TO t2]: the versions valid in the interval — the language
		// face of the DocHistory/ElementHistory operators. A ScanAll whose
		// match spans are clipped to the interval before expansion.
		from, err2 := ex.evalTime(f.At)
		if err2 != nil {
			return nil, err2
		}
		until, err2 := ex.evalTime(f.Until)
		if err2 != nil {
			return nil, err2
		}
		if until <= from {
			return nil, fmt.Errorf("plan: empty time range [%s TO %s]", from, until)
		}
		clip = model.Interval{Start: from, End: until}
		matches, err = ex.engine.ScanAllContext(ex.ctx, pat)
	}
	if err != nil {
		return nil, err
	}
	versions, err := ex.engine.VersionsContext(ex.ctx, doc)
	if err != nil {
		return nil, err
	}
	var out []*binding
	if f.Kind == query.AtEvery || f.Kind == query.AtRange {
		// Clip all match spans first so the needed document versions are
		// known up front, materialize them with one history walk, then run
		// the expansion over warm trees.
		var clipped []pattern.Match
		for _, m := range matches {
			if m.Doc != doc {
				continue
			}
			ex.metrics.PatternMatches++
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
			span, ok := m.Span.Intersect(clip)
			if !ok {
				continue
			}
			m.Span = span
			clipped = append(clipped, m)
		}
		if err := ex.walkHistory(doc, clipped, versions); err != nil {
			return nil, err
		}
		for _, m := range clipped {
			bs, err := ex.expandEvery(doc, m, varNode, versions)
			if err != nil {
				return nil, err
			}
			out = append(out, bs...)
		}
		return out, nil
	}
	for _, m := range matches {
		if m.Doc != doc {
			continue
		}
		ex.metrics.PatternMatches++
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		vi, found := versionAt(versions, snapAt)
		if !found {
			continue
		}
		out = append(out, &binding{doc: doc, match: m, varNode: varNode, docVer: vi})
	}
	return out, nil
}

// walkHistory materializes the document versions the expansion of the
// clipped matches will reconstruct, with one DocHistory walk over their
// hull (Section 7.3.4: one reconstruction plus one inverted delta per
// version), and installs them into the tree cache. Each installed tree is
// exactly one reconstruction the expansion would otherwise perform on
// demand, so the Reconstructions metric is credited per tree.
func (ex *executor) walkHistory(doc model.DocID, matches []pattern.Match, versions []store.VersionInfo) error {
	need := make(map[model.VersionNo]bool)
	var hull model.Interval
	for _, m := range matches {
		for _, vi := range versions {
			iv := vi.Interval()
			if !iv.Overlaps(m.Span) || need[vi.Ver] || ex.treeCache[treeKey{doc, vi.Ver}] != nil {
				continue
			}
			if len(need) == 0 || iv.Start < hull.Start {
				hull.Start = iv.Start
			}
			if len(need) == 0 || iv.End > hull.End {
				hull.End = iv.End
			}
			need[vi.Ver] = true
		}
	}
	if len(need) == 0 {
		return nil
	}
	if err := ex.ctx.Err(); err != nil {
		return err
	}
	hist, err := ex.engine.DocHistoryContext(ex.ctx, doc, hull)
	if err != nil {
		return err
	}
	for i := range hist {
		if ver := hist[i].Info.Ver; need[ver] {
			ex.treeCache[treeKey{doc, ver}] = &hist[i]
			ex.metrics.Reconstructions++
		}
	}
	return nil
}

// expandEvery turns one TPatternScanAll match into one binding per element
// version inside the match's span: the document versions overlapping the
// span, deduplicated to the versions where the bound element actually
// changed (the element's stamp equals the version's stamp), always keeping
// the first version of the span.
func (ex *executor) expandEvery(doc model.DocID, m pattern.Match, varNode *pattern.PNode, versions []store.VersionInfo) ([]*binding, error) {
	var out []*binding
	first := true
	for _, vi := range versions {
		if !vi.Interval().Overlaps(m.Span) {
			continue
		}
		b := &binding{doc: doc, match: m, varNode: varNode, docVer: vi}
		n, err := ex.node(b)
		if err != nil {
			return nil, err
		}
		if first || n.Stamp == vi.Stamp {
			out = append(out, b)
		}
		first = false
	}
	return out, nil
}

func versionAt(versions []store.VersionInfo, t model.Time) (store.VersionInfo, bool) {
	i := sort.Search(len(versions), func(i int) bool { return versions[i].Stamp > t }) - 1
	if i < 0 {
		return store.VersionInfo{}, false
	}
	if !versions[i].Interval().Contains(t) {
		return store.VersionInfo{}, false
	}
	return versions[i], true
}

// buildPattern translates a FROM path into a pattern tree, pushing eligible
// WHERE predicates down as containment words (Section 6.1: containment
// access followed by equality testing).
func buildPattern(f query.FromItem, where query.Expr) (*pattern.PNode, *pattern.PNode, error) {
	if len(f.Steps) == 0 {
		return nil, nil, fmt.Errorf("plan: FROM item %q has no path", f.Var)
	}
	var root, cur *pattern.PNode
	for _, s := range f.Steps {
		rel := pattern.Child
		if s.Desc {
			rel = pattern.Descendant
		}
		n := &pattern.PNode{Name: s.Name, Rel: rel}
		if root == nil {
			root = n
		} else {
			cur.Children = append(cur.Children, n)
		}
		cur = n
	}
	cur.Project = true
	varNode := cur

	// Predicate pushdown: conjunctive equality predicates of the form
	// Var/path = "literal" and CONTAINS(Var/path, "word") extend the
	// pattern below the variable's node.
	for _, conj := range conjuncts(where) {
		var steps []query.PathStep
		var words []pattern.ValuePred
		switch e := conj.(type) {
		case query.Binary:
			if e.Op != "=" {
				continue
			}
			pathE, lit, ok := pathAndLiteral(e)
			if !ok {
				continue
			}
			base, ok := pathE.Base.(query.VarRef)
			if !ok || base.Name != f.Var {
				continue
			}
			steps = pathE.Steps
			for _, w := range tokenizeLiteral(lit) {
				words = append(words, pattern.ValuePred{Word: w})
			}
		case query.Call:
			target, word, ok := containsArgs(e, f.Var)
			if !ok {
				continue
			}
			steps = target
			words = append(words, pattern.ValuePred{Word: word, Deep: true})
		default:
			continue
		}
		attach := varNode
		for _, s := range steps {
			rel := pattern.Child
			if s.Desc {
				rel = pattern.Descendant
			}
			child := &pattern.PNode{Name: s.Name, Rel: rel}
			attach.Children = append(attach.Children, child)
			attach = child
		}
		attach.Values = append(attach.Values, words...)
	}
	return root, varNode, nil
}

// containsArgs recognizes CONTAINS(Var/path, "word") rooted at the given
// variable, returning the path steps and the single containment word.
// Multi-token literals are not pushed (a deep AND across tokens cannot be
// expressed as independent deep predicates without changing semantics).
func containsArgs(c query.Call, varName string) ([]query.PathStep, string, bool) {
	if !strings.EqualFold(c.Name, "CONTAINS") || len(c.Args) != 2 {
		return nil, "", false
	}
	lit, ok := c.Args[1].(query.Literal)
	if !ok {
		return nil, "", false
	}
	word, ok := lit.Val.(string)
	if !ok {
		return nil, "", false
	}
	if tokens := tokenizeLiteral(word); len(tokens) != 1 || tokens[0] != word {
		return nil, "", false
	}
	switch base := c.Args[0].(type) {
	case query.VarRef:
		if base.Name == varName {
			return nil, word, true
		}
	case query.Path:
		if v, ok := base.Base.(query.VarRef); ok && v.Name == varName {
			return base.Steps, word, true
		}
	}
	return nil, "", false
}

// conjuncts flattens the AND-reachable conjuncts of the WHERE expression.
func conjuncts(e query.Expr) []query.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(query.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []query.Expr{e}
}

func pathAndLiteral(b query.Binary) (query.Path, string, bool) {
	if p, ok := b.L.(query.Path); ok {
		if l, ok := b.R.(query.Literal); ok {
			if s, ok := l.Val.(string); ok {
				return p, s, true
			}
		}
	}
	if p, ok := b.R.(query.Path); ok {
		if l, ok := b.L.(query.Literal); ok {
			if s, ok := l.Val.(string); ok {
				return p, s, true
			}
		}
	}
	return query.Path{}, "", false
}

// tokenizeLiteral splits a pushed-down literal into index words. It MUST
// agree with the FTI's tokenizer: pushing a word the index can never
// contain would silently drop valid results.
func tokenizeLiteral(s string) []string { return fti.Tokenize(s) }

// aggregate evaluates an all-aggregate SELECT list over the rows.
func (ex *executor) aggregate(q *query.Query, rows []env) ([][]any, error) {
	out := make([]any, len(q.Select))
	type state struct {
		count int64
		sum   float64
		min   any
		max   any
		nodes int64
	}
	states := make([]state, len(q.Select))
	calls := make([]query.Call, len(q.Select))
	for i, item := range q.Select {
		c, ok := item.Expr.(query.Call)
		if !ok {
			return nil, fmt.Errorf("plan: mixing aggregates and plain expressions is not supported (column %d)", i+1)
		}
		calls[i] = c
	}
	for _, row := range rows {
		for i, c := range calls {
			name := strings.ToUpper(c.Name)
			if name == "COUNT" && len(c.Args) == 0 {
				states[i].count++
				continue
			}
			if len(c.Args) != 1 {
				return nil, fmt.Errorf("plan: %s takes one argument", name)
			}
			// COUNT(R) / SUM(R) over a bare variable count bindings without
			// touching element content: no reconstruction needed — the
			// paper's Section 6.2 observation about Q2.
			if _, isVar := c.Args[0].(query.VarRef); isVar && (name == "COUNT" || name == "SUM") {
				if name == "SUM" {
					states[i].nodes++
				}
				states[i].count++
				continue
			}
			v, err := ex.eval(c.Args[0], row)
			if err != nil {
				return nil, err
			}
			switch name {
			case "COUNT":
				if nv, ok := v.([]Elem); ok {
					states[i].count += int64(len(nv))
				} else if v != nil {
					states[i].count++
				}
			case "SUM", "AVG":
				// Elements reached through a path aggregate their numeric
				// text content; the bare-variable counting form of SUM(R)
				// (the paper's Q2) is handled above.
				if nv, ok := v.([]Elem); ok {
					for _, el := range nv {
						f, err := toFloat(el.Node.Text())
						if err != nil {
							return nil, fmt.Errorf("plan: %s: %w", name, err)
						}
						states[i].sum += f
						states[i].count++
					}
					continue
				}
				f, err := toFloat(v)
				if err != nil {
					return nil, fmt.Errorf("plan: %s: %w", name, err)
				}
				states[i].sum += f
				states[i].count++
			case "MIN", "MAX":
				cmp, err := scalarize(v)
				if err != nil {
					return nil, fmt.Errorf("plan: %s: %w", name, err)
				}
				if states[i].count == 0 {
					states[i].min, states[i].max = cmp, cmp
				} else {
					if less, _ := compareValues(cmp, states[i].min); less < 0 {
						states[i].min = cmp
					}
					if less, _ := compareValues(cmp, states[i].max); less > 0 {
						states[i].max = cmp
					}
				}
				states[i].count++
			default:
				return nil, fmt.Errorf("plan: unknown aggregate %s", name)
			}
		}
	}
	for i, c := range calls {
		switch strings.ToUpper(c.Name) {
		case "COUNT":
			out[i] = states[i].count
		case "SUM":
			if states[i].nodes > 0 {
				out[i] = states[i].nodes
			} else {
				out[i] = states[i].sum
			}
		case "AVG":
			if states[i].count == 0 {
				out[i] = nil
			} else if states[i].nodes > 0 {
				out[i] = float64(states[i].nodes) / float64(states[i].count)
			} else {
				out[i] = states[i].sum / float64(states[i].count)
			}
		case "MIN":
			out[i] = states[i].min
		case "MAX":
			out[i] = states[i].max
		}
	}
	return [][]any{out}, nil
}

func distinctRows(rows [][]any) [][]any {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		key := renderKey(r)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}

func renderKey(row []any) string {
	var b strings.Builder
	for _, v := range row {
		switch x := v.(type) {
		case []Elem:
			for _, nv := range x {
				b.WriteString(nv.Node.String())
			}
		default:
			fmt.Fprint(&b, v)
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// orderRows sorts the result rows by the ORDER BY keys, evaluated against
// the source rows.
func (ex *executor) orderRows(q *query.Query, rows []env, res *Result) error {
	if q.IsAggregate() || len(res.Rows) != len(rows) {
		// Aggregates produce one row; DISTINCT may have dropped rows in
		// which case ordering falls back to the projected values.
		sort.SliceStable(res.Rows, func(i, j int) bool {
			return renderKey(res.Rows[i]) < renderKey(res.Rows[j])
		})
		return nil
	}
	type keyed struct {
		keys []any
		row  []any
	}
	ks := make([]keyed, len(rows))
	for i, row := range rows {
		ks[i].row = res.Rows[i]
		for _, o := range q.OrderBy {
			v, err := ex.eval(o.Expr, row)
			if err != nil {
				return err
			}
			sc, err := scalarize(v)
			if err != nil {
				return fmt.Errorf("plan: ORDER BY: %w", err)
			}
			ks[i].keys = append(ks[i].keys, sc)
		}
	}
	var sortErr error
	sort.SliceStable(ks, func(i, j int) bool {
		for k, o := range q.OrderBy {
			c, err := compareValues(ks[i].keys[k], ks[j].keys[k])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range ks {
		res.Rows[i] = ks[i].row
	}
	return nil
}
