package plan

import (
	"fmt"
	"strconv"
	"strings"

	"txmldb/internal/diff"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/query"
	"txmldb/internal/similarity"
	"txmldb/internal/xmltree"
)

// Elem is an element value in a query result, together with the document
// it came from so that the "==" identity comparison can form full EIDs.
type Elem struct {
	Node *xmltree.Node
	Doc  model.DocID
}

// defaultSimilarityThreshold is the cutoff of the bare "~" operator; the
// SIMILAR(a, b, threshold) function makes it explicit.
const defaultSimilarityThreshold = 0.85

// eval computes the value of an expression in a row environment. Values
// are: []Elem (element lists), string, float64, model.Time, bool,
// int64 (durations in ms) or nil.
func (ex *executor) eval(e query.Expr, row env) (any, error) {
	switch x := e.(type) {
	case query.Literal:
		return x.Val, nil
	case query.Duration:
		return x.Ms, nil
	case query.Now:
		return ex.engine.Now(), nil
	case query.VarRef:
		b, ok := row[x.Name]
		if !ok {
			return nil, fmt.Errorf("plan: unknown variable %q", x.Name)
		}
		n, err := ex.node(b)
		if err != nil {
			return nil, err
		}
		return []Elem{{Node: n, Doc: b.doc}}, nil
	case query.Path:
		base, err := ex.eval(x.Base, row)
		if err != nil {
			return nil, err
		}
		nodes, ok := base.([]Elem)
		if !ok {
			return nil, fmt.Errorf("plan: path applied to non-element value %T", base)
		}
		return evalPath(nodes, x.Steps), nil
	case query.Unary:
		v, err := ex.eval(x.E, row)
		if err != nil {
			return nil, err
		}
		b, err := truthy(v)
		if err != nil {
			return nil, fmt.Errorf("plan: NOT: %w", err)
		}
		return !b, nil
	case query.Binary:
		return ex.evalBinary(x, row)
	case query.Call:
		return ex.evalCall(x, row)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func evalPath(base []Elem, steps []query.PathStep) []Elem {
	cur := base
	for _, s := range steps {
		var next []Elem
		for _, nv := range cur {
			if s.Desc {
				for _, d := range nv.Node.Elements(s.Name) {
					if d != nv.Node {
						next = append(next, Elem{Node: d, Doc: nv.Doc})
					}
				}
			} else {
				for _, c := range nv.Node.ChildElements(s.Name) {
					next = append(next, Elem{Node: c, Doc: nv.Doc})
				}
			}
		}
		cur = next
	}
	return cur
}

func (ex *executor) evalBinary(b query.Binary, row env) (any, error) {
	switch b.Op {
	case "AND", "OR":
		l, err := ex.eval(b.L, row)
		if err != nil {
			return nil, err
		}
		lb, err := truthy(l)
		if err != nil {
			return nil, err
		}
		if b.Op == "AND" && !lb {
			return false, nil
		}
		if b.Op == "OR" && lb {
			return true, nil
		}
		r, err := ex.eval(b.R, row)
		if err != nil {
			return nil, err
		}
		return truthy(r)
	case "+", "-":
		return ex.evalArith(b, row)
	}
	l, err := ex.eval(b.L, row)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(b.R, row)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "==":
		return identityCompare(l, r)
	case "~":
		return similarityCompare(l, r, defaultSimilarityThreshold)
	default:
		return existentialCompare(b.Op, l, r)
	}
}

func (ex *executor) evalArith(b query.Binary, row env) (any, error) {
	l, err := ex.eval(b.L, row)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(b.R, row)
	if err != nil {
		return nil, err
	}
	// Time arithmetic: Time ± Duration (or plain numbers).
	if lt, ok := l.(model.Time); ok {
		ms, ok := r.(int64)
		if !ok {
			return nil, fmt.Errorf("plan: time arithmetic needs a duration (e.g. 14 DAYS), got %T", r)
		}
		if b.Op == "+" {
			return lt + model.Time(ms), nil
		}
		return lt - model.Time(ms), nil
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, fmt.Errorf("plan: arithmetic: %w", err)
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, fmt.Errorf("plan: arithmetic: %w", err)
	}
	if b.Op == "+" {
		return lf + rf, nil
	}
	return lf - rf, nil
}

func (ex *executor) evalCall(c query.Call, row env) (any, error) {
	name := strings.ToUpper(c.Name)
	arg := func(i int) (any, error) {
		if i >= len(c.Args) {
			return nil, fmt.Errorf("plan: %s: missing argument %d", name, i+1)
		}
		return ex.eval(c.Args[i], row)
	}
	switch name {
	case "TIME":
		// The timestamp of the element version (Section 5: TIME(R)).
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		nodes, ok := v.([]Elem)
		if !ok || len(nodes) == 0 {
			return nil, nil
		}
		return nodes[0].Node.Stamp, nil
	case "CREATE TIME", "DELETE TIME":
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		nodes, ok := v.([]Elem)
		if !ok || len(nodes) == 0 {
			return nil, nil
		}
		eid := model.EID{Doc: nodes[0].Doc, X: nodes[0].Node.XID}
		if name == "CREATE TIME" {
			return ex.engine.CreTime(eid)
		}
		return ex.engine.DelTime(eid)
	case "PREVIOUS", "NEXT", "CURRENT":
		ref, ok := c.Args[0].(query.VarRef)
		if len(c.Args) != 1 || !ok {
			return nil, fmt.Errorf("plan: %s takes a single FROM variable", name)
		}
		b, bound := row[ref.Name]
		if !bound {
			return nil, fmt.Errorf("plan: unknown variable %q", ref.Name)
		}
		return ex.evalVersionNav(name, b)
	case "DIFF":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		bv, err := arg(1)
		if err != nil {
			return nil, err
		}
		an, aok := a.([]Elem)
		bn, bok := bv.([]Elem)
		if !aok || !bok || len(an) == 0 || len(bn) == 0 {
			return nil, nil
		}
		deltaDoc, err := diff.Elements(an[0].Node, bn[0].Node)
		if err != nil {
			return nil, err
		}
		return []Elem{{Node: deltaDoc, Doc: an[0].Doc}}, nil
	case "CONTAINS":
		// Word containment anywhere in the element's subtree — the
		// paper's "string contain queries" (end of Section 6.1). The
		// planner pushes conjunctive CONTAINS predicates into the pattern
		// as deep containment words; this evaluation re-checks them.
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		wv, err := arg(1)
		if err != nil {
			return nil, err
		}
		word, ok := wv.(string)
		if !ok {
			return nil, fmt.Errorf("plan: CONTAINS needs a string word, got %T", wv)
		}
		nodes, ok := v.([]Elem)
		if !ok {
			return nil, fmt.Errorf("plan: CONTAINS needs an element, got %T", v)
		}
		for _, el := range nodes {
			if subtreeContainsWord(el.Node, word) {
				return true, nil
			}
		}
		return false, nil
	case "SIMILAR":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		bv, err := arg(1)
		if err != nil {
			return nil, err
		}
		threshold := defaultSimilarityThreshold
		if len(c.Args) > 2 {
			tv, err := arg(2)
			if err != nil {
				return nil, err
			}
			if f, err := toFloat(tv); err == nil {
				threshold = f
			}
		}
		return similarityCompare(a, bv, threshold)
	default:
		return nil, fmt.Errorf("plan: unknown function %s", name)
	}
}

// evalVersionNav implements PREVIOUS / NEXT / CURRENT over element
// versions (Section 6.1, the PreviousTS/NextTS/CurrentTS operators plus
// reconstruction).
func (ex *executor) evalVersionNav(name string, b *binding) (any, error) {
	cur, err := ex.node(b)
	if err != nil {
		return nil, err
	}
	versions, err := ex.engine.VersionsContext(ex.ctx, b.doc)
	if err != nil {
		return nil, err
	}
	x := b.match.Bindings[b.varNode].X
	switch name {
	case "CURRENT":
		vi := versions[len(versions)-1]
		if vi.End != model.Forever {
			return []Elem(nil), nil // document deleted
		}
		vt, err := ex.tree(b.doc, vi.Ver)
		if err != nil {
			return nil, err
		}
		if n := vt.Root.FindXID(x); n != nil {
			return []Elem{{Node: n, Doc: b.doc}}, nil
		}
		return []Elem(nil), nil
	case "PREVIOUS":
		// The element version before this one began at the element's
		// stamp; the previous element version is its state just before.
		start := cur.Stamp
		for i := len(versions) - 1; i >= 0; i-- {
			if versions[i].Stamp < start {
				vt, err := ex.tree(b.doc, versions[i].Ver)
				if err != nil {
					return nil, err
				}
				if n := vt.Root.FindXID(x); n != nil {
					return []Elem{{Node: n, Doc: b.doc}}, nil
				}
				return []Elem(nil), nil // element did not exist yet
			}
		}
		return []Elem(nil), nil
	case "NEXT":
		start := cur.Stamp
		for _, vi := range versions {
			if vi.Stamp <= start || vi.Stamp < b.docVer.Stamp {
				continue
			}
			vt, err := ex.tree(b.doc, vi.Ver)
			if err != nil {
				return nil, err
			}
			n := vt.Root.FindXID(x)
			if n == nil {
				return []Elem(nil), nil // deleted: no next version
			}
			if n.Stamp != start {
				return []Elem{{Node: n, Doc: b.doc}}, nil
			}
		}
		return []Elem(nil), nil
	}
	return nil, fmt.Errorf("plan: unknown navigation %s", name)
}

// evalTime evaluates a timespec expression to an instant.
func (ex *executor) evalTime(e query.Expr) (model.Time, error) {
	v, err := ex.eval(e, nil)
	if err != nil {
		return 0, err
	}
	t, ok := v.(model.Time)
	if !ok {
		return 0, fmt.Errorf("plan: timespec must evaluate to a time, got %T", v)
	}
	return t, nil
}

// subtreeContainsWord mirrors the FTI's word semantics: element names,
// attribute tokens and text tokens anywhere in the subtree.
func subtreeContainsWord(n *xmltree.Node, word string) bool {
	found := false
	n.Walk(func(d *xmltree.Node) bool {
		if found {
			return false
		}
		switch {
		case d.IsElement():
			if d.Name == word {
				found = true
				return false
			}
			for _, a := range d.Attrs {
				for _, w := range fti.Tokenize(a.Name + " " + a.Value) {
					if w == word {
						found = true
						return false
					}
				}
			}
		case d.IsText():
			for _, w := range fti.Tokenize(d.Value) {
				if w == word {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// --- comparisons and coercion ---

func truthy(v any) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case []Elem:
		return len(x) > 0, nil
	case nil:
		return false, nil
	default:
		return false, fmt.Errorf("expected boolean, got %T", v)
	}
}

// existentialCompare applies a scalar comparison with existential
// semantics over element lists: R/price < 10 holds if any bound price
// satisfies it.
func existentialCompare(op string, l, r any) (bool, error) {
	ls, err := comparables(l)
	if err != nil {
		return false, err
	}
	rs, err := comparables(r)
	if err != nil {
		return false, err
	}
	for _, lv := range ls {
		for _, rv := range rs {
			ok, err := compareScalars(op, lv, rv)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// comparables flattens a value into scalar comparands; elements compare by
// their text content (shallow value comparison, Section 7.4).
func comparables(v any) ([]any, error) {
	switch x := v.(type) {
	case []Elem:
		out := make([]any, 0, len(x))
		for _, nv := range x {
			out = append(out, nv.Node.Text())
		}
		return out, nil
	case nil:
		return nil, nil
	default:
		return []any{v}, nil
	}
}

func compareScalars(op string, a, b any) (bool, error) {
	c, err := compareValues(a, b)
	if err != nil {
		return false, err
	}
	switch op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	default:
		return false, fmt.Errorf("unknown comparison %q", op)
	}
}

// compareValues orders two scalars: numerically when both are numeric,
// otherwise as strings; times compare as times.
func compareValues(a, b any) (int, error) {
	if at, aok := a.(model.Time); aok {
		switch bt := b.(type) {
		case model.Time:
			return cmpInt64(int64(at), int64(bt)), nil
		case int64:
			return cmpInt64(int64(at), bt), nil
		}
	}
	af, aerr := toFloat(a)
	bf, berr := toFloat(b)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	as, aok := stringify(a)
	bs, bok := stringify(b)
	if !aok || !bok {
		return 0, fmt.Errorf("cannot compare %T with %T", a, b)
	}
	return strings.Compare(as, bs), nil
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func stringify(v any) (string, bool) {
	switch x := v.(type) {
	case string:
		return x, true
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), true
	case model.Time:
		return x.String(), true
	case bool:
		return strconv.FormatBool(x), true
	default:
		return "", false
	}
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case model.Time:
		return float64(x), nil
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, fmt.Errorf("not numeric: %q", x)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("not numeric: %T", v)
	}
}

// scalarize reduces a value to one scalar (first element's text for node
// lists) for MIN/MAX and ORDER BY.
func scalarize(v any) (any, error) {
	switch x := v.(type) {
	case []Elem:
		if len(x) == 0 {
			return nil, nil
		}
		return x[0].Node.Text(), nil
	default:
		return v, nil
	}
}

// identityCompare is "==": same persistent element identity (EID).
func identityCompare(l, r any) (bool, error) {
	ln, lok := l.([]Elem)
	rn, rok := r.([]Elem)
	if !lok || !rok {
		return false, fmt.Errorf("plan: == compares elements, got %T and %T", l, r)
	}
	for _, a := range ln {
		for _, b := range rn {
			if a.Doc == b.Doc && a.Node.XID != 0 && a.Node.XID == b.Node.XID {
				return true, nil
			}
		}
	}
	return false, nil
}

// similarityCompare is "~": Theobald/Weikum-style similarity above a
// threshold (Section 7.4).
func similarityCompare(l, r any, threshold float64) (bool, error) {
	ln, lok := l.([]Elem)
	rn, rok := r.([]Elem)
	if !lok || !rok {
		return false, fmt.Errorf("plan: ~ compares elements, got %T and %T", l, r)
	}
	for _, a := range ln {
		for _, b := range rn {
			if similarity.Similar(a.Node, b.Node, threshold) {
				return true, nil
			}
		}
	}
	return false, nil
}
