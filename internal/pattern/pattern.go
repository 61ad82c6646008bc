// Package pattern implements pattern trees and the PatternScan family of
// operators (Sections 6 and 7.3.1–7.3.2 of the paper, after the Xyleme
// PatternScan of reference [2]).
//
// A pattern tree describes element names connected by isParentOf /
// isAscendantOf relationships, plus containment predicates ("the element
// directly contains the word Napoli") and projection flags. A scan fetches
// the posting list of every word in the pattern from the temporal
// full-text index and joins them on document identifier, structural
// relationship and — for the temporal variants — validity-interval overlap,
// which makes TPatternScanAll a temporal multiway join.
package pattern

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/parallel"
)

// Rel is the structural relationship between a pattern node and its parent
// pattern node.
type Rel uint8

const (
	// Child requires the element to be a direct child (isParentOf).
	Child Rel = iota
	// Descendant requires the element to be a proper descendant
	// (isAscendantOf), the "//" axis.
	Descendant
)

func (r Rel) String() string {
	switch r {
	case Child:
		return "/"
	case Descendant:
		return "//"
	default:
		return fmt.Sprintf("Rel(%d)", uint8(r))
	}
}

// ValuePred is a containment predicate on a pattern node: the element must
// contain the word, directly (text or attribute of the element itself) or,
// with Deep, anywhere in its subtree.
type ValuePred struct {
	Word string
	Deep bool
}

// PNode is one node of a pattern tree, matching elements with the given
// name. The root node's relationship is interpreted against the document:
// Child matches the document root element or one of its direct children
// (the paper views a document as a forest of trees), Descendant matches at
// any depth.
type PNode struct {
	Name     string
	Rel      Rel
	Values   []ValuePred
	Project  bool
	Children []*PNode
}

// NewPath builds a linear pattern from path steps; the last step is
// projected. Steps use Child unless prefixed in rels.
func NewPath(steps []string, rels []Rel) (*PNode, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("pattern: empty path")
	}
	if len(rels) != len(steps) {
		return nil, fmt.Errorf("pattern: %d steps but %d relationships", len(steps), len(rels))
	}
	root := &PNode{Name: steps[0], Rel: rels[0]}
	cur := root
	for i := 1; i < len(steps); i++ {
		next := &PNode{Name: steps[i], Rel: rels[i]}
		cur.Children = append(cur.Children, next)
		cur = next
	}
	cur.Project = true
	return root, nil
}

// String renders the pattern for diagnostics, e.g. /guide/restaurant[~Napoli]*.
func (p *PNode) String() string {
	var b strings.Builder
	p.render(&b)
	return b.String()
}

func (p *PNode) render(b *strings.Builder) {
	b.WriteString(p.Rel.String())
	b.WriteString(p.Name)
	for _, v := range p.Values {
		if v.Deep {
			fmt.Fprintf(b, "[~~%s]", v.Word)
		} else {
			fmt.Fprintf(b, "[~%s]", v.Word)
		}
	}
	if p.Project {
		b.WriteString("*")
	}
	if len(p.Children) == 1 {
		p.Children[0].render(b)
		return
	}
	for _, c := range p.Children {
		b.WriteString("(")
		c.render(b)
		b.WriteString(")")
	}
}

// Nodes returns the pattern nodes in pre-order.
func (p *PNode) Nodes() []*PNode {
	out := []*PNode{p}
	for _, c := range p.Children {
		out = append(out, c.Nodes()...)
	}
	return out
}

// Validate rejects malformed patterns.
func (p *PNode) Validate() error {
	for _, n := range p.Nodes() {
		if n.Name == "" {
			return fmt.Errorf("pattern: node with empty name")
		}
		for _, v := range n.Values {
			if v.Word == "" {
				return fmt.Errorf("pattern: empty containment word under %q", n.Name)
			}
		}
	}
	return nil
}

// Match is one result of a pattern scan: a consistent assignment of pattern
// nodes to document elements, with the temporal interval over which the
// whole assignment is valid (the intersection of all involved postings).
type Match struct {
	Doc      model.DocID
	Bindings map[*PNode]fti.Posting
	Span     model.Interval
}

// TEID returns the temporal identifier of the element bound to the pattern
// node, stamped with t.
func (m Match) TEID(p *PNode, t model.Time) model.TEID {
	return m.Bindings[p].TEID(t)
}

// TEIDs projects matches of p to deduplicated TEIDs of its projected
// nodes in first-match order, each match stamped by stamp.
func TEIDs(ms []Match, p *PNode, stamp func(Match) model.Time) []model.TEID {
	proj := p.Projected()
	seen := make(map[model.TEID]bool)
	var out []model.TEID
	for _, m := range ms {
		for _, pn := range proj {
			teid := m.TEID(pn, stamp(m))
			if !seen[teid] {
				seen[teid] = true
				out = append(out, teid)
			}
		}
	}
	return out
}

// Projected returns the pattern nodes flagged for projection, falling back
// to the root if none are flagged.
func (p *PNode) Projected() []*PNode {
	var out []*PNode
	for _, n := range p.Nodes() {
		if n.Project {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []*PNode{p}
	}
	return out
}

// ScanT is the TPatternScan operator: match the pattern against the
// snapshot of all documents valid at time t. Every returned match has a
// span containing t.
func ScanT(ix fti.Index, p *PNode, t model.Time) ([]Match, error) {
	return ScanTPool(context.Background(), ix, p, t, nil)
}

// ScanTPool is ScanT with the per-document join fanned out on the pool
// (nil pool = sequential).
func ScanTPool(ctx context.Context, ix fti.Index, p *PNode, t model.Time, pool *parallel.Pool) ([]Match, error) {
	return scan(ctx, p, func(word string) []fti.Posting { return ix.LookupT(word, t) }, pool)
}

// ScanCurrent is the non-temporal PatternScan: match against the current
// database state.
func ScanCurrent(ix fti.Index, p *PNode) ([]Match, error) {
	return ScanCurrentPool(context.Background(), ix, p, nil)
}

// ScanCurrentPool is ScanCurrent with the per-document join fanned out on
// the pool (nil pool = sequential).
func ScanCurrentPool(ctx context.Context, ix fti.Index, p *PNode, pool *parallel.Pool) ([]Match, error) {
	return scan(ctx, p, func(word string) []fti.Posting { return ix.Lookup(word) }, pool)
}

// ScanAll is the TPatternScanAll operator: match against all versions of
// all documents. It is executed as a temporal multiway join — the
// structural join conditions of PatternScan plus interval overlap
// (Section 7.3.2); each match's span is the overlap interval.
func ScanAll(ix fti.Index, p *PNode) ([]Match, error) {
	return ScanAllPool(context.Background(), ix, p, nil)
}

// ScanAllPool is ScanAll with the per-document join fanned out on the
// pool (nil pool = sequential). The paper's cost argument is per document
// (Section 7.3.2), so documents are independent join subproblems; results
// merge in ascending-DocID order regardless of worker scheduling.
func ScanAllPool(ctx context.Context, ix fti.Index, p *PNode, pool *parallel.Pool) ([]Match, error) {
	return scan(ctx, p, ix.LookupH, pool)
}

// lookupFn fetches the posting list of one word.
type lookupFn func(word string) []fti.Posting

func scan(ctx context.Context, p *PNode, lookup lookupFn, pool *parallel.Pool) ([]Match, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Step 1 of the paper's algorithm: for all words in the pattern,
	// fetch the posting lists.
	names := make(map[string][]fti.Posting)  // element-name candidates per pattern node name
	values := make(map[string][]fti.Posting) // containment-word candidates
	for _, n := range p.Nodes() {
		if _, done := names[n.Name]; !done {
			var elems []fti.Posting
			for _, post := range lookup(n.Name) {
				if post.Src == fti.SrcName {
					elems = append(elems, post)
				}
			}
			names[n.Name] = elems
		}
		for _, v := range n.Values {
			if _, done := values[v.Word]; !done {
				// Keep all sources; containmentOK filters per predicate
				// (shallow predicates only see text/attribute words, deep
				// ones also match element names, like the FTI itself).
				values[v.Word] = lookup(v.Word)
			}
		}
	}
	// Group candidates by document: the join's first attribute. Each
	// per-document list is put into canonical (XID, span, source) order —
	// FTI implementations hand postings back in map order, and the scan
	// promises identical output for every worker count (and every call).
	type docKey = model.DocID
	group := func(ps []fti.Posting) map[docKey][]fti.Posting {
		m := make(map[docKey][]fti.Posting)
		for _, post := range ps {
			m[post.Doc] = append(m[post.Doc], post)
		}
		for _, list := range m {
			sort.Slice(list, func(i, j int) bool {
				a, b := list[i], list[j]
				if a.X != b.X {
					return a.X < b.X
				}
				if a.Span.Start != b.Span.Start {
					return a.Span.Start < b.Span.Start
				}
				if a.Span.End != b.Span.End {
					return a.Span.End < b.Span.End
				}
				return a.Src < b.Src
			})
		}
		return m
	}
	nameByDoc := make(map[string]map[docKey][]fti.Posting)
	for w, ps := range names {
		nameByDoc[w] = group(ps)
	}
	valueByDoc := make(map[string]map[docKey][]fti.Posting)
	for w, ps := range values {
		valueByDoc[w] = group(ps)
	}

	// Step 2: join on document, structural relationship and time. Each
	// document is an independent join subproblem over read-only posting
	// maps, so the per-document loop fans out on the pool; merging in
	// ascending-DocID order keeps the result deterministic for every
	// worker count (including the sequential path).
	docs := make([]model.DocID, 0, len(nameByDoc[p.Name]))
	for doc := range nameByDoc[p.Name] {
		docs = append(docs, doc)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	perDoc, err := parallel.Map(ctx, pool, "scan", len(docs), func(i int) ([]Match, error) {
		doc := docs[i]
		partials := matchNode(p, doc, fti.Posting{}, true, nameByDoc, valueByDoc)
		matches := make([]Match, 0, len(partials))
		for _, pm := range partials {
			m := Match{Doc: doc, Bindings: make(map[*PNode]fti.Posting, len(pm.bound)), Span: pm.span}
			for i, n := range pm.nodes {
				m.Bindings[n] = pm.bound[i]
			}
			matches = append(matches, m)
		}
		return matches, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Match
	for _, ms := range perDoc {
		out = append(out, ms...)
	}
	return out, nil
}

// partial is an intermediate join result.
type partial struct {
	nodes []*PNode
	bound []fti.Posting
	span  model.Interval
}

// matchNode enumerates assignments for pattern node p within one document.
// parent is the posting bound to p's parent pattern node; atRoot marks the
// pattern root, whose relationship is checked against the document root.
func matchNode(p *PNode, doc model.DocID, parent fti.Posting, atRoot bool,
	nameByDoc, valueByDoc map[string]map[model.DocID][]fti.Posting) []partial {

	var results []partial
	for _, cand := range nameByDoc[p.Name][doc] {
		if !structuralOK(p, cand, parent, atRoot) {
			continue
		}
		span := cand.Span
		// Containment predicates: intersect with a value posting's span.
		partialsHere := []partial{{nodes: []*PNode{p}, bound: []fti.Posting{cand}, span: span}}
		for _, v := range p.Values {
			var extended []partial
			for _, vp := range valueByDoc[v.Word][doc] {
				if !containmentOK(v, vp, cand) {
					continue
				}
				for _, ph := range partialsHere {
					if iv, ok := ph.span.Intersect(vp.Span); ok {
						extended = append(extended, partial{nodes: ph.nodes, bound: ph.bound, span: iv})
					}
				}
			}
			partialsHere = dedupSpans(extended)
			if len(partialsHere) == 0 {
				break
			}
		}
		// Child pattern nodes: cartesian combination with span intersection.
		for _, c := range p.Children {
			childParts := matchNode(c, doc, cand, false, nameByDoc, valueByDoc)
			var combined []partial
			for _, ph := range partialsHere {
				for _, cp := range childParts {
					iv, ok := ph.span.Intersect(cp.span)
					if !ok {
						continue
					}
					combined = append(combined, partial{
						nodes: append(append([]*PNode(nil), ph.nodes...), cp.nodes...),
						bound: append(append([]fti.Posting(nil), ph.bound...), cp.bound...),
						span:  iv,
					})
				}
			}
			partialsHere = combined
			if len(partialsHere) == 0 {
				break
			}
		}
		results = append(results, partialsHere...)
	}
	return results
}

func structuralOK(p *PNode, cand, parent fti.Posting, atRoot bool) bool {
	if atRoot {
		switch p.Rel {
		case Child:
			// Document root element or a direct child of it: the forest-of-
			// trees interpretation of the FROM path (Section 4).
			return len(cand.Path) <= 2
		default:
			return true
		}
	}
	switch p.Rel {
	case Child:
		return cand.ParentXID() == parent.X
	case Descendant:
		return cand.HasAncestor(parent.X)
	default:
		return false
	}
}

func containmentOK(v ValuePred, word, elem fti.Posting) bool {
	if v.Deep {
		// Deep containment covers the whole subtree, element names
		// included (the FTI indexes "all words in the documents,
		// including element names").
		return word.X == elem.X || word.HasAncestor(elem.X)
	}
	// Shallow containment means the element's own text or attributes.
	if word.Src == fti.SrcName {
		return false
	}
	return word.X == elem.X
}

// dedupSpans removes duplicate partials produced by multiple value
// occurrences yielding the same bindings and span.
func dedupSpans(ps []partial) []partial {
	if len(ps) < 2 {
		return ps
	}
	seen := make(map[string]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		key := fmt.Sprintf("%v|%v", p.span, p.bound)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}
