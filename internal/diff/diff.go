package diff

import (
	"fmt"
	"sort"

	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// Options parameterizes Diff.
type Options struct {
	// Alloc returns a fresh, never-reused XID for nodes inserted by the new
	// version. Required.
	Alloc func() model.XID
	// Stamp is the transaction timestamp of the new version; it becomes the
	// script's ToStamp and the stamp of every touched element.
	Stamp model.Time
	// FromStamp is the timestamp of the old version.
	FromStamp model.Time
	// FromVer and ToVer number the two versions.
	FromVer, ToVer model.VersionNo
}

// AssignXIDs gives every node of a fresh tree (XID 0 everywhere) an
// identifier from alloc and stamps the tree with stamp. It is used when the
// first version of a document enters the database.
func AssignXIDs(root *xmltree.Node, alloc func() model.XID, stamp model.Time) {
	root.Walk(func(n *xmltree.Node) bool {
		if n.XID == 0 {
			n.XID = alloc()
		}
		n.Stamp = stamp
		return true
	})
}

// Diff matches the new tree against the old tree (which must have XIDs on
// every node), assigns XIDs into new — matched nodes inherit the old node's
// XID, fresh nodes get allocated ones — and returns a completed edit script
// transforming old into new, together with the annotated result tree (a
// fully stamped copy equal to new). Neither input tree is structurally
// modified; new is annotated in place with XIDs and stamps.
//
// The matcher follows the XyDiff approach: bottom-up subtree-hash matching
// for exact (possibly moved) subtrees, then top-down propagation aligning
// the children of matched pairs, then a reorder pass. Renames are emitted
// only for the forced root match; elsewhere a rename is a delete+insert.
//
// Cost: both trees are numbered in preorder once, and every per-node fact
// the matcher and the script generator need — subtree hash, size, parent,
// partner, work-tree node — lives in slices indexed by that number, so
// matching is O(document) array work with no per-node map or hasher.
// Restamping and the delete sweep visit only the changed nodes and their
// ancestors.
func Diff(old, new *xmltree.Node, opts Options) (*Script, *xmltree.Node, error) {
	if opts.Alloc == nil {
		return nil, nil, fmt.Errorf("diff: Options.Alloc is required")
	}
	var o, n numbered
	if err := o.number(old, true); err != nil {
		return nil, nil, err
	}
	n.number(new, false)
	match(&o, &n)

	// Assign XIDs into the new tree: matched nodes inherit.
	for j, nd := range n.nodes {
		if p := n.partner[j]; p >= 0 {
			nd.XID = o.nodes[p].XID
			nd.Stamp = o.nodes[p].Stamp // provisional; restamping fixes touched nodes
		} else {
			nd.XID = 0
		}
	}

	g := &generator{opts: opts, o: &o, n: &n, work: make([]*xmltree.Node, len(n.nodes))}
	workOld := o.clone()
	for j, p := range n.partner {
		if p >= 0 {
			g.work[j] = workOld[p]
		}
	}
	work := workOld[0]
	if err := g.reconcile(work, 0); err != nil {
		return nil, nil, err
	}
	g.sweepDeletes(work)

	// Restamps: every op anchor that survives into the new version, plus
	// all its ancestors, gets the new version's stamp. The work tree now has
	// the new tree's shape, so the new tree's parent links are its own.
	script := &Script{
		Ops:       g.ops,
		FromVer:   opts.FromVer,
		ToVer:     opts.ToVer,
		FromStamp: opts.FromStamp,
		ToStamp:   opts.Stamp,
	}
	restamped := make([]bool, len(n.nodes))
	for _, j := range g.anchors {
		for ; j >= 0 && !restamped[j]; j = n.parent[j] {
			restamped[j] = true
			p := n.partner[j]
			if p < 0 {
				continue // node inserted by this version: stamped at creation
			}
			script.Restamps = append(script.Restamps, Restamp{XID: o.nodes[p].XID, Old: o.nodes[p].Stamp, New: opts.Stamp})
			g.work[j].Stamp = opts.Stamp
		}
	}
	sortRestamps(script.Restamps)

	// Mirror final stamps and XIDs onto the annotated input tree and verify
	// that the script reproduces it exactly.
	if err := mirror(work, new); err != nil {
		return nil, nil, fmt.Errorf("diff: internal verification failed: %w", err)
	}
	return script, work, nil
}

// Elements computes the edit script between two element versions — trees
// taken from anywhere in the database, possibly different documents — and
// returns it as XML (<txdelta>): edit scripts are XML, keeping queries
// closed under the data model (Section 6.1). Neither input is modified.
// Nodes of a without an XID get fresh ones above a's largest; b's XIDs are
// ignored and the matcher assigns them.
func Elements(a, b *xmltree.Node) (*xmltree.Node, error) {
	old := a.Clone()
	var maxX model.XID
	old.Walk(func(n *xmltree.Node) bool {
		if n.XID > maxX {
			maxX = n.XID
		}
		return true
	})
	next := maxX
	alloc := func() model.XID { next++; return next }
	old.Walk(func(n *xmltree.Node) bool {
		if n.XID == 0 {
			n.XID = alloc()
		}
		return true
	})
	new := b.Clone()
	new.Walk(func(n *xmltree.Node) bool { n.XID = 0; return true })
	script, _, err := Diff(old, new, Options{
		Alloc:     alloc,
		FromStamp: a.Stamp,
		Stamp:     b.Stamp,
	})
	if err != nil {
		return nil, err
	}
	return script.ToXML(), nil
}

// mirror copies XIDs and stamps from the work tree onto the structurally
// equal new tree, failing if the trees disagree.
func mirror(work, new *xmltree.Node) error {
	if work.Kind != new.Kind || work.Name != new.Name || work.Value != new.Value ||
		len(work.Children) != len(new.Children) {
		return fmt.Errorf("script result diverges at %s %q vs %s %q",
			work.Kind, work.Name+work.Value, new.Kind, new.Name+new.Value)
	}
	if work.XID != new.XID && new.XID != 0 {
		return fmt.Errorf("XID mismatch at %q: %d vs %d", work.Name, work.XID, new.XID)
	}
	new.XID = work.XID
	new.Stamp = work.Stamp
	for i := range work.Children {
		if err := mirror(work.Children[i], new.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- matching ---

// numbered is one input tree numbered in preorder. A node's children are
// the run of numbers after it: the first at i+1, each next one a subtree
// size further on.
type numbered struct {
	nodes   []*xmltree.Node
	parent  []int32 // -1 for the root
	size    []int32 // nodes in the subtree, itself included
	hash    []uint64
	partner []int32 // matched node of the other tree, -1 while unmatched
}

// number fills t from the tree rooted at root. With needXID it reports a
// node without an XID, naming the last such node outside the subtree of an
// earlier one.
func (t *numbered) number(root *xmltree.Node, needXID bool) error {
	var invalid error
	var walk func(nd *xmltree.Node, parent int32, reported bool)
	walk = func(nd *xmltree.Node, parent int32, reported bool) {
		if needXID && nd.XID == 0 && !reported {
			invalid = fmt.Errorf("diff: old tree has a node without XID (%s %q)", nd.Kind, nd.Name+nd.Value)
			reported = true
		}
		i := int32(len(t.nodes))
		t.nodes = append(t.nodes, nd)
		t.parent = append(t.parent, parent)
		for _, c := range nd.Children {
			walk(c, i, reported)
		}
	}
	walk(root, -1, false)
	if invalid != nil {
		return invalid
	}
	t.size = make([]int32, len(t.nodes))
	t.hash = make([]uint64, len(t.nodes))
	t.partner = make([]int32, len(t.nodes))
	var attrs []xmltree.Attr
	for i := len(t.nodes) - 1; i >= 0; i-- {
		t.partner[i] = -1
		nd := t.nodes[i]
		size := int32(1)
		h := uint64(fnvOffset)
		if nd.IsText() {
			h = fnvByte(h, 0x06)
			h = fnvString(h, nd.Value)
		} else {
			h = fnvByte(h, 0x01)
			h = fnvString(h, nd.Name)
			sorted := nd.Attrs
			if !attrsSorted(sorted) {
				attrs = append(attrs[:0], nd.Attrs...)
				sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
				sorted = attrs
			}
			for _, a := range sorted {
				h = fnvByte(h, 0x02)
				h = fnvString(h, a.Name)
				h = fnvByte(h, 0x03)
				h = fnvString(h, a.Value)
			}
		}
		for c, k := int32(i)+1, 0; k < len(nd.Children); k++ {
			if !nd.IsText() {
				for b := 0; b < 64; b += 8 {
					h = fnvByte(h, byte(t.hash[c]>>b))
				}
			}
			size += t.size[c]
			c += t.size[c]
		}
		t.size[i], t.hash[i] = size, h
	}
	return nil
}

// The structural hash is 64-bit FNV-1a over a fixed byte encoding of the
// subtree: kind tag, name or value, attributes by name, then the children's
// hashes as little-endian words.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// attrsSorted reports whether the attributes are in strictly ascending name
// order, the order the hash feeds them in.
func attrsSorted(attrs []xmltree.Attr) bool {
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1].Name >= attrs[i].Name {
			return false
		}
	}
	return true
}

// clone deep-copies the numbered tree; the copy of node i is at index i.
// The copies and their child lists are carved out of two backing arrays,
// each child list capped at its length so that a later insert reallocates
// rather than overwrite a neighbour's.
func (t *numbered) clone() []*xmltree.Node {
	slab := make([]xmltree.Node, len(t.nodes))
	kids := make([]*xmltree.Node, len(t.nodes)-1)
	out := make([]*xmltree.Node, len(t.nodes))
	for i, src := range t.nodes {
		cp := &slab[i]
		*cp = xmltree.Node{Kind: src.Kind, Name: src.Name, Value: src.Value, XID: src.XID, Stamp: src.Stamp}
		if len(src.Attrs) > 0 {
			cp.Attrs = append([]xmltree.Attr(nil), src.Attrs...)
		}
		if k := len(src.Children); k > 0 {
			cp.Children, kids = kids[:0:k], kids[k:]
		}
		if p := t.parent[i]; p >= 0 {
			out[p].AppendChild(cp)
		}
		out[i] = cp
	}
	return out
}

func label(n *xmltree.Node) string {
	if n.IsText() {
		return "\x00#text"
	}
	return n.Name
}

// matcher computes the 1-1 node matching between two numbered trees,
// recording it in their partner slices.
type matcher struct {
	o, n   *numbered
	queue  []int32 // new-side nodes of pairs to propagate from
	oc, nc []int32 // alignChildren scratch
	dp     []int32 // lcs scratch
}

func (m *matcher) pair(o, n int32) {
	m.o.partner[o] = n
	m.n.partner[n] = o
	m.queue = append(m.queue, n)
}

func match(o, n *numbered) {
	m := &matcher{o: o, n: n}
	// Force-match the roots; a changed root name becomes a rename op.
	m.pair(0, 0)

	// Phase 1: exact subtree matching, largest first, so that moved or
	// copied subtrees keep their identity. Subtrees smaller than 3 nodes
	// are left to the alignment phase: matching a lone "15" text across the
	// document would produce nonsense moves. Candidates are the old
	// subtrees of the same size class, ordered by hash and then preorder.
	var cands, order []int32
	for i, s := range o.size {
		if s >= 3 {
			cands = append(cands, int32(i))
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		ha, hb := o.hash[cands[a]], o.hash[cands[b]]
		return ha < hb || ha == hb && cands[a] < cands[b]
	})
	for j, s := range n.size {
		if s >= 3 {
			order = append(order, int32(j))
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return n.size[order[a]] > n.size[order[b]] })
	for _, j := range order {
		if n.partner[j] >= 0 {
			continue
		}
		h := n.hash[j]
		k := sort.Search(len(cands), func(k int) bool { return o.hash[cands[k]] >= h })
		chosen := int32(-1)
		for ; k < len(cands) && o.hash[cands[k]] == h; k++ {
			c := cands[k]
			if o.partner[c] >= 0 || !xmltree.Equal(o.nodes[c], n.nodes[j]) {
				continue // taken, or a hash collision
			}
			if chosen < 0 {
				chosen = c
			}
			// Prefer a candidate under the matched counterpart of j's parent.
			if p := o.parent[c]; p >= 0 && n.parent[j] >= 0 && o.partner[p] == n.parent[j] {
				chosen = c
				break
			}
		}
		if chosen >= 0 {
			m.zip(chosen, j)
		}
	}

	// Phase 2: propagate along the queue — align unmatched children of
	// matched pairs (LCS on labels, then an in-order reorder pass), and
	// propagate matches upward to same-label unmatched parents.
	for head := 0; head < len(m.queue); head++ {
		j := m.queue[head]
		i := n.partner[j]
		m.alignChildren(i, j)
		// Bottom-up: match unmatched parents with equal labels.
		if po, pn := o.parent[i], n.parent[j]; po >= 0 && pn >= 0 &&
			o.partner[po] < 0 && n.partner[pn] < 0 &&
			label(o.nodes[po]) == label(n.nodes[pn]) {
			m.pair(po, pn)
		}
	}
}

// zip pairs two structurally equal subtrees node by node, in preorder,
// skipping any subtree whose root is already matched on either side. Equal
// subtrees have equal shapes, so offset k is the same node on both sides.
func (m *matcher) zip(o, n int32) {
	for k, size := int32(0), m.o.size[o]; k < size; {
		if m.o.partner[o+k] >= 0 || m.n.partner[n+k] >= 0 {
			k += m.o.size[o+k]
			continue
		}
		m.pair(o+k, n+k)
		k++
	}
}

// unmatchedChildren appends the unmatched children of node i to dst.
func unmatchedChildren(dst []int32, t *numbered, i int32) []int32 {
	for c, k := i+1, 0; k < len(t.nodes[i].Children); k++ {
		if t.partner[c] < 0 {
			dst = append(dst, c)
		}
		c += t.size[c]
	}
	return dst
}

// alignChildren matches the unmatched children of a matched pair.
func (m *matcher) alignChildren(o, n int32) {
	oc := unmatchedChildren(m.oc[:0], m.o, o)
	nc := unmatchedChildren(m.nc[:0], m.n, n)
	m.oc, m.nc = oc, nc
	if len(oc) == 0 || len(nc) == 0 {
		return
	}
	// LCS on labels keeps in-order same-label children together.
	m.lcsPairs(oc, nc)
	// Reorder pass: remaining same-label children match greedily, each to
	// the first unmatched old child with its label, so a child that merely
	// changed position becomes a move, not delete+insert.
	for _, c := range nc {
		if m.n.partner[c] >= 0 {
			continue
		}
		l := label(m.n.nodes[c])
		for _, d := range oc {
			if m.o.partner[d] < 0 && label(m.o.nodes[d]) == l {
				m.pair(d, c)
				break
			}
		}
	}
}

// lcsPairs pairs the children along a longest common subsequence of the
// two child lists, comparing labels.
func (m *matcher) lcsPairs(a, b []int32) {
	n, w := len(a), len(b)+1
	if need := (n + 1) * w; cap(m.dp) < need {
		m.dp = make([]int32, need)
	} else {
		m.dp = m.dp[:need]
		for i := n * w; i < need; i++ {
			m.dp[i] = 0
		}
		for i := 0; i < n; i++ {
			m.dp[i*w+len(b)] = 0
		}
	}
	dp := m.dp
	same := func(i, j int) bool { return label(m.o.nodes[a[i]]) == label(m.n.nodes[b[j]]) }
	for i := n - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			switch {
			case same(i, j):
				dp[i*w+j] = dp[(i+1)*w+j+1] + 1
			case dp[(i+1)*w+j] >= dp[i*w+j+1]:
				dp[i*w+j] = dp[(i+1)*w+j]
			default:
				dp[i*w+j] = dp[i*w+j+1]
			}
		}
	}
	for i, j := 0, 0; i < n && j < len(b); {
		switch {
		case same(i, j):
			m.pair(a[i], b[j])
			i++
			j++
		case dp[(i+1)*w+j] >= dp[i*w+j+1]:
			i++
		default:
			j++
		}
	}
}

// --- script generation ---

type generator struct {
	opts    Options
	o, n    *numbered
	work    []*xmltree.Node // by new-tree number: the work node that becomes it
	ops     []Op
	anchors []int32 // new-tree numbers of nodes whose subtree changed
}

func (g *generator) emit(op Op) { g.ops = append(g.ops, op) }

// reconcile makes work node w (the counterpart of new node j) equal to it,
// emitting and applying ops as it goes.
func (g *generator) reconcile(w *xmltree.Node, j int32) error {
	n := g.n.nodes[j]
	if w.Name != n.Name && w.IsElement() {
		g.emit(Op{Kind: OpRename, XID: w.XID, OldValue: w.Name, NewValue: n.Name})
		g.anchors = append(g.anchors, j)
		w.Name = n.Name
	}
	if w.IsText() && w.Value != n.Value {
		g.emit(Op{Kind: OpUpdateText, XID: w.XID, OldValue: w.Value, NewValue: n.Value})
		g.anchors = append(g.anchors, j)
		w.Value = n.Value
	}
	if w.IsElement() && !attrsEqualUnordered(w.Attrs, n.Attrs) {
		g.emit(Op{
			Kind:     OpUpdateAttrs,
			XID:      w.XID,
			OldAttrs: append([]xmltree.Attr(nil), w.Attrs...),
			NewAttrs: append([]xmltree.Attr(nil), n.Attrs...),
		})
		g.anchors = append(g.anchors, j)
		w.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
	}
	c := j + 1
	for i, want := range n.Children {
		if want.XID != 0 {
			wc := g.work[c]
			if wc == nil {
				return fmt.Errorf("diff: matched node %d missing from work tree", want.XID)
			}
			// The children before i are already in place, so wc is in
			// place exactly when it sits at position i of w.
			if wc.Parent != w || i >= len(w.Children) || w.Children[i] != wc {
				oldParent := wc.Parent
				oldPos := oldParent.ChildIndex(wc)
				g.emit(Op{
					Kind: OpMove, XID: wc.XID,
					Parent: w.XID, Pos: i,
					OldParent: oldParent.XID, OldPos: oldPos,
				})
				// wc has not moved before, so its work parent is the copy
				// of its old parent, which survives iff it is matched.
				g.anchors = append(g.anchors, c, j)
				if q := g.o.partner[g.o.parent[g.n.partner[c]]]; q >= 0 {
					g.anchors = append(g.anchors, q)
				}
				oldParent.RemoveChildAt(oldPos)
				w.InsertChild(i, wc)
			}
			if err := g.reconcile(wc, c); err != nil {
				return err
			}
		} else {
			skel := g.skeleton(c)
			g.emit(Op{Kind: OpInsert, Parent: w.XID, Pos: i, Node: skel.Clone()})
			g.anchors = append(g.anchors, j)
			w.InsertChild(i, skel)
			if err := g.reconcile(skel, c); err != nil {
				return err
			}
		}
		c += g.n.size[c]
	}
	return nil
}

// skeleton builds the work copy of the unmatched parts of new subtree j,
// assigning fresh XIDs (into both the copy and the new tree) and stamping
// with the new version's timestamp. Matched descendants are omitted;
// reconcile moves them in afterwards.
func (g *generator) skeleton(j int32) *xmltree.Node {
	n := g.n.nodes[j]
	n.XID = g.opts.Alloc()
	n.Stamp = g.opts.Stamp
	cp := &xmltree.Node{
		Kind:  n.Kind,
		Name:  n.Name,
		Value: n.Value,
		XID:   n.XID,
		Stamp: n.Stamp,
		Attrs: append([]xmltree.Attr(nil), n.Attrs...),
	}
	g.work[j] = cp
	c := j + 1
	for _, ch := range n.Children {
		if ch.XID == 0 { // matched children are moved in by reconcile
			cp.AppendChild(g.skeleton(c))
		}
		c += g.n.size[c]
	}
	return cp
}

// sweepDeletes removes every work subtree whose root does not exist in the
// new version, in work-tree preorder. After reconcile, all surviving nodes
// are in their final positions, so the doomed subtrees contain no
// survivors; a doomed root is an unmatched old node under a matched one,
// and the walk descends only toward such nodes.
func (g *generator) sweepDeletes(work *xmltree.Node) {
	o, n := g.o, g.n
	var toward []bool
	for i, p := range o.partner {
		if p >= 0 || i == 0 || o.partner[o.parent[i]] < 0 {
			continue
		}
		if toward == nil {
			toward = make([]bool, len(n.nodes))
		}
		for j := o.partner[o.parent[i]]; j >= 0 && !toward[j]; j = n.parent[j] {
			toward[j] = true
		}
	}
	if toward == nil {
		return
	}
	type doomed struct {
		node   *xmltree.Node
		parent int32 // new-tree number of the surviving parent
	}
	var dead []doomed
	var collect func(w *xmltree.Node, j int32)
	collect = func(w *xmltree.Node, j int32) {
		c, k := j+1, 0
		for _, wc := range w.Children {
			if k < len(n.nodes[j].Children) && wc == g.work[c] {
				if toward[c] {
					collect(wc, c)
				}
				c += n.size[c]
				k++
			} else {
				dead = append(dead, doomed{wc, j}) // maximal; children go with it
			}
		}
	}
	collect(work, 0)
	for _, d := range dead {
		parent := d.node.Parent
		pos := parent.ChildIndex(d.node)
		g.emit(Op{
			Kind: OpDelete, XID: d.node.XID,
			OldParent: parent.XID, OldPos: pos,
			Node: d.node.Clone(),
		})
		g.anchors = append(g.anchors, d.parent)
		parent.RemoveChildAt(pos)
	}
}

func attrsEqualUnordered(a, b []xmltree.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
