package diff_test

// The matcher and script generator as they were before the dense-array
// rewrite: pointer-keyed maps, a hash/fnv hasher per node, a stable sort of
// every node by size. Kept only as the differential oracle the current Diff
// must agree with byte for byte (TestDiffMatchesOracle, FuzzDiff).

import (
	"fmt"
	"hash/fnv"
	"sort"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// oracleDiff is the parent implementation of Diff, unchanged but for names.
func oracleDiff(old, new *xmltree.Node, opts diff.Options) (*diff.Script, *xmltree.Node, error) {
	if opts.Alloc == nil {
		return nil, nil, fmt.Errorf("diff: Options.Alloc is required")
	}
	oldStamps := make(map[model.XID]model.Time)
	var invalid error
	old.Walk(func(n *xmltree.Node) bool {
		if n.XID == 0 {
			invalid = fmt.Errorf("diff: old tree has a node without XID (%s %q)", n.Kind, n.Name+n.Value)
			return false
		}
		oldStamps[n.XID] = n.Stamp
		return true
	})
	if invalid != nil {
		return nil, nil, invalid
	}

	m := oMatch(old, new)

	// Assign XIDs into the new tree: matched nodes inherit.
	new.Walk(func(n *xmltree.Node) bool {
		if o := m.newToOld[n]; o != nil {
			n.XID = o.XID
			n.Stamp = o.Stamp // provisional; restamping fixes touched nodes
		} else {
			n.XID = 0
		}
		return true
	})

	g := &oGenerator{
		opts:    opts,
		byXID:   make(map[model.XID]*xmltree.Node),
		anchors: make(map[model.XID]bool),
	}
	work := old.Clone()
	work.Walk(func(n *xmltree.Node) bool {
		g.byXID[n.XID] = n
		return true
	})

	if err := g.reconcile(work, new); err != nil {
		return nil, nil, err
	}
	g.sweepDeletes(work, new)

	// Restamps: every op anchor that survives into the new version, plus
	// all its ancestors, gets the new version's stamp.
	restampSet := make(map[model.XID]bool)
	for xid := range g.anchors {
		n := g.byXID[xid]
		for ; n != nil; n = n.Parent {
			if restampSet[n.XID] {
				break
			}
			restampSet[n.XID] = true
		}
	}
	script := &diff.Script{
		Ops:       g.ops,
		FromVer:   opts.FromVer,
		ToVer:     opts.ToVer,
		FromStamp: opts.FromStamp,
		ToStamp:   opts.Stamp,
	}
	for xid := range restampSet {
		oldStamp, existed := oldStamps[xid]
		if !existed {
			continue // node inserted by this version: stamped at creation
		}
		script.Restamps = append(script.Restamps, diff.Restamp{XID: xid, Old: oldStamp, New: opts.Stamp})
		g.byXID[xid].Stamp = opts.Stamp
	}
	oSortRestamps(script.Restamps)

	// Mirror final stamps and XIDs onto the annotated input tree and verify
	// that the script reproduces it exactly.
	if err := oracleMirror(work, new); err != nil {
		return nil, nil, fmt.Errorf("diff: internal verification failed: %w", err)
	}
	return script, work, nil
}

// oracleMirror copies XIDs and stamps from the work tree onto the structurally
// equal new tree, failing if the trees disagree.
func oracleMirror(work, new *xmltree.Node) error {
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
		if err := oracleMirror(work.Children[i], new.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// --- matching ---

type oMatching struct {
	oldToNew map[*xmltree.Node]*xmltree.Node
	newToOld map[*xmltree.Node]*xmltree.Node
}

func (m *oMatching) pair(o, n *xmltree.Node) {
	m.oldToNew[o] = n
	m.newToOld[n] = o
}

func oLabel(n *xmltree.Node) string {
	if n.IsText() {
		return "\x00#text"
	}
	return n.Name
}

// oSubtreeHashes computes a structural hash for every node, bottom-up.
func oSubtreeHashes(root *xmltree.Node, out map[*xmltree.Node]uint64) {
	var rec func(n *xmltree.Node) uint64
	rec = func(n *xmltree.Node) uint64 {
		h := fnv.New64a()
		if n.IsText() {
			h.Write([]byte{0x06})
			h.Write([]byte(n.Value))
		} else {
			h.Write([]byte{0x01})
			h.Write([]byte(n.Name))
			attrs := append([]xmltree.Attr(nil), n.Attrs...)
			sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
			for _, a := range attrs {
				h.Write([]byte{0x02})
				h.Write([]byte(a.Name))
				h.Write([]byte{0x03})
				h.Write([]byte(a.Value))
			}
			var buf [8]byte
			for _, c := range n.Children {
				ch := rec(c)
				for i := 0; i < 8; i++ {
					buf[i] = byte(ch >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
		v := h.Sum64()
		out[n] = v
		return v
	}
	rec(root)
}

// oMatch computes the 1-1 node matching between the two trees.
func oMatch(old, new *xmltree.Node) *oMatching {
	m := &oMatching{
		oldToNew: make(map[*xmltree.Node]*xmltree.Node),
		newToOld: make(map[*xmltree.Node]*xmltree.Node),
	}

	oldHash := make(map[*xmltree.Node]uint64)
	newHash := make(map[*xmltree.Node]uint64)
	oSubtreeHashes(old, oldHash)
	oSubtreeHashes(new, newHash)

	byHash := make(map[uint64][]*xmltree.Node)
	old.Walk(func(n *xmltree.Node) bool {
		byHash[oldHash[n]] = append(byHash[oldHash[n]], n)
		return true
	})

	// Force-match the roots; a changed root name becomes a rename op.
	m.pair(old, new)
	queue := []*xmltree.Node{new} // new-side nodes of pairs to propagate from

	// Phase 1: exact subtree matching, largest first, so that moved or
	// copied subtrees keep their identity. Subtrees smaller than 3 nodes
	// are left to the alignment phase: matching a lone "15" text across the
	// document would produce nonsense moves.
	var newNodes []*xmltree.Node
	new.Walk(func(n *xmltree.Node) bool {
		newNodes = append(newNodes, n)
		return true
	})
	sizes := make(map[*xmltree.Node]int, len(newNodes))
	for i := len(newNodes) - 1; i >= 0; i-- {
		n := newNodes[i]
		s := 1
		for _, c := range n.Children {
			s += sizes[c]
		}
		sizes[n] = s
	}
	sort.SliceStable(newNodes, func(i, j int) bool { return sizes[newNodes[i]] > sizes[newNodes[j]] })
	for _, n := range newNodes {
		if m.newToOld[n] != nil || sizes[n] < 3 {
			continue
		}
		var chosen *xmltree.Node
		for _, cand := range byHash[newHash[n]] {
			if m.oldToNew[cand] != nil {
				continue
			}
			if !xmltree.Equal(cand, n) {
				continue // hash collision
			}
			if chosen == nil {
				chosen = cand
			}
			// Prefer a candidate under the matched counterpart of n's parent.
			if n.Parent != nil && cand.Parent != nil && m.oldToNew[cand.Parent] == n.Parent {
				chosen = cand
				break
			}
		}
		if chosen != nil {
			oZipMatch(m, chosen, n, &queue)
		}
	}

	// Phase 2: propagate along the queue — align unmatched children of
	// matched pairs (LCS on labels, then an in-order reorder pass), and
	// propagate matches upward to same-label unmatched parents.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		o := m.newToOld[n]
		if o == nil {
			continue
		}
		oAlignChildren(m, o, n, &queue)
		// Bottom-up: match unmatched parents with equal labels.
		if o.Parent != nil && n.Parent != nil &&
			m.oldToNew[o.Parent] == nil && m.newToOld[n.Parent] == nil &&
			oLabel(o.Parent) == oLabel(n.Parent) {
			m.pair(o.Parent, n.Parent)
			queue = append(queue, n.Parent)
		}
	}
	return m
}

// oZipMatch pairs two structurally equal subtrees node by node.
func oZipMatch(m *oMatching, o, n *xmltree.Node, queue *[]*xmltree.Node) {
	if m.oldToNew[o] != nil || m.newToOld[n] != nil {
		return
	}
	m.pair(o, n)
	*queue = append(*queue, n)
	for i := range o.Children {
		oZipMatch(m, o.Children[i], n.Children[i], queue)
	}
}

// oAlignChildren matches the unmatched children of a matched pair.
func oAlignChildren(m *oMatching, o, n *xmltree.Node, queue *[]*xmltree.Node) {
	var oc, nc []*xmltree.Node
	for _, c := range o.Children {
		if m.oldToNew[c] == nil {
			oc = append(oc, c)
		}
	}
	for _, c := range n.Children {
		if m.newToOld[c] == nil {
			nc = append(nc, c)
		}
	}
	if len(oc) == 0 || len(nc) == 0 {
		return
	}
	// LCS on labels keeps in-order same-label children together.
	for _, p := range oLCSPairs(oc, nc) {
		m.pair(oc[p[0]], nc[p[1]])
		*queue = append(*queue, nc[p[1]])
	}
	// Reorder pass: remaining same-label children match greedily, so a
	// child that merely changed position becomes a move, not delete+insert.
	remaining := map[string][]*xmltree.Node{}
	for _, c := range oc {
		if m.oldToNew[c] == nil {
			remaining[oLabel(c)] = append(remaining[oLabel(c)], c)
		}
	}
	for _, c := range nc {
		if m.newToOld[c] != nil {
			continue
		}
		cands := remaining[oLabel(c)]
		if len(cands) == 0 {
			continue
		}
		m.pair(cands[0], c)
		*queue = append(*queue, c)
		remaining[oLabel(c)] = cands[1:]
	}
}

// oLCSPairs returns index pairs of a longest common subsequence of the two
// child lists, comparing labels.
func oLCSPairs(a, b []*xmltree.Node) [][2]int {
	n, m := len(a), len(b)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if oLabel(a[i]) == oLabel(b[j]) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var out [][2]int
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case oLabel(a[i]) == oLabel(b[j]):
			out = append(out, [2]int{i, j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// --- script generation ---

type oGenerator struct {
	opts    diff.Options
	ops     []diff.Op
	byXID   map[model.XID]*xmltree.Node // work-tree index
	anchors map[model.XID]bool          // nodes whose subtree changed
}

func (g *oGenerator) emit(op diff.Op) { g.ops = append(g.ops, op) }

// reconcile makes work node w (matched to new node n) equal to n, emitting
// and applying ops as it goes.
func (g *oGenerator) reconcile(w, n *xmltree.Node) error {
	if w.Name != n.Name && w.IsElement() {
		g.emit(diff.Op{Kind: diff.OpRename, XID: w.XID, OldValue: w.Name, NewValue: n.Name})
		g.anchors[w.XID] = true
		w.Name = n.Name
	}
	if w.IsText() && w.Value != n.Value {
		g.emit(diff.Op{Kind: diff.OpUpdateText, XID: w.XID, OldValue: w.Value, NewValue: n.Value})
		g.anchors[w.XID] = true
		w.Value = n.Value
	}
	if w.IsElement() && !oAttrsEqualUnordered(w.Attrs, n.Attrs) {
		g.emit(diff.Op{
			Kind:     diff.OpUpdateAttrs,
			XID:      w.XID,
			OldAttrs: append([]xmltree.Attr(nil), w.Attrs...),
			NewAttrs: append([]xmltree.Attr(nil), n.Attrs...),
		})
		g.anchors[w.XID] = true
		w.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
	}
	for i, want := range n.Children {
		if want.XID != 0 {
			wc := g.byXID[want.XID]
			if wc == nil {
				return fmt.Errorf("diff: matched node %d missing from work tree", want.XID)
			}
			if wc.Parent != w || w.ChildIndex(wc) != i {
				oldParent := wc.Parent
				oldPos := oldParent.ChildIndex(wc)
				g.emit(diff.Op{
					Kind: diff.OpMove, XID: wc.XID,
					Parent: w.XID, Pos: i,
					OldParent: oldParent.XID, OldPos: oldPos,
				})
				g.anchors[wc.XID] = true
				g.anchors[oldParent.XID] = true
				g.anchors[w.XID] = true
				wc.Detach()
				w.InsertChild(i, wc)
			}
			if err := g.reconcile(wc, want); err != nil {
				return err
			}
		} else {
			skel := g.skeleton(want)
			g.emit(diff.Op{Kind: diff.OpInsert, Parent: w.XID, Pos: i, Node: skel})
			g.anchors[w.XID] = true
			inserted := skel.Clone()
			w.InsertChild(i, inserted)
			inserted.Walk(func(d *xmltree.Node) bool {
				g.byXID[d.XID] = d
				return true
			})
			if err := g.reconcile(inserted, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// skeleton clones the unmatched parts of a new subtree, assigning fresh
// XIDs (into both the clone and the new tree) and stamping with the new
// version's timestamp. Matched descendants are omitted; reconcile moves
// them in afterwards.
func (g *oGenerator) skeleton(n *xmltree.Node) *xmltree.Node {
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
	for _, c := range n.Children {
		if c.XID != 0 {
			continue // matched: moved in by reconcile
		}
		cp.AppendChild(g.skeleton(c))
	}
	return cp
}

// sweepDeletes removes every work subtree whose root does not exist in the
// new version. After reconcile, all surviving nodes are in their final
// positions, so the doomed subtrees contain no survivors.
func (g *oGenerator) sweepDeletes(work, new *xmltree.Node) {
	alive := make(map[model.XID]bool)
	new.Walk(func(n *xmltree.Node) bool {
		alive[n.XID] = true
		return true
	})
	var doomed []*xmltree.Node
	var collect func(n *xmltree.Node)
	collect = func(n *xmltree.Node) {
		if !alive[n.XID] {
			doomed = append(doomed, n)
			return // maximal subtree; children go with it
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(work)
	for _, d := range doomed {
		parent := d.Parent
		pos := parent.ChildIndex(d)
		g.emit(diff.Op{
			Kind: diff.OpDelete, XID: d.XID,
			OldParent: parent.XID, OldPos: pos,
			Node: d.Clone(),
		})
		g.anchors[parent.XID] = true
		d.Detach()
		d.Walk(func(x *xmltree.Node) bool {
			delete(g.byXID, x.XID)
			return true
		})
	}
}

func oAttrsEqualUnordered(a, b []xmltree.Attr) bool {
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

func oSortRestamps(rs []diff.Restamp) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].XID < rs[j].XID })
}
