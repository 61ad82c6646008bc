package diff_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// diffBoth runs Diff and the oracle on private copies of the same inputs,
// with allocators starting at the same XID, and fails unless the scripts
// serialize to the same bytes and the annotated results — the returned
// tree and the annotated input — are equal with XIDs and stamps. It
// returns the current implementation's script and annotated tree.
func diffBoth(t testing.TB, old, new *xmltree.Node, next model.XID, opts diff.Options) (*diff.Script, *xmltree.Node) {
	t.Helper()
	run := func(f func(old, new *xmltree.Node, opts diff.Options) (*diff.Script, *xmltree.Node, error)) (*diff.Script, *xmltree.Node, *xmltree.Node, error) {
		x := next
		opts.Alloc = func() model.XID { x++; return x }
		in := new.Clone()
		s, res, err := f(old.Clone(), in, opts)
		return s, res, in, err
	}
	got, gotTree, gotIn, err := run(diff.Diff)
	want, wantTree, wantIn, werr := run(oracleDiff)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Diff error %v, oracle error %v", err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("Diff error %q, oracle error %q", err, werr)
		}
		return nil, nil
	}
	if g, w := xmltree.Marshal(got.ToXML()), xmltree.Marshal(want.ToXML()); !bytes.Equal(g, w) {
		t.Fatalf("scripts differ:\n got  %s\n want %s", g, w)
	}
	if g, w := xmltree.Marshal(gotTree), xmltree.Marshal(wantTree); !bytes.Equal(g, w) {
		t.Fatalf("annotated trees differ:\n got  %s\n want %s", g, w)
	}
	if g, w := xmltree.Marshal(gotIn), xmltree.Marshal(wantIn); !bytes.Equal(g, w) {
		t.Fatalf("annotated inputs differ:\n got  %s\n want %s", g, w)
	}
	return got, gotTree
}

// maxXID returns the largest XID in the tree.
func maxXID(root *xmltree.Node) model.XID {
	var m model.XID
	root.Walk(func(n *xmltree.Node) bool {
		m = max(m, n.XID)
		return true
	})
	return m
}

// oracleHistory is one generated history with extra edits layered on top
// of tdocgen's, each on one version only, so the next version undoes it.
func oracleHistory(seed int64, cfg tdocgen.Config) []tdocgen.Version {
	cfg.Seed = seed
	hist := tdocgen.New(cfg).History(0)
	for v := 1; v < len(hist); v++ {
		layerEdit(hist[v].Tree, v, int(seed))
	}
	return hist
}

// layerEdit makes one of the edits tdocgen does not: a root rename, a
// deleted restaurant (recreated by the next version), a deleted text (the
// next version inserts it again), a move to another parent, a duplicated
// subtree, or mixed content.
func layerEdit(tree *xmltree.Node, v, k int) {
	rs := tree.ChildElements("restaurant")
	if len(rs) < 3 {
		return
	}
	a, b := rs[(k+v)%len(rs)], rs[(k+2*v+1)%len(rs)]
	switch v % 6 {
	case 1:
		tree.Name = fmt.Sprintf("guide%d", v%3)
	case 2:
		a.Detach()
	case 3:
		if p := a.SelectPath("price"); len(p) > 0 && len(p[0].Children) > 0 {
			p[0].RemoveChildAt(0)
		}
	case 4:
		if ch, in := a.SelectPath("info/chef"), b.SelectPath("info"); a != b && len(ch) > 0 && len(in) > 0 {
			in[0].AppendChild(ch[0].Detach())
		}
	case 5:
		tree.InsertChild(k%len(tree.Children), a.Clone())
	case 0:
		a.InsertChild(1, xmltree.NewText("mixed"))
	}
}

// TestDiffMatchesOracle: on seeded histories — every tdocgen edit kind
// including moves and attribute edits, plus layerEdit's — Diff produces
// the oracle's scripts, XIDs and stamps byte for byte.
func TestDiffMatchesOracle(t *testing.T) {
	configs := map[string]tdocgen.Config{
		"default": {InitialElems: 12, Versions: 30, OpsPerVersion: 3},
		"moves":   {InitialElems: 12, Versions: 30, OpsPerVersion: 4, UpdateWeight: 2, InsertWeight: 1, DeleteWeight: 1, MoveWeight: 3},
		"ingest":  {InitialElems: 120, Versions: 6, OpsPerVersion: 3, UpdateWeight: 5, InsertWeight: 1, DeleteWeight: 1},
		"churn":   {InitialElems: 4, Versions: 40, OpsPerVersion: 6, Vocabulary: 5, UpdateWeight: 1, InsertWeight: 2, DeleteWeight: 2, MoveWeight: 2},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				hist := oracleHistory(seed, cfg)
				var next model.XID
				cur := hist[0].Tree.Clone()
				diff.AssignXIDs(cur, func() model.XID { next++; return next }, hist[0].At)
				for v := 1; v < len(hist); v++ {
					_, res := diffBoth(t, cur, hist[v].Tree, maxXID(cur), diff.Options{
						Stamp: hist[v].At, FromStamp: hist[v-1].At,
						FromVer: model.VersionNo(v), ToVer: model.VersionNo(v + 1),
					})
					cur = res
				}
			}
		})
	}
}

// TestDiffMatchesOracleOnCraftedTrees pins the matcher's tie-breaks:
// the reorder pass takes each unmatched old child once, a candidate under
// the matched parent wins over an earlier one, and attribute order does
// not hide an exact subtree.
func TestDiffMatchesOracleOnCraftedTrees(t *testing.T) {
	for _, c := range []struct{ old, new string }{
		{`<g><x/><x/><y/></g>`, `<g><y/><x/></g>`},
		{`<g><s><r><a/><b/></r></s><r><a/><b/></r></g>`, `<g><r><a/><b/></r><t/></g>`},
		{`<g><s><r k="1" j="2"><a/><b/></r></s><t/></g>`, `<g><s/><t><r j="2" k="1"><a/><b/></r></t></g>`},
	} {
		old := xmltree.MustParse(c.old)
		var next model.XID
		diff.AssignXIDs(old, func() model.XID { next++; return next }, 1)
		diffBoth(t, old, xmltree.MustParse(c.new), next, diff.Options{Stamp: 2, FromStamp: 1})
	}
}

// TestDiffErrorsMatchOracle: an old tree with missing XIDs is reported
// with the oracle's message.
func TestDiffErrorsMatchOracle(t *testing.T) {
	old := xmltree.MustParse(`<a><b>x</b><c><d/></c><e/></a>`)
	old.XID = 1
	old.Children[0].XID = 2
	diffBoth(t, old, xmltree.MustParse(`<a/>`), 10, diff.Options{Stamp: 2, FromStamp: 1})
}

// fuzzTree builds a small tree from data, drawing labels and texts from a
// tiny alphabet so that equal subtrees, same-label siblings and hash
// buckets with several candidates are common.
type fuzzTree struct {
	data []byte
	pos  int
}

func (f *fuzzTree) next() int {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return int(b)
}

var (
	fuzzNames = []string{"a", "b", "c", "r"}
	fuzzTexts = []string{"1", "2", "x y", "Napoli"}
)

func (f *fuzzTree) node(depth int) *xmltree.Node {
	b := f.next()
	if depth > 0 && b%5 == 0 {
		return xmltree.NewText(fuzzTexts[(b/5)%len(fuzzTexts)])
	}
	n := xmltree.NewElement(fuzzNames[b%len(fuzzNames)])
	if b&0x40 != 0 {
		n.SetAttr("k", fuzzTexts[b%len(fuzzTexts)])
	}
	if b&0x80 != 0 {
		n.SetAttr("j", "v")
	}
	if depth < 4 {
		kids := f.next() % 4
		lastText := false
		for i := 0; i < kids; i++ {
			c := f.node(depth + 1)
			if c.IsText() && lastText {
				continue // adjacent texts would merge in any serialized form
			}
			lastText = c.IsText()
			n.AppendChild(c)
		}
	}
	return n
}

// edit applies one data-driven edit to a random node of root.
func (f *fuzzTree) edit(root *xmltree.Node) {
	var all []*xmltree.Node
	root.Walk(func(n *xmltree.Node) bool { all = append(all, n); return true })
	target := all[f.next()%len(all)]
	switch op := f.next() % 6; {
	case op == 0 && target.IsText():
		target.Value = fuzzTexts[f.next()%len(fuzzTexts)]
	case op == 0:
		target.Name = fuzzNames[f.next()%len(fuzzNames)]
	case op == 1 && len(target.Attrs) == 2:
		target.Attrs[0], target.Attrs[1] = target.Attrs[1], target.Attrs[0]
	case op == 1 && target.IsElement():
		target.SetAttr("k", fuzzTexts[f.next()%len(fuzzTexts)])
	case op == 2 && target.Parent != nil:
		target.Detach()
	case op == 3 && target.IsElement():
		target.InsertChild(f.next()%(len(target.Children)+1), f.node(3))
	case op == 4 && target.Parent != nil:
		dest := all[f.next()%len(all)]
		for p := dest; p != nil; p = p.Parent {
			if p == target {
				return
			}
		}
		if dest.IsElement() {
			target.Detach()
			dest.InsertChild(f.next()%(len(dest.Children)+1), target)
		}
	case op == 5 && target.Parent != nil && target.IsElement():
		target.Parent.InsertChild(f.next()%(len(target.Parent.Children)+1), target.Clone())
	}
}

// mergeTexts joins adjacent text children, which no serialized document
// can express as two nodes.
func mergeTexts(root *xmltree.Node) {
	root.Walk(func(n *xmltree.Node) bool {
		for i := 1; i < len(n.Children); {
			a, b := n.Children[i-1], n.Children[i]
			if a.IsText() && b.IsText() {
				a.Value += b.Value
				n.RemoveChildAt(i)
				continue
			}
			i++
		}
		return true
	})
}

// FuzzDiff is checkFuzzCase over fuzzed inputs.
func FuzzDiff(f *testing.F) {
	f.Add([]byte("\x01\x03\x05\x02\x00\x09\x01\x00\x02\x04\x00"))
	f.Add([]byte("\x07\x03\x43\x02\x85\x01\x0a\x02\x01\x04\x05\x03\x02"))
	f.Add([]byte("\x00\x03\x01\x02\x01\x02\x01\x02\x00\x05\x02\x04\x01\x03\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFuzzCase(t, data)
	})
}

// checkFuzzCase builds an old tree and an edited new tree from data and
// requires Diff to agree with the oracle byte for byte, and its script to
// round-trip: applied forward it yields the annotated new tree, inverted
// it restores the old one.
func checkFuzzCase(t *testing.T, data []byte) {
	t.Helper()
	ft := &fuzzTree{data: data}
	old := ft.node(0)
	new := old.Clone()
	for edits := ft.next() % 5; edits >= 0; edits-- {
		ft.edit(new)
	}
	mergeTexts(new)
	var next model.XID
	diff.AssignXIDs(old, func() model.XID { next++; return next }, 1)
	s, res := diffBoth(t, old, new, next, diff.Options{Stamp: 2, FromStamp: 1, FromVer: 1, ToVer: 2})
	if s == nil {
		return // both failed alike
	}
	fwd := old.Clone()
	if err := diff.Apply(fwd, s); err != nil {
		t.Fatalf("forward apply: %v", err)
	}
	if g, w := xmltree.Marshal(fwd), xmltree.Marshal(res); !bytes.Equal(g, w) {
		t.Fatalf("forward apply:\n got  %s\n want %s", g, w)
	}
	if err := diff.Apply(fwd, s.Invert()); err != nil {
		t.Fatalf("backward apply: %v", err)
	}
	if g, w := xmltree.Marshal(fwd), xmltree.Marshal(old); !bytes.Equal(g, w) {
		t.Fatalf("backward apply:\n got  %s\n want %s", g, w)
	}
}

// TestDiffMatchesOracleOnRandomTrees runs the fuzz property on seeded
// random inputs: duplicated subtrees, moves between parents and
// same-label siblings that tdocgen histories rarely produce.
func TestDiffMatchesOracleOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 3000; i++ {
		r.Read(data)
		checkFuzzCase(t, data)
	}
}
