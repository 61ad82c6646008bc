package diff

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// alloc returns a sequential XID allocator starting after the given value.
func alloc(start model.XID) func() model.XID {
	next := start
	return func() model.XID {
		next++
		return next
	}
}

// prepared parses XML and assigns XIDs 1..n in document order with stamp t.
func prepared(t *testing.T, src string, stamp model.Time) (*xmltree.Node, func() model.XID) {
	t.Helper()
	root, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var n model.XID
	a := func() model.XID { n++; return n }
	AssignXIDs(root, a, stamp)
	return root, a
}

func mustDiff(t *testing.T, old, new *xmltree.Node, a func() model.XID, from, to model.Time) (*Script, *xmltree.Node) {
	t.Helper()
	s, annotated, err := Diff(old, new, Options{
		Alloc: a, Stamp: to, FromStamp: from, FromVer: 1, ToVer: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, annotated
}

func TestDiffIdenticalTreesEmptyScript(t *testing.T) {
	old, a := prepared(t, `<g><r><n>Napoli</n><p>15</p></r></g>`, 100)
	s, res := mustDiff(t, old, old.Clone(), a, 100, 200)
	if !s.Empty() {
		t.Fatalf("expected empty script, got %d ops", len(s.Ops))
	}
	if !xmltree.Equal(old, res) {
		t.Fatal("result tree differs")
	}
}

func TestDiffTextUpdate(t *testing.T) {
	old, a := prepared(t, `<g><r><n>Napoli</n><p>15</p></r></g>`, 100)
	new := xmltree.MustParse(`<g><r><n>Napoli</n><p>18</p></r></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)
	if len(s.Ops) != 1 || s.Ops[0].Kind != OpUpdateText {
		t.Fatalf("ops = %v, want single text update", s.Ops)
	}
	if s.Ops[0].OldValue != "15" || s.Ops[0].NewValue != "18" {
		t.Fatalf("update values = %q → %q", s.Ops[0].OldValue, s.Ops[0].NewValue)
	}
	// XID persistence: the price element keeps its identity.
	oldPrice := old.SelectPath("r/p")[0]
	newPrice := res.SelectPath("r/p")[0]
	if oldPrice.XID != newPrice.XID {
		t.Errorf("price XID changed: %d → %d", oldPrice.XID, newPrice.XID)
	}
	// Changed node and its ancestors restamped; sibling untouched.
	if newPrice.Stamp != 200 {
		t.Errorf("price stamp = %d, want 200", newPrice.Stamp)
	}
	if res.Stamp != 200 {
		t.Errorf("root stamp = %d, want 200 (ancestor of change)", res.Stamp)
	}
	if name := res.SelectPath("r/n")[0]; name.Stamp != 100 {
		t.Errorf("untouched sibling restamped to %d", name.Stamp)
	}
}

func TestDiffInsertDelete(t *testing.T) {
	old, a := prepared(t, `<g><r><n>Napoli</n></r></g>`, 100)
	new := xmltree.MustParse(`<g><r><n>Napoli</n></r><r><n>Akropolis</n></r></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)
	st := s.Stats()
	if st.Inserts != 1 || st.Deletes != 0 {
		t.Fatalf("stats = %+v, want one insert", st)
	}
	rs := res.ChildElements("r")
	if len(rs) != 2 {
		t.Fatalf("result has %d restaurants", len(rs))
	}
	if rs[1].XID == 0 || rs[1].XID == rs[0].XID {
		t.Fatalf("inserted element got XID %d", rs[1].XID)
	}
	if rs[1].Stamp != 200 {
		t.Errorf("inserted element stamp = %d, want 200", rs[1].Stamp)
	}

	// Now delete it again; the XID must not be reused.
	gone := xmltree.MustParse(`<g><r><n>Napoli</n></r></g>`)
	s2, res2 := mustDiff(t, res, gone, a, 200, 300)
	if s2.Stats().Deletes != 1 {
		t.Fatalf("stats = %+v, want one delete", s2.Stats())
	}
	if s2.Ops[len(s2.Ops)-1].Node == nil {
		t.Fatal("completed delete must carry the deleted subtree")
	}
	if got := res2.ChildElements("r"); len(got) != 1 || got[0].XID != rs[0].XID {
		t.Fatal("surviving restaurant lost identity")
	}
}

func TestDiffMoveDetection(t *testing.T) {
	old, a := prepared(t, `<g><a><big><x>one</x><y>two</y></big></a><b/></g>`, 100)
	bigXID := old.SelectPath("a/big")[0].XID
	new := xmltree.MustParse(`<g><a/><b><big><x>one</x><y>two</y></big></b></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)
	st := s.Stats()
	if st.Moves != 1 || st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("stats = %+v, want a single move", st)
	}
	moved := res.SelectPath("b/big")
	if len(moved) != 1 || moved[0].XID != bigXID {
		t.Fatal("moved subtree lost its XID")
	}
}

func TestDiffReorderBecomesMove(t *testing.T) {
	old, a := prepared(t, `<g><r><n>Napoli</n><p>15</p></r><r><n>Akropolis</n><p>13</p></r></g>`, 100)
	first := old.ChildElements("r")[0].XID
	second := old.ChildElements("r")[1].XID
	new := xmltree.MustParse(`<g><r><n>Akropolis</n><p>13</p></r><r><n>Napoli</n><p>15</p></r></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)
	if st := s.Stats(); st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("reorder should not insert/delete: %+v", st)
	}
	rs := res.ChildElements("r")
	if rs[0].XID != second || rs[1].XID != first {
		t.Fatalf("XIDs after reorder: %d,%d want %d,%d", rs[0].XID, rs[1].XID, second, first)
	}
}

func TestDiffRootRename(t *testing.T) {
	old, a := prepared(t, `<guide><r/></guide>`, 100)
	new := xmltree.MustParse(`<list><r/></list>`)
	s, res := mustDiff(t, old, new, a, 100, 200)
	if s.Stats().Renames != 1 {
		t.Fatalf("stats = %+v, want one rename", s.Stats())
	}
	if res.Name != "list" || res.XID != old.XID {
		t.Fatal("root rename must keep root identity")
	}
}

func TestDiffAttrUpdate(t *testing.T) {
	old, a := prepared(t, `<g><r stars="3" cuisine="it"/></g>`, 100)
	new := xmltree.MustParse(`<g><r stars="4" cuisine="it"/></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)
	if len(s.Ops) != 1 || s.Ops[0].Kind != OpUpdateAttrs {
		t.Fatalf("ops = %v", s.Ops)
	}
	if v, _ := res.ChildElements("r")[0].Attr("stars"); v != "4" {
		t.Fatal("attr not updated")
	}
	if res.ChildElements("r")[0].XID != old.ChildElements("r")[0].XID {
		t.Fatal("attr update must keep XID")
	}
}

func TestForwardApplyMatchesDiffResult(t *testing.T) {
	old, a := prepared(t, `<g><r><n>Napoli</n><p>15</p></r><r><n>Akropolis</n><p>13</p></r></g>`, 100)
	new := xmltree.MustParse(`<g><r><n>Napoli</n><p>18</p></r><x>fresh</x></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)

	replay := old.Clone()
	if err := Apply(replay, s); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(replay, res) {
		t.Fatalf("replayed tree differs:\n%s\n%s", replay, res)
	}
	// XIDs and stamps must match as well.
	assertSameIdentity(t, replay, res)
}

func TestBackwardApplyRestoresOldVersion(t *testing.T) {
	old, a := prepared(t, `<g><r><n>Napoli</n><p>15</p></r><r><n>Akropolis</n><p>13</p></r></g>`, 100)
	new := xmltree.MustParse(`<g><r><n>Akropolis</n><p>14</p></r><x><y>deep</y></x></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)

	back := res.Clone()
	if err := Apply(back, s.Invert()); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(back, old) {
		t.Fatalf("backward apply differs:\n%s\n%s", back, old)
	}
	assertSameIdentity(t, back, old)
}

func assertSameIdentity(t *testing.T, a, b *xmltree.Node) {
	t.Helper()
	type pair struct{ a, b *xmltree.Node }
	stack := []pair{{a, b}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.a.XID != p.b.XID {
			t.Fatalf("XID mismatch at %q: %d vs %d", p.a.Name+p.a.Value, p.a.XID, p.b.XID)
		}
		if p.a.Stamp != p.b.Stamp {
			t.Fatalf("stamp mismatch at %q (xid %d): %d vs %d", p.a.Name+p.a.Value, p.a.XID, p.a.Stamp, p.b.Stamp)
		}
		if len(p.a.Children) != len(p.b.Children) {
			t.Fatalf("child count mismatch at %q", p.a.Name)
		}
		for i := range p.a.Children {
			stack = append(stack, pair{p.a.Children[i], p.b.Children[i]})
		}
	}
}

func TestScriptXMLRoundTrip(t *testing.T) {
	old, a := prepared(t, `<g><r cuisine="it"><n>Napoli</n><p>15</p></r><d/></g>`, 100)
	new := xmltree.MustParse(`<g><r cuisine="gr"><n>Napoli</n><p>18</p></r><e>added</e></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)

	parsed, err := FromXML(s.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.FromVer != s.FromVer || parsed.ToVer != s.ToVer ||
		parsed.FromStamp != s.FromStamp || parsed.ToStamp != s.ToStamp {
		t.Fatalf("header lost: %+v", parsed)
	}
	if len(parsed.Ops) != len(s.Ops) || len(parsed.Restamps) != len(s.Restamps) {
		t.Fatalf("ops %d/%d restamps %d/%d", len(parsed.Ops), len(s.Ops), len(parsed.Restamps), len(s.Restamps))
	}
	replay := old.Clone()
	if err := Apply(replay, parsed); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(replay, res) {
		t.Fatal("script lost information through XML round trip")
	}
	assertSameIdentity(t, replay, res)
}

func TestScriptXMLSurvivesSerialization(t *testing.T) {
	// The delta must survive being written out as an XML *document* and
	// parsed back (Section 7.1: each delta is stored as a separate XML
	// document).
	old, a := prepared(t, `<g><r><n>Napoli</n><p>15</p></r></g>`, 100)
	new := xmltree.MustParse(`<g><r><n>Napoli</n><p>18</p></r><x/></g>`)
	s, res := mustDiff(t, old, new, a, 100, 200)

	data := xmltree.Marshal(s.ToXML())
	back, err := xmltree.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := FromXML(back)
	if err != nil {
		t.Fatal(err)
	}
	replay := old.Clone()
	if err := Apply(replay, parsed); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(replay, res) {
		t.Fatal("delta document round trip corrupted the script")
	}
	assertSameIdentity(t, replay, res)
}

func TestFromXMLErrors(t *testing.T) {
	cases := []string{
		`<notadelta/>`,
		`<txdelta tover="2" fromstamp="0" tostamp="1"/>`,                                     // missing fromver
		`<txdelta fromver="1" tover="2" fromstamp="0" tostamp="1"><weird/></txdelta>`,        // unknown op
		`<txdelta fromver="1" tover="2" fromstamp="0" tostamp="1"><move xid="1"/></txdelta>`, // missing attrs
	}
	for _, c := range cases {
		if _, err := FromXML(xmltree.MustParse(c)); err == nil {
			t.Errorf("FromXML(%s): expected error", c)
		}
	}
}

// TestFromXMLInsertPayloadIsOneNode: an insert carries exactly one child
// node, element or text; mixed content must not silently pick the text.
func TestFromXMLInsertPayloadIsOneNode(t *testing.T) {
	const head = `<txdelta fromver="1" tover="2" fromstamp="0" tostamp="1">`
	for _, bad := range []string{
		`<insert parent="1" pos="0">text<a/></insert>`,
		`<insert parent="1" pos="0"><a/>text</insert>`,
		`<insert parent="1" pos="0"><a/><b/></insert>`,
		`<insert parent="1" pos="0"></insert>`,
	} {
		if _, err := FromXML(xmltree.MustParse(head + bad + `</txdelta>`)); err == nil {
			t.Errorf("FromXML accepted %s", bad)
		}
	}
	for _, good := range []string{`<insert parent="1" pos="0">text</insert>`, `<insert parent="1" pos="0"><a>x</a></insert>`} {
		root := xmltree.MustParse(head + good + `</txdelta>`)
		want := root.Children[0].Children[0]
		s, err := FromXML(root)
		if err != nil {
			t.Fatalf("FromXML(%s): %v", good, err)
		}
		// The payload is taken over from the consumed tree, not copied.
		if got := s.Ops[0].Node; got != want || got.Parent != nil {
			t.Errorf("FromXML(%s): payload not detached from its <insert>", good)
		}
	}
}

func TestApplyErrors(t *testing.T) {
	root, _ := prepared(t, `<g><a/></g>`, 100)
	cases := []Script{
		{Ops: []Op{{Kind: OpDelete, XID: 99}}},
		{Ops: []Op{{Kind: OpInsert, Parent: 99, Node: xmltree.NewElement("x")}}},
		{Ops: []Op{{Kind: OpUpdateText, XID: 99}}},
		{Ops: []Op{{Kind: OpUpdateText, XID: root.XID}}}, // element, not text
		{Ops: []Op{{Kind: OpMove, XID: 99, Parent: root.XID}}},
		{Ops: []Op{{Kind: OpInsert, Parent: root.XID, Pos: 7, Node: xmltree.NewElement("x")}}},
	}
	for i, s := range cases {
		if err := Apply(root.Clone(), &s); err == nil {
			t.Errorf("case %d: expected apply error", i)
		}
	}
}

func TestDiffRequiresXIDs(t *testing.T) {
	old := xmltree.MustParse(`<g/>`) // no XIDs assigned
	if _, _, err := Diff(old, xmltree.MustParse(`<g/>`), Options{Alloc: alloc(0)}); err == nil {
		t.Fatal("Diff must reject old trees without XIDs")
	}
	withIDs, _ := prepared(t, `<g/>`, 1)
	if _, _, err := Diff(withIDs, xmltree.MustParse(`<g/>`), Options{}); err == nil {
		t.Fatal("Diff must reject missing Alloc")
	}
}

// --- property tests ---

// mutate applies n random edits to the tree and returns the result.
func mutate(r *rand.Rand, root *xmltree.Node, edits int) *xmltree.Node {
	out := root.Clone()
	out.Walk(func(n *xmltree.Node) bool { n.XID = 0; n.Stamp = 0; return true })
	words := []string{"alpha", "beta", "gamma", "delta", "15", "18", "Napoli"}
	names := []string{"r", "n", "p", "item", "info"}
	for i := 0; i < edits; i++ {
		var elems []*xmltree.Node
		out.Walk(func(n *xmltree.Node) bool {
			if n.IsElement() {
				elems = append(elems, n)
			}
			return true
		})
		target := elems[r.Intn(len(elems))]
		switch r.Intn(5) {
		case 0: // insert element with text
			target.InsertChild(r.Intn(len(target.Children)+1),
				xmltree.ElemText(names[r.Intn(len(names))], words[r.Intn(len(words))]))
		case 1: // delete a child
			if len(target.Children) > 0 {
				target.RemoveChildAt(r.Intn(len(target.Children)))
			}
		case 2: // update a text node
			var texts []*xmltree.Node
			out.Walk(func(n *xmltree.Node) bool {
				if n.IsText() {
					texts = append(texts, n)
				}
				return true
			})
			if len(texts) > 0 {
				texts[r.Intn(len(texts))].Value = words[r.Intn(len(words))]
			}
		case 3: // attribute change
			target.SetAttr("k", words[r.Intn(len(words))])
		case 4: // move a subtree elsewhere (avoiding cycles)
			if len(elems) > 2 {
				sub := elems[1+r.Intn(len(elems)-1)]
				dst := elems[r.Intn(len(elems))]
				cyclic := false
				for p := dst; p != nil; p = p.Parent {
					if p == sub {
						cyclic = true
						break
					}
				}
				if !cyclic && sub.Parent != nil {
					sub.Detach()
					dst.InsertChild(r.Intn(len(dst.Children)+1), sub)
				}
			}
		}
	}
	return out
}

func seedTree(r *rand.Rand) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for i := 0; i < 3+r.Intn(5); i++ {
		rest := xmltree.Elem("restaurant",
			xmltree.ElemText("name", "R"+string(rune('A'+i))),
			xmltree.ElemText("price", "10"))
		if r.Intn(2) == 0 {
			rest.SetAttr("cuisine", "it")
		}
		g.AppendChild(rest)
	}
	return g
}

func TestPropertyDiffApplyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var n model.XID
		a := func() model.XID { n++; return n }
		old := seedTree(r)
		AssignXIDs(old, a, 100)
		new := mutate(r, old, 1+r.Intn(6))

		s, res, err := Diff(old, new, Options{Alloc: a, Stamp: 200, FromStamp: 100, FromVer: 1, ToVer: 2})
		if err != nil {
			t.Logf("seed %d: diff error: %v", seed, err)
			return false
		}
		if !xmltree.Equal(res, new) {
			t.Logf("seed %d: result != new", seed)
			return false
		}
		// Forward replay.
		fwd := old.Clone()
		if err := Apply(fwd, s); err != nil || !xmltree.Equal(fwd, res) {
			t.Logf("seed %d: forward replay failed: %v", seed, err)
			return false
		}
		// Backward replay.
		back := res.Clone()
		if err := Apply(back, s.Invert()); err != nil || !xmltree.Equal(back, old) {
			t.Logf("seed %d: backward replay failed: %v", seed, err)
			return false
		}
		// Backward must also restore identity and stamps exactly.
		match := true
		var walk func(a, b *xmltree.Node)
		walk = func(a, b *xmltree.Node) {
			if a.XID != b.XID || a.Stamp != b.Stamp || len(a.Children) != len(b.Children) {
				match = false
				return
			}
			for i := range a.Children {
				walk(a.Children[i], b.Children[i])
			}
		}
		walk(back, old)
		if !match {
			t.Logf("seed %d: backward identity mismatch", seed)
		}
		return match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScriptXMLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var n model.XID
		a := func() model.XID { n++; return n }
		old := seedTree(r)
		AssignXIDs(old, a, 100)
		new := mutate(r, old, 1+r.Intn(5))
		s, res, err := Diff(old, new, Options{Alloc: a, Stamp: 200, FromStamp: 100})
		if err != nil {
			return false
		}
		parsed, err := FromXML(s.ToXML())
		if err != nil {
			t.Logf("seed %d: FromXML: %v", seed, err)
			return false
		}
		fwd := old.Clone()
		if err := Apply(fwd, parsed); err != nil {
			t.Logf("seed %d: apply parsed: %v", seed, err)
			return false
		}
		return xmltree.Equal(fwd, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOpKindString(t *testing.T) {
	kinds := map[OpKind]string{
		OpInsert: "insert", OpDelete: "delete", OpUpdateText: "update",
		OpUpdateAttrs: "updateattrs", OpRename: "rename", OpMove: "move",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestStatsCounts(t *testing.T) {
	old, a := prepared(t, `<g><a><b>x</b></a><c>y</c></g>`, 100)
	new := xmltree.MustParse(`<g><a><b>z</b></a><d>fresh</d></g>`)
	s, _ := mustDiff(t, old, new, a, 100, 200)
	st := s.Stats()
	if st.Updates < 1 || st.Inserts < 1 || st.Deletes < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.NodesInserted < 2 || st.NodesDeleted < 2 {
		t.Fatalf("node counts = %+v", st)
	}
}

// TestSingleEditInLargeTreeStaysSmall: the script for one text change in a
// 1000-element tree is one operation — delta size tracks change size, not
// document size, which is what makes delta storage pay off (§7.1).
func TestSingleEditInLargeTreeStaysSmall(t *testing.T) {
	big := xmltree.NewElement("guide")
	for i := 0; i < 500; i++ {
		big.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("r%d", i)),
			xmltree.ElemText("price", fmt.Sprint(i%40))))
	}
	var n model.XID
	a := func() model.XID { n++; return n }
	AssignXIDs(big, a, 100)

	next := big.Clone()
	next.Walk(func(nd *xmltree.Node) bool { nd.XID = 0; nd.Stamp = 0; return true })
	next.Children[250].SelectPath("price")[0].Children[0].Value = "999"

	s, _, err := Diff(big, next, Options{Alloc: a, Stamp: 200, FromStamp: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 1 || s.Ops[0].Kind != OpUpdateText {
		t.Fatalf("ops = %d (%v), want a single text update", len(s.Ops), s.Stats())
	}
	// Restamps cover the changed path only: text node + price + restaurant
	// + guide.
	if len(s.Restamps) > 4 {
		t.Fatalf("restamps = %d, want <= 4", len(s.Restamps))
	}
	// The delta document is tiny compared to the full serialization.
	deltaLen := len(xmltree.Marshal(s.ToXML()))
	fullLen := len(xmltree.Marshal(next))
	if deltaLen*10 > fullLen {
		t.Fatalf("delta %dB vs full %dB: delta should be <10%%", deltaLen, fullLen)
	}
}

func BenchmarkDiffSingleEdit(b *testing.B) {
	big := xmltree.NewElement("guide")
	for i := 0; i < 200; i++ {
		big.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("r%d", i)),
			xmltree.ElemText("price", fmt.Sprint(i%40))))
	}
	var n model.XID
	a := func() model.XID { n++; return n }
	AssignXIDs(big, a, 100)
	next := big.Clone()
	next.Walk(func(nd *xmltree.Node) bool { nd.XID = 0; nd.Stamp = 0; return true })
	next.Children[100].SelectPath("price")[0].Children[0].Value = "999"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := big.Clone()
		fresh := next.Clone()
		if _, _, err := Diff(old, fresh, Options{Alloc: a, Stamp: 200, FromStamp: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyInvertedScript(b *testing.B) {
	old := xmltree.MustParse(`<g><r><n>Napoli</n><p>15</p></r><r><n>Akropolis</n><p>13</p></r></g>`)
	var n model.XID
	a := func() model.XID { n++; return n }
	AssignXIDs(old, a, 100)
	next := xmltree.MustParse(`<g><r><n>Napoli</n><p>18</p></r><x>fresh</x></g>`)
	s, res, err := Diff(old, next, Options{Alloc: a, Stamp: 200, FromStamp: 100})
	if err != nil {
		b.Fatal(err)
	}
	inv := s.Invert()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := res.Clone()
		if err := Apply(tree, inv); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPropertyPermutationIsMoves: shuffling children produces only move
// operations — never deletes or inserts — and identity is fully preserved.
func TestPropertyPermutationIsMoves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		old := xmltree.NewElement("g")
		n := 3 + r.Intn(8)
		for i := 0; i < n; i++ {
			old.AppendChild(xmltree.Elem("r",
				xmltree.ElemText("name", fmt.Sprintf("e%d", i))))
		}
		var x model.XID
		a := func() model.XID { x++; return x }
		AssignXIDs(old, a, 100)

		next := old.Clone()
		next.Walk(func(nd *xmltree.Node) bool { nd.XID = 0; nd.Stamp = 0; return true })
		r.Shuffle(len(next.Children), func(i, j int) {
			next.Children[i], next.Children[j] = next.Children[j], next.Children[i]
		})

		s, res, err := Diff(old, next, Options{Alloc: a, Stamp: 200, FromStamp: 100})
		if err != nil {
			return false
		}
		st := s.Stats()
		if st.Inserts != 0 || st.Deletes != 0 || st.Updates != 0 {
			t.Logf("seed %d: stats %+v", seed, st)
			return false
		}
		// Every child kept its XID.
		oldByName := map[string]model.XID{}
		for _, c := range old.Children {
			oldByName[c.Text()] = c.XID
		}
		for _, c := range res.Children {
			if oldByName[c.Text()] != c.XID {
				t.Logf("seed %d: %q changed identity", seed, c.Text())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
