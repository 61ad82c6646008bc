package xmltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"txmldb/internal/model"
)

const restaurantXML = `<guide>
  <restaurant><name>Napoli</name><price>15</price></restaurant>
  <restaurant><name>Akropolis</name><price>13</price></restaurant>
</guide>`

func TestParseBasic(t *testing.T) {
	root, err := ParseString(restaurantXML)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "guide" {
		t.Fatalf("root = %q, want guide", root.Name)
	}
	rs := root.ChildElements("restaurant")
	if len(rs) != 2 {
		t.Fatalf("restaurants = %d, want 2", len(rs))
	}
	names := rs[0].SelectPath("name")
	if len(names) != 1 || names[0].Text() != "Napoli" {
		t.Fatalf("first restaurant name = %v", names)
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseAttributes(t *testing.T) {
	root := MustParse(`<a x="1" y="two"><b z="3"/></a>`)
	if v, ok := root.Attr("x"); !ok || v != "1" {
		t.Errorf("attr x = %q, %v", v, ok)
	}
	if v, ok := root.Attr("y"); !ok || v != "two" {
		t.Errorf("attr y = %q, %v", v, ok)
	}
	b := root.ChildElements("b")[0]
	if v, ok := b.Attr("z"); !ok || v != "3" {
		t.Errorf("attr z = %q, %v", v, ok)
	}
	if _, ok := b.Attr("nope"); ok {
		t.Error("unexpected attribute found")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"<a><b></a>",
		"<a></a><b></b>",
		"just text",
		"<a></a> trailing text beyond root </x>",
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestParseMergesCharData(t *testing.T) {
	root := MustParse(`<a>one &amp; two</a>`)
	if len(root.Children) != 1 || root.Children[0].Value != "one & two" {
		t.Fatalf("children = %v", root.Children)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	root := MustParse(restaurantXML)
	again, err := ParseString(root.String())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(root, again) {
		t.Fatalf("round trip mismatch:\n%s\n%s", root, again)
	}
}

func TestMarshalPreservesIdentity(t *testing.T) {
	root := MustParse(restaurantXML)
	var i model.XID
	root.Walk(func(n *Node) bool {
		i++
		n.XID = i
		n.Stamp = model.Time(1000 + int64(i))
		return true
	})
	again, err := Unmarshal(Marshal(root))
	if err != nil {
		t.Fatal(err)
	}
	var mismatch bool
	pairs := [][2]*Node{{root, again}}
	for len(pairs) > 0 {
		a, b := pairs[0][0], pairs[0][1]
		pairs = pairs[1:]
		if a.XID != b.XID || a.Stamp != b.Stamp {
			mismatch = true
			break
		}
		if len(a.Children) != len(b.Children) {
			mismatch = true
			break
		}
		for i := range a.Children {
			pairs = append(pairs, [2]*Node{a.Children[i], b.Children[i]})
		}
	}
	if mismatch {
		t.Fatal("identity not preserved through Marshal/Unmarshal")
	}
	// The identity attributes must not leak into visible attributes.
	if len(again.Attrs) != 0 {
		t.Fatalf("visible attrs after round trip: %v", again.Attrs)
	}
}

func TestInsertRemoveChild(t *testing.T) {
	root := NewElement("r")
	a, b, c := NewElement("a"), NewElement("b"), NewElement("c")
	root.AppendChild(a)
	root.AppendChild(c)
	root.InsertChild(1, b)
	got := make([]string, 0, 3)
	for _, ch := range root.Children {
		got = append(got, ch.Name)
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("children = %v", got)
	}
	removed := root.RemoveChildAt(1)
	if removed != b || removed.Parent != nil {
		t.Fatal("RemoveChildAt broken")
	}
	if root.ChildIndex(c) != 1 {
		t.Fatalf("ChildIndex(c) = %d", root.ChildIndex(c))
	}
	if b.Detach() != b {
		t.Fatal("Detach of parentless node should return the node")
	}
	a.Detach()
	if len(root.Children) != 1 || root.Children[0] != c {
		t.Fatal("Detach did not remove node from parent")
	}
}

func TestInsertChildClamps(t *testing.T) {
	root := NewElement("r")
	root.InsertChild(5, NewElement("a"))  // beyond end → append
	root.InsertChild(-3, NewElement("b")) // negative → front
	if root.Children[0].Name != "b" || root.Children[1].Name != "a" {
		t.Fatalf("clamping broken: %s", root)
	}
}

func TestAttrOps(t *testing.T) {
	n := NewElement("x")
	n.SetAttr("a", "1")
	n.SetAttr("b", "2")
	n.SetAttr("a", "3")
	if v, _ := n.Attr("a"); v != "3" {
		t.Errorf("SetAttr replace failed: %q", v)
	}
	if len(n.Attrs) != 2 {
		t.Errorf("attrs = %v", n.Attrs)
	}
	if !n.RemoveAttr("a") || n.RemoveAttr("a") {
		t.Error("RemoveAttr semantics broken")
	}
}

func TestTextConcatenation(t *testing.T) {
	root := MustParse(`<p>one <b>two</b> three</p>`)
	if got := root.Text(); got != "one two three" {
		t.Errorf("Text() = %q", got)
	}
}

func TestFindXIDAndAncestors(t *testing.T) {
	root := MustParse(restaurantXML)
	var want *Node
	var i model.XID
	root.Walk(func(n *Node) bool {
		if n.IsElement() {
			i++
			n.XID = i
			if n.Name == "price" && want == nil {
				want = n
			}
		}
		return true
	})
	got := root.FindXID(want.XID)
	if got != want {
		t.Fatal("FindXID returned wrong node")
	}
	anc := got.Ancestors()
	if len(anc) != 2 || anc[0].Name != "restaurant" || anc[1].Name != "guide" {
		t.Fatalf("ancestors = %v", anc)
	}
	if got.Root() != root || got.Depth() != 2 || root.Depth() != 0 {
		t.Error("Root/Depth broken")
	}
	if root.FindXID(999) != nil {
		t.Error("FindXID(999) should be nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	root := MustParse(restaurantXML)
	cp := root.Clone()
	if !Equal(root, cp) {
		t.Fatal("clone not equal")
	}
	if cp.Parent != nil {
		t.Fatal("clone should be parentless")
	}
	cp.Children[0].Children[0].Children[0].Value = "CHANGED"
	if Equal(root, cp) {
		t.Fatal("clone shares text storage with original")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneOwnedSharesNoBytes: Unmarshal's strings point into the decoded
// document, Clone copies only their headers, and CloneOwned copies the
// bytes, so an owned copy keeps nothing of the document alive.
func TestCloneOwnedSharesNoBytes(t *testing.T) {
	decoded, err := Unmarshal(Marshal(MustParse(restaurantXML)))
	if err != nil {
		t.Fatal(err)
	}
	if n := sharedStrings(decoded, decoded.Clone()); n == 0 {
		t.Fatal("Clone shares no strings; the check below proves nothing")
	}
	owned := decoded.CloneOwned()
	if !Equal(decoded, owned) || owned.Validate() != nil {
		t.Fatal("CloneOwned is not an equal, valid copy")
	}
	if n := sharedStrings(decoded, owned); n != 0 {
		t.Fatalf("CloneOwned shares %d strings with the decoded tree", n)
	}
}

// sharedStrings counts the non-empty names, values and attribute strings
// of two equal trees that point at the same bytes.
func sharedStrings(a, b *Node) int {
	same := func(x, y string) int {
		if x != "" && unsafe.StringData(x) == unsafe.StringData(y) {
			return 1
		}
		return 0
	}
	n := same(a.Name, b.Name) + same(a.Value, b.Value)
	for i := range a.Attrs {
		n += same(a.Attrs[i].Name, b.Attrs[i].Name) + same(a.Attrs[i].Value, b.Attrs[i].Value)
	}
	for i := range a.Children {
		n += sharedStrings(a.Children[i], b.Children[i])
	}
	return n
}

func TestEqualSemantics(t *testing.T) {
	a := MustParse(`<a x="1" y="2"><b/>t</a>`)
	b := MustParse(`<a y="2" x="1"><b/>t</a>`) // attr order ignored
	if !Equal(a, b) {
		t.Error("attribute order should not affect Equal")
	}
	c := MustParse(`<a x="1" y="2">t<b/></a>`) // child order matters
	if Equal(a, c) {
		t.Error("child order should affect Equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) || Equal(nil, a) {
		t.Error("nil handling broken")
	}
}

func TestIdentityEqual(t *testing.T) {
	a, b := NewElement("x"), NewElement("y")
	if IdentityEqual(a, b) {
		t.Error("unassigned XIDs must not be identity-equal")
	}
	a.XID, b.XID = 7, 7
	if !IdentityEqual(a, b) {
		t.Error("same XID should be identity-equal")
	}
	b.XID = 8
	if IdentityEqual(a, b) {
		t.Error("different XIDs must not be identity-equal")
	}
}

func TestHashMatchesEqual(t *testing.T) {
	a := MustParse(restaurantXML)
	b := MustParse(restaurantXML)
	if a.Hash() != b.Hash() {
		t.Error("equal trees must hash equally")
	}
	b.Children[0].Children[1].Children[0].Value = "16"
	if a.Hash() == b.Hash() {
		t.Error("differing trees should hash differently")
	}
}

func TestHashIgnoresXID(t *testing.T) {
	a := MustParse(`<a><b>t</b></a>`)
	b := a.Clone()
	b.XID = 42
	b.Stamp = 100
	if a.Hash() != b.Hash() {
		t.Error("hash must ignore XID and Stamp")
	}
}

// randomTree builds a pseudo-random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	names := []string{"a", "b", "restaurant", "name", "price", "item"}
	n := NewElement(names[r.Intn(len(names))])
	if r.Intn(3) == 0 {
		n.SetAttr("k"+string(rune('a'+r.Intn(3))), "v")
	}
	kids := r.Intn(4)
	if depth <= 0 {
		kids = 0
	}
	for i := 0; i < kids; i++ {
		if r.Intn(3) == 0 {
			n.AppendChild(NewText("text" + string(rune('0'+r.Intn(10)))))
		} else {
			n.AppendChild(randomTree(r, depth-1))
		}
	}
	return n
}

func TestPropertySerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		again, err := ParseString(tree.String())
		if err != nil {
			// Trees with adjacent text children serialize to merged text;
			// normalize by comparing text content instead.
			return false
		}
		return treesEquivalent(tree, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// treesEquivalent compares trees modulo merging of adjacent text nodes,
// which serialization inherently performs.
func treesEquivalent(a, b *Node) bool {
	return normalize(a).Hash() == normalize(b).Hash()
}

// normalize returns a copy with adjacent text children merged and
// whitespace-only text dropped, mirroring what a serialize/parse round trip
// does.
func normalize(n *Node) *Node {
	cp := &Node{Kind: n.Kind, Name: n.Name, Value: n.Value, Attrs: append([]Attr(nil), n.Attrs...)}
	for _, c := range n.Children {
		nc := normalize(c)
		if nc.IsText() {
			if strings.TrimSpace(nc.Value) == "" {
				continue
			}
			if k := len(cp.Children); k > 0 && cp.Children[k-1].IsText() {
				cp.Children[k-1].Value += nc.Value
				continue
			}
		}
		cp.AppendChild(nc)
	}
	return cp
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		return Equal(tree, tree.Clone()) && tree.Clone().Hash() == tree.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	root := MustParse(`<a><b>t</b></a>`)
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	root.Children[0].Children[0].Name = "oops" // text node with a name
	if err := root.Validate(); err == nil {
		t.Error("Validate should reject text node with element name")
	}
	root2 := MustParse(`<a><b/></a>`)
	root2.Children[0].Parent = nil
	if err := root2.Validate(); err == nil {
		t.Error("Validate should reject broken parent pointer")
	}
}

func TestSelectPathWildcard(t *testing.T) {
	root := MustParse(restaurantXML)
	prices := root.SelectPath("*/price")
	if len(prices) != 2 {
		t.Fatalf("wildcard path matched %d nodes", len(prices))
	}
	if got := root.SelectPath("restaurant/name"); len(got) != 2 {
		t.Fatalf("restaurant/name matched %d", len(got))
	}
	if got := root.SelectPath("/restaurant/name/"); len(got) != 2 {
		t.Fatalf("path trimming broken: %d", len(got))
	}
	if got := root.SelectPath("nosuch/name"); len(got) != 0 {
		t.Fatalf("nonexistent path matched %d", len(got))
	}
}

func TestElements(t *testing.T) {
	root := MustParse(restaurantXML)
	if got := len(root.Elements("name")); got != 2 {
		t.Errorf("Elements(name) = %d", got)
	}
	if got := len(root.Elements("")); got != 7 { // guide + 2*(restaurant,name,price)
		t.Errorf("Elements(\"\") = %d", got)
	}
	if got := len(root.ChildElements("")); got != 2 {
		t.Errorf("ChildElements(\"\") = %d", got)
	}
}

func TestSize(t *testing.T) {
	root := MustParse(restaurantXML)
	// 7 elements + 4 text nodes
	if got := root.Size(); got != 11 {
		t.Errorf("Size = %d, want 11", got)
	}
}

func TestKindString(t *testing.T) {
	if Element.String() != "element" || Text.String() != "text" {
		t.Error("Kind.String broken")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind formatting broken")
	}
}

func TestEscapingRoundTrip(t *testing.T) {
	// Characters that must survive serialize/parse: markup characters in
	// text, quotes and entities in attribute values, unicode.
	cases := []*Node{
		ElemText("a", `five < six & seven > two`),
		func() *Node {
			n := NewElement("a")
			n.SetAttr("q", `he said "hi" & left`)
			n.SetAttr("lt", `a<b>c`)
			return n
		}(),
		ElemText("a", "smörgåsbord — 寿司"),
		ElemText("a", "tab\tnewline\nkept"),
	}
	for _, orig := range cases {
		again, err := ParseString(orig.String())
		if err != nil {
			t.Errorf("%s: %v", orig, err)
			continue
		}
		if !Equal(orig, again) {
			t.Errorf("escaping round trip:\n  orig:  %s\n  again: %s", orig, again)
		}
	}
}

func TestMarshalEscapingWithIdentity(t *testing.T) {
	orig := ElemText("note", `prices: 15 < 18 & "rising"`)
	orig.XID = 3
	orig.Children[0].XID = 4
	orig.Stamp = 77
	again, err := Unmarshal(Marshal(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(orig, again) || again.XID != 3 || again.Children[0].XID != 4 || again.Stamp != 77 {
		t.Fatalf("identity+escaping round trip broken: %s", again)
	}
}

func TestReservedIdentityAttributesAreStripped(t *testing.T) {
	// User documents cannot smuggle identity through reserved attributes:
	// they are interpreted and removed from the visible attribute list.
	root := MustParse(`<a txmldb:xid="42" txmldb:stamp="7" real="kept"/>`)
	if root.XID != 42 || root.Stamp != 7 {
		t.Fatalf("reserved attrs not interpreted: xid=%d stamp=%d", root.XID, root.Stamp)
	}
	if len(root.Attrs) != 1 || root.Attrs[0].Name != "real" {
		t.Fatalf("visible attrs = %v", root.Attrs)
	}
}

func TestDeeplyNestedDocument(t *testing.T) {
	var b strings.Builder
	const depth = 300
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "<d%d>", i)
	}
	b.WriteString("x")
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "</d%d>", i)
	}
	root, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if root.Size() != depth+1 {
		t.Fatalf("size = %d", root.Size())
	}
	if got := root.Text(); got != "x" {
		t.Fatalf("text = %q", got)
	}
	// Round trip at depth.
	if _, err := ParseString(root.String()); err != nil {
		t.Fatal(err)
	}
}
