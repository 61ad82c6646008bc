package pattern

import (
	"testing"

	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

var (
	jan1  = model.Date(2001, 1, 1)
	jan15 = model.Date(2001, 1, 15)
	jan26 = model.Date(2001, 1, 26)
	jan31 = model.Date(2001, 1, 31)
	feb10 = model.Date(2001, 2, 10)
)

func guide(entries ...[2]string) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for _, e := range entries {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", e[0]),
			xmltree.ElemText("price", e[1])))
	}
	return g
}

// figure1 loads the paper's example history into a store + version index.
func figure1(t testing.TB) (*store.Store, fti.Index, model.DocID) {
	t.Helper()
	s := store.New(store.Config{})
	ix := fti.NewVersionIndex()
	id, err := s.Put("guide", guide([2]string{"Napoli", "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)
	for _, step := range []struct {
		at   model.Time
		tree *xmltree.Node
	}{
		{jan15, guide([2]string{"Napoli", "15"}, [2]string{"Akropolis", "13"})},
		{jan31, guide([2]string{"Napoli", "18"})},
	} {
		_, script, err := s.Update(id, step.tree, step.at)
		if err != nil {
			t.Fatal(err)
		}
		cur, _, _ := s.Current(id)
		ix.AddVersion(id, cur, script, step.at)
	}
	return s, ix, id
}

// restaurantPattern returns /guide/restaurant with the restaurant projected.
func restaurantPattern() *PNode {
	r := &PNode{Name: "restaurant", Rel: Child, Project: true}
	return &PNode{Name: "guide", Rel: Child, Children: []*PNode{r}}
}

func TestNewPath(t *testing.T) {
	p, err := NewPath([]string{"guide", "restaurant", "name"}, []Rel{Child, Child, Child})
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	if len(nodes) != 3 || nodes[2].Name != "name" || !nodes[2].Project {
		t.Fatalf("NewPath structure wrong: %s", p)
	}
	if _, err := NewPath(nil, nil); err == nil {
		t.Fatal("empty path must fail")
	}
	if _, err := NewPath([]string{"a"}, []Rel{Child, Child}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestValidate(t *testing.T) {
	bad := &PNode{Name: ""}
	if err := bad.Validate(); err == nil {
		t.Error("empty name must fail validation")
	}
	bad2 := &PNode{Name: "a", Values: []ValuePred{{Word: ""}}}
	if err := bad2.Validate(); err == nil {
		t.Error("empty value word must fail validation")
	}
	if _, err := ScanCurrent(fti.NewVersionIndex(), bad); err == nil {
		t.Error("scan must reject invalid pattern")
	}
}

func TestScanTSnapshots(t *testing.T) {
	_, ix, _ := figure1(t)
	p := restaurantPattern()
	rNode := p.Children[0]

	counts := map[model.Time]int{jan1: 1, jan26: 2, jan31: 1, feb10: 1}
	for at, want := range counts {
		ms, err := ScanT(ix, p, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != want {
			t.Errorf("at %s: %d matches, want %d", at, len(ms), want)
		}
		for _, m := range ms {
			if !m.Span.Contains(at) {
				t.Errorf("match span %v does not contain %s", m.Span, at)
			}
			if m.Bindings[rNode].X == 0 {
				t.Error("restaurant binding missing")
			}
		}
	}
	// Before the document existed.
	if ms, _ := ScanT(ix, p, jan1-1); len(ms) != 0 {
		t.Errorf("pre-creation scan returned %d matches", len(ms))
	}
}

func TestScanWithContainment(t *testing.T) {
	_, ix, _ := figure1(t)
	// /guide/restaurant[name ~ "Napoli"] — the Q3-style filter.
	name := &PNode{Name: "name", Rel: Child, Values: []ValuePred{{Word: "Napoli"}}}
	r := &PNode{Name: "restaurant", Rel: Child, Project: true, Children: []*PNode{name}}
	p := &PNode{Name: "guide", Rel: Child, Children: []*PNode{r}}

	ms, err := ScanT(ix, p, jan26)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("Napoli at jan26: %d matches", len(ms))
	}
	// Akropolis never matches.
	name.Values = []ValuePred{{Word: "Akropolis"}}
	ms, _ = ScanT(ix, p, jan1)
	if len(ms) != 0 {
		t.Fatalf("Akropolis at jan1: %d matches", len(ms))
	}
	ms, _ = ScanT(ix, p, jan26)
	if len(ms) != 1 {
		t.Fatalf("Akropolis at jan26: %d matches", len(ms))
	}
}

func TestScanAllTemporalJoin(t *testing.T) {
	_, ix, _ := figure1(t)
	p := restaurantPattern()
	ms, err := ScanAll(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	// Napoli's restaurant exists over [jan1, ∞) and Akropolis's over
	// [jan15, jan31): two distinct element bindings.
	if len(ms) != 2 {
		t.Fatalf("ScanAll matches = %d, want 2", len(ms))
	}
	spans := map[model.Interval]bool{}
	for _, m := range ms {
		spans[m.Span] = true
	}
	if !spans[model.Interval{Start: jan1, End: model.Forever}] {
		t.Errorf("missing Napoli span, got %v", spans)
	}
	if !spans[model.Interval{Start: jan15, End: jan31}] {
		t.Errorf("missing Akropolis span, got %v", spans)
	}
}

func TestScanAllWithValueChange(t *testing.T) {
	_, ix, _ := figure1(t)
	// Price history of Napoli: restaurant[name~Napoli]/price — the price
	// element is bound once, but the containment predicate on "15" vs "18"
	// splits the temporal join.
	name := &PNode{Name: "name", Rel: Child, Values: []ValuePred{{Word: "Napoli"}}}
	price := &PNode{Name: "price", Rel: Child, Project: true, Values: []ValuePred{{Word: "15"}}}
	r := &PNode{Name: "restaurant", Rel: Child, Children: []*PNode{name, price}}
	p := &PNode{Name: "guide", Rel: Child, Children: []*PNode{r}}

	ms, err := ScanAll(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("price=15 matches = %d, want 1", len(ms))
	}
	want := model.Interval{Start: jan1, End: jan31}
	if ms[0].Span != want {
		t.Errorf("span = %v, want %v", ms[0].Span, want)
	}
	price.Values = []ValuePred{{Word: "18"}}
	ms, _ = ScanAll(ix, p)
	if len(ms) != 1 || ms[0].Span != (model.Interval{Start: jan31, End: model.Forever}) {
		t.Errorf("price=18 matches = %+v", ms)
	}
}

func TestScanCurrent(t *testing.T) {
	s, ix, id := figure1(t)
	p := restaurantPattern()
	ms, err := ScanCurrent(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("current matches = %d", len(ms))
	}
	// Delete the document: current scan goes empty.
	if err := s.Delete(id, feb10); err != nil {
		t.Fatal(err)
	}
	ix.DeleteDoc(id, feb10)
	if ms, _ := ScanCurrent(ix, p); len(ms) != 0 {
		t.Fatalf("current matches after delete = %d", len(ms))
	}
	// Snapshot before deletion still works.
	if ms, _ := ScanT(ix, p, feb10-1); len(ms) != 1 {
		t.Fatal("snapshot before delete lost")
	}
}

func TestDescendantAxis(t *testing.T) {
	s := store.New(store.Config{})
	ix := fti.NewVersionIndex()
	tree := xmltree.MustParse(`<g><area><restaurant><name>Deep</name></restaurant></area></g>`)
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)

	// g//name via descendant axis.
	name := &PNode{Name: "name", Rel: Descendant, Project: true}
	p := &PNode{Name: "g", Rel: Child, Children: []*PNode{name}}
	ms, err := ScanCurrent(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("descendant matches = %d", len(ms))
	}
	// g/name as direct child must not match.
	name.Rel = Child
	if ms, _ := ScanCurrent(ix, p); len(ms) != 0 {
		t.Fatalf("child axis matched %d, want 0", len(ms))
	}
	// Root pattern with Descendant matches anywhere.
	deepOnly := &PNode{Name: "restaurant", Rel: Descendant, Project: true}
	if ms, _ := ScanCurrent(ix, deepOnly); len(ms) != 1 {
		t.Fatal("descendant root failed")
	}
	// Root pattern with Child does not match a grandchild element.
	childOnly := &PNode{Name: "restaurant", Rel: Child, Project: true}
	if ms, _ := ScanCurrent(ix, childOnly); len(ms) != 0 {
		t.Fatal("child-rooted pattern matched a grandchild")
	}
}

func TestForestRootInterpretation(t *testing.T) {
	s := store.New(store.Config{})
	ix := fti.NewVersionIndex()
	id, _ := s.Put("doc", guide([2]string{"Napoli", "15"}), jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)
	// doc(...)/restaurant — restaurant is a child of the stored root, and
	// the forest interpretation lets the path start there.
	p := &PNode{Name: "restaurant", Rel: Child, Project: true}
	ms, err := ScanCurrent(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("forest-root matches = %d", len(ms))
	}
	// The document root itself also matches a root-level step.
	g := &PNode{Name: "guide", Rel: Child, Project: true}
	if ms, _ := ScanCurrent(ix, g); len(ms) != 1 {
		t.Fatal("document root step failed")
	}
}

func TestDeepContainment(t *testing.T) {
	s := store.New(store.Config{})
	ix := fti.NewVersionIndex()
	tree := xmltree.MustParse(`<g><r><info><chef>Mario</chef></info></r><r><info/></r></g>`)
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)

	r := &PNode{Name: "r", Rel: Child, Project: true, Values: []ValuePred{{Word: "Mario", Deep: true}}}
	p := &PNode{Name: "g", Rel: Child, Children: []*PNode{r}}
	ms, err := ScanCurrent(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("deep containment matches = %d, want 1", len(ms))
	}
	// Shallow containment must not see the nested word.
	r.Values = []ValuePred{{Word: "Mario"}}
	if ms, _ := ScanCurrent(ix, p); len(ms) != 0 {
		t.Fatalf("shallow containment matched %d, want 0", len(ms))
	}
}

func TestMultiBranchPattern(t *testing.T) {
	_, ix, _ := figure1(t)
	// restaurant must have BOTH a name and a price child.
	name := &PNode{Name: "name", Rel: Child}
	price := &PNode{Name: "price", Rel: Child}
	r := &PNode{Name: "restaurant", Rel: Child, Project: true, Children: []*PNode{name, price}}
	p := &PNode{Name: "guide", Rel: Child, Children: []*PNode{r}}
	ms, err := ScanT(ix, p, jan26)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("two-branch matches = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Bindings[name].ParentXID() != m.Bindings[r].X ||
			m.Bindings[price].ParentXID() != m.Bindings[r].X {
			t.Fatal("branch bindings not under the same restaurant")
		}
	}
}

func TestProjectedAndTEID(t *testing.T) {
	_, ix, id := figure1(t)
	p := restaurantPattern()
	proj := p.Projected()
	if len(proj) != 1 || proj[0].Name != "restaurant" {
		t.Fatalf("Projected = %v", proj)
	}
	noFlag := &PNode{Name: "guide", Rel: Child}
	if got := noFlag.Projected(); len(got) != 1 || got[0] != noFlag {
		t.Fatal("Projected must fall back to root")
	}
	ms, _ := ScanT(ix, p, jan26)
	for _, m := range ms {
		teid := m.TEID(proj[0], jan26)
		if teid.E.Doc != id || teid.T != jan26 || teid.E.X == 0 {
			t.Fatalf("TEID = %v", teid)
		}
	}
}

func TestPatternString(t *testing.T) {
	name := &PNode{Name: "name", Rel: Child, Values: []ValuePred{{Word: "Napoli"}}}
	price := &PNode{Name: "price", Rel: Descendant, Project: true, Values: []ValuePred{{Word: "15", Deep: true}}}
	r := &PNode{Name: "restaurant", Rel: Child, Children: []*PNode{name, price}}
	got := r.String()
	want := "/restaurant(/name[~Napoli])(//price[~~15]*)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	single, _ := NewPath([]string{"a", "b"}, []Rel{Child, Descendant})
	if single.String() != "/a//b*" {
		t.Errorf("linear String() = %q", single.String())
	}
}

func TestMultipleDocuments(t *testing.T) {
	s := store.New(store.Config{})
	ix := fti.NewVersionIndex()
	for i, name := range []string{"a", "b", "c"} {
		id, _ := s.Put(name, guide([2]string{"Napoli", "15"}), jan1+model.Time(i))
		cur, _, _ := s.Current(id)
		ix.AddVersion(id, cur, nil, jan1+model.Time(i))
	}
	p := restaurantPattern()
	ms, err := ScanCurrent(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("matches across docs = %d, want 3", len(ms))
	}
	docs := map[model.DocID]bool{}
	for _, m := range ms {
		docs[m.Doc] = true
	}
	if len(docs) != 3 {
		t.Fatal("matches must come from three distinct documents")
	}
}

func TestRelString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" || Rel(9).String() != "Rel(9)" {
		t.Error("Rel.String broken")
	}
}

func TestDeepContainmentMatchesElementNames(t *testing.T) {
	s := store.New(store.Config{})
	ix := fti.NewVersionIndex()
	tree := xmltree.MustParse(`<g><r><chef>Mario</chef></r><r><waiter>Luigi</waiter></r></g>`)
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)

	// Deep containment of the *element name* "chef".
	r := &PNode{Name: "r", Rel: Child, Project: true, Values: []ValuePred{{Word: "chef", Deep: true}}}
	p := &PNode{Name: "g", Rel: Child, Children: []*PNode{r}}
	ms, err := ScanCurrent(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("deep name containment matches = %d, want 1", len(ms))
	}
	// Shallow containment must not see element names.
	r.Values = []ValuePred{{Word: "chef"}}
	if ms, _ := ScanCurrent(ix, p); len(ms) != 0 {
		t.Fatalf("shallow containment matched element name: %d", len(ms))
	}
}
