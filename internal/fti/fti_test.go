package fti

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

func guideXML(entries ...[2]string) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for _, e := range entries {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", e[0]),
			xmltree.ElemText("price", e[1])))
	}
	return g
}

// loadFigure1 drives the Figure 1 history through a store and the given
// index, returning the store and doc id.
func loadFigure1(t testing.TB, ix Index) (*store.Store, model.DocID) {
	t.Helper()
	s := store.New(store.Config{})
	steps := []struct {
		t    model.Time
		tree *xmltree.Node
	}{
		{jan1, guideXML([2]string{"Napoli", "15"})},
		{jan15, guideXML([2]string{"Napoli", "15"}, [2]string{"Akropolis", "13"})},
		{jan31, guideXML([2]string{"Napoli", "18"})},
	}
	id, err := s.Put("guide", steps[0].tree, steps[0].t)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ := s.Current(id)
	if err := ix.AddVersion(id, cur, nil, steps[0].t); err != nil {
		t.Fatal(err)
	}
	for _, st := range steps[1:] {
		_, script, err := s.Update(id, st.tree, st.t)
		if err != nil {
			t.Fatal(err)
		}
		cur, _, _ := s.Current(id)
		if err := ix.AddVersion(id, cur, script, st.t); err != nil {
			t.Fatal(err)
		}
	}
	return s, id
}

func indexes() []Index {
	return []Index{NewVersionIndex(), NewDeltaIndex(), NewBothIndex()}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Napoli", []string{"Napoli"}},
		{"hello, world", []string{"hello", "world"}},
		{"a-b_c", []string{"a", "b", "c"}},
		{"  ", nil},
		{"15.50", []string{"15", "50"}},
		{"côte d'or", []string{"côte", "d", "or"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestLookupTAcrossHistory(t *testing.T) {
	for _, ix := range indexes() {
		t.Run(ix.Name(), func(t *testing.T) {
			_, _ = loadFigure1(t, ix)
			// Akropolis exists only in [jan15, jan31).
			if got := ix.LookupT("Akropolis", jan1); len(got) != 0 {
				t.Errorf("Akropolis at jan1: %d postings", len(got))
			}
			if got := ix.LookupT("Akropolis", jan26); len(got) != 1 {
				t.Errorf("Akropolis at jan26: %d postings", len(got))
			}
			if got := ix.LookupT("Akropolis", jan31); len(got) != 0 {
				t.Errorf("Akropolis at jan31: %d postings", len(got))
			}
			// Price text: 15 until jan31, 18 after.
			if got := ix.LookupT("15", jan26); len(got) != 1 {
				t.Errorf("15 at jan26: %d postings", len(got))
			}
			if got := ix.LookupT("15", jan31); len(got) != 0 {
				t.Errorf("15 at jan31: %d postings", len(got))
			}
			if got := ix.LookupT("18", jan31); len(got) != 1 {
				t.Errorf("18 at jan31: %d postings", len(got))
			}
			// Napoli spans the whole history.
			for _, at := range []model.Time{jan1, jan26, feb10} {
				if got := ix.LookupT("Napoli", at); len(got) != 1 {
					t.Errorf("Napoli at %s: %d postings", at, len(got))
				}
			}
		})
	}
}

func TestLookupCurrentAndHistory(t *testing.T) {
	for _, ix := range indexes() {
		t.Run(ix.Name(), func(t *testing.T) {
			loadFigure1(t, ix)
			if got := ix.Lookup("Akropolis"); len(got) != 0 {
				t.Errorf("current Akropolis: %d", len(got))
			}
			if got := ix.Lookup("Napoli"); len(got) != 1 {
				t.Errorf("current Napoli: %d", len(got))
			}
			if got := ix.LookupH("Akropolis"); len(got) != 1 {
				t.Errorf("historic Akropolis: %d", len(got))
			}
			// "restaurant" element name: Napoli's for the whole history,
			// Akropolis's for [jan15, jan31).
			if got := ix.LookupH("restaurant"); len(got) != 2 {
				t.Errorf("historic restaurant postings: %d, want 2", len(got))
			}
		})
	}
}

func TestSourceSeparation(t *testing.T) {
	ix := NewVersionIndex()
	s := store.New(store.Config{})
	// The word "price" appears as an element name AND as text content.
	tree := xmltree.Elem("guide",
		xmltree.Elem("restaurant",
			xmltree.ElemText("price", "15"),
			xmltree.ElemText("note", "good price")))
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	if err := ix.AddVersion(id, cur, nil, jan1); err != nil {
		t.Fatal(err)
	}
	got := ix.Lookup("price")
	if len(got) != 2 {
		t.Fatalf("price postings = %d, want 2", len(got))
	}
	bySrc := map[Source]int{}
	for _, p := range got {
		bySrc[p.Src]++
	}
	if bySrc[SrcName] != 1 || bySrc[SrcText] != 1 {
		t.Fatalf("source split = %v", bySrc)
	}
}

func TestPostingPathsSupportStructuralJoins(t *testing.T) {
	ix := NewVersionIndex()
	s := store.New(store.Config{})
	tree := guideXML([2]string{"Napoli", "15"})
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)

	guide := ix.Lookup("guide")[0]
	rest := ix.Lookup("restaurant")[0]
	napoli := ix.Lookup("Napoli")[0] // owned by <name>
	name := ix.Lookup("name")[0]

	if napoli.X != name.X {
		t.Fatal("text word must be owned by its parent element")
	}
	if napoli.ParentXID() != rest.X {
		t.Fatal("name's parent must be restaurant")
	}
	if !napoli.HasAncestor(guide.X) || !napoli.HasAncestor(rest.X) {
		t.Fatal("ancestor chain broken")
	}
	if napoli.HasAncestor(napoli.X) {
		t.Fatal("HasAncestor must be proper")
	}
	if guide.ParentXID() != 0 {
		t.Fatal("root has no parent")
	}
}

func TestAttributeWordsIndexed(t *testing.T) {
	ix := NewVersionIndex()
	s := store.New(store.Config{})
	tree := xmltree.MustParse(`<guide><restaurant cuisine="italian pizza"/></guide>`)
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)
	for _, w := range []string{"cuisine", "italian", "pizza"} {
		got := ix.Lookup(w)
		if len(got) != 1 || got[0].Src != SrcAttr {
			t.Errorf("attr word %q: %v", w, got)
		}
	}
}

func TestRefcountedOccurrences(t *testing.T) {
	ix := NewVersionIndex()
	s := store.New(store.Config{})
	tree := xmltree.Elem("g", xmltree.ElemText("a", "dup"), xmltree.ElemText("b", "dup"))
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)
	// Two separate elements → two postings for "dup".
	if got := ix.Lookup("dup"); len(got) != 2 {
		t.Fatalf("dup postings = %d", len(got))
	}
	// Remove one of them: the other posting must stay open.
	_, script, err := s.Update(id, xmltree.Elem("g", xmltree.ElemText("a", "dup")), jan15)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ = s.Current(id)
	ix.AddVersion(id, cur, script, jan15)
	if got := ix.Lookup("dup"); len(got) != 1 {
		t.Fatalf("dup postings after delete = %d", len(got))
	}
}

func TestSameWordTwiceUnderOneElement(t *testing.T) {
	for _, ix := range indexes() {
		t.Run(ix.Name(), func(t *testing.T) {
			s := store.New(store.Config{})
			tree := xmltree.Elem("g", xmltree.ElemText("a", "dup dup"))
			id, _ := s.Put("doc", tree, jan1)
			cur, _, _ := s.Current(id)
			ix.AddVersion(id, cur, nil, jan1)
			if got := ix.Lookup("dup"); len(got) != 1 {
				t.Fatalf("postings = %d, want 1 (deduplicated)", len(got))
			}
			// Drop one occurrence: still there.
			_, script, _ := s.Update(id, xmltree.Elem("g", xmltree.ElemText("a", "dup")), jan15)
			cur, _, _ = s.Current(id)
			ix.AddVersion(id, cur, script, jan15)
			if got := ix.Lookup("dup"); len(got) != 1 {
				t.Fatalf("postings after partial removal = %d, want 1", len(got))
			}
			// Drop the last occurrence: gone.
			_, script, _ = s.Update(id, xmltree.Elem("g", xmltree.ElemText("a", "none")), jan31)
			cur, _, _ = s.Current(id)
			ix.AddVersion(id, cur, script, jan31)
			if got := ix.Lookup("dup"); len(got) != 0 {
				t.Fatalf("postings after full removal = %d, want 0", len(got))
			}
			if got := ix.LookupT("dup", jan15); len(got) != 1 {
				t.Fatalf("historic lookup = %d, want 1", len(got))
			}
		})
	}
}

func TestDeleteDocClosesPostings(t *testing.T) {
	for _, ix := range indexes() {
		t.Run(ix.Name(), func(t *testing.T) {
			s, id := loadFigure1(t, ix)
			if err := s.Delete(id, feb10); err != nil {
				t.Fatal(err)
			}
			if err := ix.DeleteDoc(id, feb10); err != nil {
				t.Fatal(err)
			}
			if got := ix.Lookup("Napoli"); len(got) != 0 {
				t.Errorf("Napoli after doc delete: %d", len(got))
			}
			if got := ix.LookupT("Napoli", feb10-1); len(got) != 1 {
				t.Errorf("Napoli just before delete: %d", len(got))
			}
		})
	}
}

func TestMoveReindexesPaths(t *testing.T) {
	ix := NewVersionIndex()
	s := store.New(store.Config{})
	tree := xmltree.MustParse(`<g><a><item><tag>deep</tag></item></a><b/></g>`)
	id, _ := s.Put("doc", tree, jan1)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, jan1)
	aXID := ix.Lookup("a")[0].X
	bXID := ix.Lookup("b")[0].X
	if p := ix.Lookup("deep")[0]; !p.HasAncestor(aXID) {
		t.Fatal("precondition: deep under a")
	}
	_, script, err := s.Update(id, xmltree.MustParse(`<g><a/><b><item><tag>deep</tag></item></b></g>`), jan15)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ = s.Current(id)
	ix.AddVersion(id, cur, script, jan15)
	p := ix.Lookup("deep")
	if len(p) != 1 {
		t.Fatalf("deep postings = %d", len(p))
	}
	if !p[0].HasAncestor(bXID) || p[0].HasAncestor(aXID) {
		t.Fatal("path not reindexed after move")
	}
	// The old posting (path under a) is still found historically.
	if hp := ix.LookupT("deep", jan1); len(hp) != 1 || !hp[0].HasAncestor(aXID) {
		t.Fatal("historic path lost")
	}
}

func TestDeltaIndexEventsAndOpKeywords(t *testing.T) {
	ix := NewDeltaIndex()
	loadFigure1(t, ix)
	evs := ix.Events("Akropolis")
	if len(evs) != 2 || !evs[0].Insert || evs[1].Insert {
		t.Fatalf("Akropolis events = %+v", evs)
	}
	if evs[0].T != jan15 || evs[1].T != jan31 {
		t.Fatalf("event times = %s, %s", evs[0].T, evs[1].T)
	}
	if got := ix.OpEvents("delete"); len(got) != 1 {
		t.Fatalf("delete op events = %d", len(got))
	}
	if got := ix.OpEvents("update"); len(got) != 1 {
		t.Fatalf("update op events = %d", len(got))
	}
	st := ix.Stats()
	if st.OpKeywordPostings == 0 {
		t.Fatal("op keyword postings not counted")
	}
}

func TestStatsShapes(t *testing.T) {
	v, d, b := NewVersionIndex(), NewDeltaIndex(), NewBothIndex()
	loadFigure1(t, v)
	loadFigure1(t, d)
	loadFigure1(t, b)
	vs, ds, bs := v.Stats(), d.Stats(), b.Stats()
	if vs.Postings == 0 || vs.Words == 0 || vs.Bytes == 0 || vs.Open == 0 {
		t.Fatalf("version stats = %+v", vs)
	}
	if vs.OpKeywordPostings != 0 {
		t.Fatal("version index must not have op keyword postings")
	}
	if ds.OpKeywordPostings == 0 {
		t.Fatalf("delta stats = %+v", ds)
	}
	if bs.Postings != vs.Postings+ds.Postings {
		t.Fatalf("both stats = %+v", bs)
	}
	if bs.Bytes <= vs.Bytes || bs.Bytes <= ds.Bytes {
		t.Fatal("both index must be larger than either alternative")
	}
}

func TestSourceString(t *testing.T) {
	if SrcName.String() != "name" || SrcText.String() != "text" || SrcAttr.String() != "attr" {
		t.Error("Source.String broken")
	}
	if Source(9).String() != "Source(9)" {
		t.Error("unknown source formatting")
	}
}

// TestPropertyVersionDeltaAgree drives random histories through both
// alternatives and checks that temporal lookups agree on the
// (doc, element, source, validity) level. Histories avoid cross-parent
// moves, where the delta alternative intentionally keeps stale paths.
func TestPropertyVersionDeltaAgree(t *testing.T) {
	type key struct {
		doc  model.DocID
		x    model.XID
		src  Source
		span model.Interval
	}
	canon := func(ps []Posting) []key {
		out := make([]key, 0, len(ps))
		for _, p := range ps {
			out = append(out, key{p.Doc, p.X, p.Src, p.Span})
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.doc != b.doc {
				return a.doc < b.doc
			}
			if a.x != b.x {
				return a.x < b.x
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.span.Start < b.span.Start
		})
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := store.New(store.Config{})
		v, d := NewVersionIndex(), NewDeltaIndex()
		words := []string{"alpha", "beta", "gamma", "15", "Napoli"}

		tree := xmltree.NewElement("guide")
		for i := 0; i < 2+r.Intn(3); i++ {
			tree.AppendChild(xmltree.Elem("restaurant",
				xmltree.ElemText("name", words[r.Intn(len(words))]),
				xmltree.ElemText("price", fmt.Sprint(10+r.Intn(5)))))
		}
		id, err := s.Put("doc", tree, 1000)
		if err != nil {
			return false
		}
		cur, _, _ := s.Current(id)
		v.AddVersion(id, cur, nil, 1000)
		d.AddVersion(id, cur, nil, 1000)

		for ver := 2; ver <= 2+r.Intn(6); ver++ {
			next := cur.Clone()
			next.Walk(func(n *xmltree.Node) bool { n.XID = 0; n.Stamp = 0; return true })
			switch r.Intn(3) {
			case 0:
				next.InsertChild(r.Intn(len(next.Children)+1), xmltree.Elem("restaurant",
					xmltree.ElemText("name", words[r.Intn(len(words))])))
			case 1:
				if len(next.Children) > 1 {
					next.RemoveChildAt(r.Intn(len(next.Children)))
				}
			case 2:
				texts := next.SelectPath("restaurant/name")
				if len(texts) > 0 {
					texts[r.Intn(len(texts))].Children[0].Value = words[r.Intn(len(words))]
				}
			}
			at := model.Time(1000 + int64(ver))
			_, script, err := s.Update(id, next, at)
			if err != nil {
				return false
			}
			cur, _, _ = s.Current(id)
			v.AddVersion(id, cur, script, at)
			d.AddVersion(id, cur, script, at)
		}
		for _, w := range append(words, "restaurant", "name", "guide") {
			for _, at := range []model.Time{999, 1000, 1003, 1010, model.Forever - 1} {
				a := canon(v.LookupT(w, at))
				b := canon(d.LookupT(w, at))
				if len(a) != len(b) {
					t.Logf("seed %d: %q@%d: version=%d delta=%d", seed, w, at, len(a), len(b))
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						t.Logf("seed %d: %q@%d: %+v vs %+v", seed, w, at, a[i], b[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentLookupsWithMaintenance exercises the index's locking: four
// readers issue all three lookup flavours while a writer feeds versions.
func TestConcurrentLookupsWithMaintenance(t *testing.T) {
	for _, ix := range indexes() {
		t.Run(ix.Name(), func(t *testing.T) {
			s := store.New(store.Config{})
			id, err := s.Put("doc", guideXML([2]string{"Napoli", "0"}), 1000)
			if err != nil {
				t.Fatal(err)
			}
			cur, _, _ := s.Current(id)
			if err := ix.AddVersion(id, cur, nil, 1000); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			done := make(chan struct{}, 4)
			for r := 0; r < 4; r++ {
				go func() {
					defer func() { done <- struct{}{} }()
					for {
						select {
						case <-stop:
							return
						default:
						}
						ix.Lookup("Napoli")
						ix.LookupT("restaurant", 1005)
						ix.LookupH("name")
						ix.Stats()
					}
				}()
			}
			for i := 1; i <= 50; i++ {
				tree := guideXML([2]string{"Napoli", fmt.Sprint(i)})
				_, script, err := s.Update(id, tree, model.Time(1000+i))
				if err != nil {
					t.Fatal(err)
				}
				cur, _, _ := s.Current(id)
				if err := ix.AddVersion(id, cur, script, model.Time(1000+i)); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			for r := 0; r < 4; r++ {
				<-done
			}
			if got := len(ix.Lookup("Napoli")); got != 1 {
				t.Fatalf("final state: %d Napoli postings", got)
			}
		})
	}
}

func BenchmarkVersionIndexLookupCurrent(b *testing.B) {
	// The benchmark word must churn: the price alternates between two
	// values, so each value accumulates ~100 closed postings over the
	// history while at most one is live at a time.
	ix := NewVersionIndex()
	s := store.New(store.Config{})
	id, _ := s.Put("doc", guideXML([2]string{"Napoli", "11"}), 1000)
	cur, _, _ := s.Current(id)
	ix.AddVersion(id, cur, nil, 1000)
	prices := []string{"11", "22"}
	for i := 1; i <= 200; i++ {
		tree := guideXML([2]string{"Napoli", prices[i%2]})
		_, script, err := s.Update(id, tree, model.Time(1000+i))
		if err != nil {
			b.Fatal(err)
		}
		cur, _, _ := s.Current(id)
		ix.AddVersion(id, cur, script, model.Time(1000+i))
	}
	if h := len(ix.LookupH("11")); h < 50 {
		b.Fatalf("benchmark word does not churn: %d historic postings", h)
	}
	b.Run("live-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Lookup("11")
		}
	})
	b.Run("history-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.LookupT("11", 1200)
		}
	})
}
