package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/xmltree"
)

// guideV returns the restaurant guide of Figure 1 as of the given state.
func guideV(prices map[string]string) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for _, name := range []string{"Napoli", "Akropolis"} {
		p, ok := prices[name]
		if !ok {
			continue
		}
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", name),
			xmltree.ElemText("price", p)))
	}
	return g
}

var (
	jan1  = model.Date(2001, 1, 1)
	jan15 = model.Date(2001, 1, 15)
	jan31 = model.Date(2001, 1, 31)
	feb10 = model.Date(2001, 2, 10)
)

// figure1Store loads the paper's Figure 1 history: Napoli@15 alone on
// Jan 1, Akropolis@13 added on Jan 15, Akropolis removed and Napoli
// raised to 18 on Jan 31.
func figure1Store(t testing.TB, cfg Config) (*Store, model.DocID) {
	t.Helper()
	s := New(cfg)
	id, err := s.Put("http://guide.com/restaurants.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "15", "Akropolis": "13"}), jan15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	return s, id
}

func TestPutAndCurrent(t *testing.T) {
	s := New(Config{})
	tree := guideV(map[string]string{"Napoli": "15"})
	id, err := s.Put("doc", tree, jan1)
	if err != nil {
		t.Fatal(err)
	}
	cur, info, err := s.Current(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ver != 1 || info.Stamp != jan1 || info.End != model.Forever {
		t.Fatalf("info = %+v", info)
	}
	if !xmltree.Equal(cur, tree) {
		t.Fatal("current differs from stored tree")
	}
	if cur.XID == 0 {
		t.Fatal("XIDs not assigned")
	}
	di, err := s.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if !di.Live() || di.Versions != 1 || di.Name != "doc" || di.RootXID != cur.XID {
		t.Fatalf("docinfo = %+v", di)
	}
}

func TestPutDuplicateName(t *testing.T) {
	s := New(Config{})
	if _, err := s.Put("doc", guideV(map[string]string{"Napoli": "1"}), jan1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("doc", guideV(map[string]string{"Napoli": "2"}), jan15); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestPutAfterDeleteCreatesNewIncarnation(t *testing.T) {
	s := New(Config{})
	id1, _ := s.Put("doc", guideV(map[string]string{"Napoli": "1"}), jan1)
	if err := s.Delete(id1, jan15); err != nil {
		t.Fatal(err)
	}
	id2, err := s.Put("doc", guideV(map[string]string{"Napoli": "2"}), jan31)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatal("reincarnation must get a fresh DocID")
	}
	if got, _ := s.Lookup("doc"); got != id2 {
		t.Fatalf("Lookup = %d, want %d", got, id2)
	}
	// The old incarnation's history stays queryable.
	if _, err := s.ReconstructAtContext(context.Background(), id1, jan1); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateVersionChain(t *testing.T) {
	s, id := figure1Store(t, Config{})
	vs, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("versions = %d, want 3", len(vs))
	}
	wantStamps := []model.Time{jan1, jan15, jan31}
	for i, v := range vs {
		if v.Stamp != wantStamps[i] || v.Ver != model.VersionNo(i+1) {
			t.Fatalf("version %d = %+v", i, v)
		}
	}
	if vs[0].End != jan15 || vs[1].End != jan31 || vs[2].End != model.Forever {
		t.Fatalf("validity chain broken: %+v", vs)
	}
	if vs[0].DeltaToNext.Zero() || vs[1].DeltaToNext.Zero() || !vs[2].DeltaToNext.Zero() {
		t.Fatal("delta chain refs wrong")
	}
	if vs[0].Snapshot != (pagestore.Ref{}) || vs[1].Snapshot != (pagestore.Ref{}) {
		t.Fatal("non-snapshot versions must not keep full serializations")
	}
	if vs[2].Snapshot.Zero() {
		t.Fatal("current version must keep a full serialization")
	}
}

func TestUpdateErrors(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.Update(99, guideV(nil), jan1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	id, _ := s.Put("doc", guideV(map[string]string{"Napoli": "1"}), jan15)
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "2"}), jan15); !errors.Is(err, ErrStale) {
		t.Fatalf("same-stamp update: err = %v", err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "2"}), jan1); !errors.Is(err, ErrStale) {
		t.Fatalf("past update: err = %v", err)
	}
	if err := s.Delete(id, jan31); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "2"}), feb10); !errors.Is(err, ErrDeleted) {
		t.Fatalf("update after delete: err = %v", err)
	}
	if err := s.Delete(id, feb10); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double delete: err = %v", err)
	}
	if err := s.Delete(99, feb10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown: err = %v", err)
	}
}

func TestReconstructEveryVersion(t *testing.T) {
	for _, snap := range []int{0, 2} {
		s, id := figure1Store(t, Config{SnapshotEvery: snap})
		want := []map[string]string{
			{"Napoli": "15"},
			{"Napoli": "15", "Akropolis": "13"},
			{"Napoli": "18"},
		}
		for ver := 1; ver <= 3; ver++ {
			vt, err := s.ReconstructVersion(id, model.VersionNo(ver))
			if err != nil {
				t.Fatalf("snap=%d ver=%d: %v", snap, ver, err)
			}
			if !xmltree.Equal(vt.Root, guideV(want[ver-1])) {
				t.Fatalf("snap=%d version %d = %s", snap, ver, vt.Root)
			}
			if vt.Info.Ver != model.VersionNo(ver) {
				t.Fatalf("info.Ver = %d", vt.Info.Ver)
			}
		}
	}
}

func TestReconstructAtTimes(t *testing.T) {
	s, id := figure1Store(t, Config{})
	cases := []struct {
		t    model.Time
		want map[string]string
	}{
		{jan1, map[string]string{"Napoli": "15"}},
		{jan1 + 1, map[string]string{"Napoli": "15"}},
		{jan15, map[string]string{"Napoli": "15", "Akropolis": "13"}},
		{model.Date(2001, 1, 26), map[string]string{"Napoli": "15", "Akropolis": "13"}},
		{jan31, map[string]string{"Napoli": "18"}},
		{feb10, map[string]string{"Napoli": "18"}},
	}
	for _, c := range cases {
		vt, err := s.ReconstructAtContext(context.Background(), id, c.t)
		if err != nil {
			t.Fatalf("at %s: %v", c.t, err)
		}
		if !xmltree.Equal(vt.Root, guideV(c.want)) {
			t.Fatalf("at %s: got %s", c.t, vt.Root)
		}
	}
	if _, err := s.ReconstructAtContext(context.Background(), id, jan1-1); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("before creation: err = %v", err)
	}
}

func TestReconstructAfterDocDelete(t *testing.T) {
	s, id := figure1Store(t, Config{})
	if err := s.Delete(id, feb10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructAtContext(context.Background(), id, feb10); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("read at deletion time: err = %v", err)
	}
	vt, err := s.ReconstructAtContext(context.Background(), id, feb10-1)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(vt.Root, guideV(map[string]string{"Napoli": "18"})) {
		t.Fatal("history before deletion must stay intact")
	}
	if _, _, err := s.Current(id); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Current on deleted doc: err = %v", err)
	}
}

func TestXIDPersistenceAcrossVersions(t *testing.T) {
	s, id := figure1Store(t, Config{})
	v1, _ := s.ReconstructVersion(id, 1)
	v2, _ := s.ReconstructVersion(id, 2)
	v3, _ := s.ReconstructVersion(id, 3)
	napoli1 := findRestaurant(v1.Root, "Napoli")
	napoli2 := findRestaurant(v2.Root, "Napoli")
	napoli3 := findRestaurant(v3.Root, "Napoli")
	if napoli1.XID != napoli2.XID || napoli2.XID != napoli3.XID {
		t.Fatalf("Napoli XIDs: %d, %d, %d", napoli1.XID, napoli2.XID, napoli3.XID)
	}
	akro := findRestaurant(v2.Root, "Akropolis")
	if akro == nil || akro.XID == napoli1.XID {
		t.Fatal("Akropolis must have its own XID")
	}
}

func findRestaurant(root *xmltree.Node, name string) *xmltree.Node {
	for _, r := range root.ChildElements("restaurant") {
		if len(r.SelectPath("name")) > 0 && r.SelectPath("name")[0].Text() == name {
			return r
		}
	}
	return nil
}

func TestElementStampsAcrossVersions(t *testing.T) {
	s, id := figure1Store(t, Config{})
	// In version 2, Napoli was untouched since version 1 but the guide
	// root changed (a child was added).
	v2, err := s.ReconstructVersion(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Root.Stamp != jan15 {
		t.Errorf("guide stamp in v2 = %s, want %s", v2.Root.Stamp, jan15)
	}
	if got := findRestaurant(v2.Root, "Napoli").Stamp; got != jan1 {
		t.Errorf("Napoli stamp in v2 = %s, want %s", got, jan1)
	}
	if got := findRestaurant(v2.Root, "Akropolis").Stamp; got != jan15 {
		t.Errorf("Akropolis stamp in v2 = %s, want %s", got, jan15)
	}
	// In version 3 the price update restamps Napoli.
	cur, _, err := s.Current(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := findRestaurant(cur, "Napoli").Stamp; got != jan31 {
		t.Errorf("Napoli stamp in v3 = %s, want %s", got, jan31)
	}
}

func TestVersionAtAndTSOperators(t *testing.T) {
	s, id := figure1Store(t, Config{})
	v, err := s.VersionAtContext(context.Background(), id, model.Date(2001, 1, 26))
	if err != nil || v.Ver != 2 {
		t.Fatalf("VersionAt(26/01) = %+v, %v", v, err)
	}
	prev, err := s.PreviousTS(id, model.Date(2001, 1, 26))
	if err != nil || prev.Ver != 1 || prev.Stamp != jan1 {
		t.Fatalf("PreviousTS = %+v, %v", prev, err)
	}
	next, err := s.NextTS(id, model.Date(2001, 1, 26))
	if err != nil || next.Ver != 3 || next.Stamp != jan31 {
		t.Fatalf("NextTS = %+v, %v", next, err)
	}
	cur, err := s.CurrentTS(id)
	if err != nil || cur.Ver != 3 {
		t.Fatalf("CurrentTS = %+v, %v", cur, err)
	}
	if _, err := s.PreviousTS(id, jan1); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("PreviousTS of v1: %v", err)
	}
	if _, err := s.NextTS(id, feb10); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("NextTS of current: %v", err)
	}
}

func TestDocHistory(t *testing.T) {
	s, id := figure1Store(t, Config{})
	all, err := s.DocHistoryContext(context.Background(), id, model.Always)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("history = %d versions", len(all))
	}
	// Most recent first (Section 7.3.4).
	if all[0].Info.Ver != 3 || all[1].Info.Ver != 2 || all[2].Info.Ver != 1 {
		t.Fatalf("order = %d,%d,%d", all[0].Info.Ver, all[1].Info.Ver, all[2].Info.Ver)
	}
	if !xmltree.Equal(all[2].Root, guideV(map[string]string{"Napoli": "15"})) {
		t.Fatal("oldest version wrong")
	}
	// Sub-range: [jan15, jan31) covers only version 2.
	part, err := s.DocHistoryContext(context.Background(), id, model.Interval{Start: jan15, End: jan31})
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 1 || part[0].Info.Ver != 2 {
		t.Fatalf("partial history = %+v", part)
	}
	// Range covering versions 1-2 via overlap.
	part2, _ := s.DocHistoryContext(context.Background(), id, model.Interval{Start: jan1, End: jan15 + 1})
	if len(part2) != 2 {
		t.Fatalf("overlap history = %d", len(part2))
	}
	none, _ := s.DocHistoryContext(context.Background(), id, model.Interval{Start: jan1 - 100, End: jan1})
	if len(none) != 0 {
		t.Fatal("pre-creation range should be empty")
	}
}

// TestElementHistory checks that the backward walk keeps an element's XID
// in every version it lives in, which is what the element history
// (Section 7.3.5) filters the document history by.
func TestElementHistory(t *testing.T) {
	s, id := figure1Store(t, Config{})
	elementHistory := func(x model.XID) []VersionTree {
		t.Helper()
		docs, err := s.DocHistoryContext(context.Background(), id, model.Always)
		if err != nil {
			t.Fatal(err)
		}
		var out []VersionTree
		for _, dv := range docs {
			if sub := dv.Root.FindXID(x); sub != nil {
				out = append(out, VersionTree{Info: dv.Info, Root: sub})
			}
		}
		return out
	}
	cur, _, _ := s.Current(id)
	napoli := findRestaurant(cur, "Napoli")
	hist := elementHistory(napoli.XID)
	if len(hist) != 3 {
		t.Fatalf("element history = %d versions", len(hist))
	}
	prices := []string{"18", "15", "15"}
	for i, h := range hist {
		if h.Root.Name != "restaurant" {
			t.Fatalf("element history root = %q", h.Root.Name)
		}
		if got := h.Root.SelectPath("price")[0].Text(); got != prices[i] {
			t.Fatalf("price[%d] = %q, want %q", i, got, prices[i])
		}
	}
	// History of the deleted Akropolis element covers only version 2.
	v2, _ := s.ReconstructVersion(id, 2)
	akro := findRestaurant(v2.Root, "Akropolis")
	hist2 := elementHistory(akro.XID)
	if len(hist2) != 1 || hist2[0].Info.Ver != 2 {
		t.Fatalf("Akropolis history = %+v", hist2)
	}
}

func TestCreTimeAndDelTime(t *testing.T) {
	s, id := figure1Store(t, Config{})
	v2, _ := s.ReconstructVersion(id, 2)
	akro := findRestaurant(v2.Root, "Akropolis")
	napoli := findRestaurant(v2.Root, "Napoli")

	akroTEID := model.TEID{E: model.EID{Doc: id, X: akro.XID}, T: jan15}
	napoliTEID := model.TEID{E: model.EID{Doc: id, X: napoli.XID}, T: jan15}

	if got, err := s.CreTimeTraverse(akroTEID); err != nil || got != jan15 {
		t.Fatalf("CreTime(Akropolis) = %s, %v", got, err)
	}
	if got, err := s.CreTimeTraverse(napoliTEID); err != nil || got != jan1 {
		t.Fatalf("CreTime(Napoli) = %s, %v", got, err)
	}
	if got, err := s.CreTimeTraverseFromCurrent(napoliTEID.E); err != nil || got != jan1 {
		t.Fatalf("CreTimeFromCurrent(Napoli) = %s, %v", got, err)
	}
	if got, err := s.DelTimeTraverse(akroTEID); err != nil || got != jan31 {
		t.Fatalf("DelTime(Akropolis) = %s, %v", got, err)
	}
	if got, err := s.DelTimeTraverse(napoliTEID); err != nil || got != model.Forever {
		t.Fatalf("DelTime(live Napoli) = %s, %v", got, err)
	}
	// After deleting the document, Napoli's delete time is the doc's.
	if err := s.Delete(id, feb10); err != nil {
		t.Fatal(err)
	}
	if got, err := s.DelTimeTraverse(napoliTEID); err != nil || got != feb10 {
		t.Fatalf("DelTime(Napoli after doc delete) = %s, %v", got, err)
	}
}

func TestReadDelta(t *testing.T) {
	s, id := figure1Store(t, Config{})
	script, err := s.ReadDelta(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if script.FromVer != 2 || script.ToVer != 3 {
		t.Fatalf("script header = %+v", script)
	}
	st := script.Stats()
	if st.Deletes != 1 || st.Updates != 1 {
		t.Fatalf("delta 2→3 stats = %+v (want delete Akropolis + update price)", st)
	}
	if _, err := s.ReadDelta(id, 3); err == nil {
		t.Fatal("current version has no outgoing delta")
	}
	if _, err := s.ReadDelta(id, 0); err == nil {
		t.Fatal("version 0 does not exist")
	}
	if _, err := s.ReadDelta(99, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown doc: %v", err)
	}
}

func TestSnapshotsBoundDeltaReads(t *testing.T) {
	mk := func(every int) *Store {
		s := New(Config{SnapshotEvery: every, Pages: pagestore.Config{}})
		id, _ := s.Put("doc", guideV(map[string]string{"Napoli": "0"}), 1000)
		for i := 1; i <= 40; i++ {
			if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": fmt.Sprint(i)}), model.Time(1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	noSnap := mk(0)
	snap := mk(8)
	measure := func(s *Store) int64 {
		s.Pages().ResetStats()
		if _, err := s.ReconstructVersion(1, 2); err != nil {
			t.Fatal(err)
		}
		return s.Pages().Stats().ExtentRead
	}
	without := measure(noSnap)
	with := measure(snap)
	if with >= without {
		t.Fatalf("snapshots should cut delta reads: %d (with) vs %d (without)", with, without)
	}
	// Reconstructing version 2 without snapshots reads the current
	// serialization plus deltas 2..40 — 40 extents.
	if without != 40 {
		t.Fatalf("without snapshots: %d extent reads, want 40", without)
	}
}

func TestVersionsIsACopy(t *testing.T) {
	s, id := figure1Store(t, Config{})
	vs, _ := s.Versions(id)
	vs[0].Stamp = 12345
	vs2, _ := s.Versions(id)
	if vs2[0].Stamp == 12345 {
		t.Fatal("Versions must return a copy")
	}
}

func TestDocsAndLookup(t *testing.T) {
	s := New(Config{})
	a, _ := s.Put("a", guideV(map[string]string{"Napoli": "1"}), jan1)
	b, _ := s.Put("b", guideV(map[string]string{"Napoli": "2"}), jan1)
	ids := s.Docs()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("Docs = %v", ids)
	}
	if id, ok := s.Lookup("b"); !ok || id != b {
		t.Fatalf("Lookup(b) = %d, %v", id, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name should fail")
	}
}

func TestPutRejectsInvalidTree(t *testing.T) {
	s := New(Config{})
	bad := xmltree.NewElement("a")
	bad.AppendChild(&xmltree.Node{Kind: xmltree.Text, Name: "oops"})
	if _, err := s.Put("doc", bad, jan1); err == nil {
		t.Fatal("Put must validate the tree")
	}
}

// TestPropertyRandomHistories drives random update sequences and verifies
// that every reconstructed version matches the tree that was stored,
// under several snapshot intervals.
func TestPropertyRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		snapEvery := []int{0, 3, 1}[r.Intn(3)]
		s := New(Config{SnapshotEvery: snapEvery})

		tree := randomGuide(r)
		stored := []*xmltree.Node{tree.Clone()}
		id, err := s.Put("doc", tree, 1000)
		if err != nil {
			return false
		}
		versions := 3 + r.Intn(6)
		for v := 2; v <= versions; v++ {
			next := mutateGuide(r, stored[len(stored)-1])
			stored = append(stored, next.Clone())
			if _, _, err := s.Update(id, next, model.Time(1000+int64(v))); err != nil {
				t.Logf("seed %d: update %d: %v", seed, v, err)
				return false
			}
		}
		for v := 1; v <= versions; v++ {
			vt, err := s.ReconstructVersion(id, model.VersionNo(v))
			if err != nil {
				t.Logf("seed %d: reconstruct %d: %v", seed, v, err)
				return false
			}
			if !xmltree.Equal(vt.Root, stored[v-1]) {
				t.Logf("seed %d: version %d mismatch", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func randomGuide(r *rand.Rand) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for i := 0; i < 2+r.Intn(4); i++ {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("R%d", i)),
			xmltree.ElemText("price", fmt.Sprint(5+r.Intn(20)))))
	}
	return g
}

func mutateGuide(r *rand.Rand, prev *xmltree.Node) *xmltree.Node {
	g := prev.Clone()
	g.Walk(func(n *xmltree.Node) bool { n.XID = 0; n.Stamp = 0; return true })
	switch r.Intn(3) {
	case 0: // add a restaurant
		g.InsertChild(r.Intn(len(g.Children)+1), xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("N%d", r.Intn(1000))),
			xmltree.ElemText("price", fmt.Sprint(5+r.Intn(20)))))
	case 1: // remove one (keep at least one)
		if len(g.Children) > 1 {
			g.RemoveChildAt(r.Intn(len(g.Children)))
		}
	case 2: // change a price
		prices := g.SelectPath("restaurant/price")
		if len(prices) > 0 {
			prices[r.Intn(len(prices))].Children[0].Value = fmt.Sprint(5 + r.Intn(20))
		}
	}
	return g
}

func TestSnapshotEveryOne(t *testing.T) {
	// SnapshotEvery=1 keeps a full serialization of every version: each
	// historical reconstruction is a single extent read regardless of age,
	// and the current version is the store's in-memory tree.
	s := New(Config{SnapshotEvery: 1})
	id, _ := s.Put("doc", guideV(map[string]string{"Napoli": "0"}), 1000)
	for i := 1; i <= 10; i++ {
		if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": fmt.Sprint(i)}), model.Time(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ver := range []model.VersionNo{1, 5, 11} {
		s.Pages().ResetStats()
		if _, err := s.ReconstructVersion(id, ver); err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if ver == 11 {
			want = 0
		}
		if got := s.Pages().Stats().ExtentRead; got != want {
			t.Fatalf("version %d: %d extent reads, want %d", ver, got, want)
		}
	}
}

func TestUpdateUnchangedContentStillVersions(t *testing.T) {
	// Re-storing identical content creates a new (empty-delta) version:
	// the warehouse timestamps a fresh crawl even when nothing changed.
	s := New(Config{})
	id, _ := s.Put("doc", guideV(map[string]string{"Napoli": "1"}), 1000)
	if _, script, err := s.Update(id, guideV(map[string]string{"Napoli": "1"}), 2000); err != nil {
		t.Fatal(err)
	} else if !script.Empty() {
		t.Fatalf("identical content produced %d ops", len(script.Ops))
	}
	vs, _ := s.Versions(id)
	if len(vs) != 2 {
		t.Fatalf("versions = %d", len(vs))
	}
	vt, err := s.ReconstructVersion(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(vt.Root, guideV(map[string]string{"Napoli": "1"})) {
		t.Fatal("v1 reconstruction through an empty delta broken")
	}
}
