package diff_test

import (
	"bytes"
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// storedChain annotates a history the way the version store does and
// returns the annotated versions with the deltas between them, each read
// back from its storage form.
func storedChain(t *testing.T, hist []tdocgen.Version) ([]*xmltree.Node, []*diff.Script) {
	t.Helper()
	var next model.XID
	alloc := func() model.XID { next++; return next }
	cur := hist[0].Tree.Clone()
	diff.AssignXIDs(cur, alloc, hist[0].At)
	versions := []*xmltree.Node{cur}
	var scripts []*diff.Script
	for v := 1; v < len(hist); v++ {
		s, annotated, err := diff.Diff(cur, hist[v].Tree.Clone(), diff.Options{
			Alloc: alloc, Stamp: hist[v].At, FromStamp: hist[v-1].At,
			FromVer: model.VersionNo(v), ToVer: model.VersionNo(v + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.Unmarshal(xmltree.Marshal(s.ToXML()))
		if err != nil {
			t.Fatal(err)
		}
		if s, err = diff.FromXML(doc); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, annotated)
		scripts = append(scripts, s)
		cur = annotated
	}
	return versions, scripts
}

// checkApplierChain replays the chain forward from the first version and
// backward from the last, once through one Applier and once with a fresh
// diff.Apply per delta, and requires identical Marshal bytes at every step.
func checkApplierChain(t *testing.T, versions []*xmltree.Node, scripts []*diff.Script) {
	t.Helper()
	replay := func(start *xmltree.Node, steps []*diff.Script, want []*xmltree.Node, dir string) {
		chained, fresh := start.Clone(), start.Clone()
		ap := diff.NewApplier(chained)
		for i, s := range steps {
			if err := ap.Apply(s); err != nil {
				t.Fatalf("%s step %d: Applier: %v", dir, i, err)
			}
			if err := diff.Apply(fresh, s); err != nil {
				t.Fatalf("%s step %d: Apply: %v", dir, i, err)
			}
			got, ref := xmltree.Marshal(chained), xmltree.Marshal(fresh)
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s step %d: Applier differs from a fresh Apply:\n%s\n%s", dir, i, got, ref)
			}
			if !xmltree.Equal(chained, want[i]) {
				t.Fatalf("%s step %d: replay does not reach the stored version", dir, i)
			}
		}
	}
	replay(versions[0], scripts, versions[1:], "forward")
	var inverted []*diff.Script
	var older []*xmltree.Node
	for i := len(scripts) - 1; i >= 0; i-- {
		inverted = append(inverted, scripts[i].Invert())
		older = append(older, versions[i])
	}
	replay(versions[len(versions)-1], inverted, older, "inverted")
}

func TestApplierMatchesFreshApplyOnTdocgenHistories(t *testing.T) {
	g := tdocgen.New(tdocgen.Config{
		Seed: 7, Docs: 4, InitialElems: 12, Versions: 24, OpsPerVersion: 3,
		UpdateWeight: 4, InsertWeight: 2, DeleteWeight: 2, MoveWeight: 1,
	})
	for doc := 0; doc < 4; doc++ {
		versions, scripts := storedChain(t, g.History(doc))
		checkApplierChain(t, versions, scripts)
	}
}

// TestApplierInsertEditDeleteMove: the index must follow a subtree that is
// inserted, edited inside, moved and finally deleted again.
func TestApplierInsertEditDeleteMove(t *testing.T) {
	steps := []string{
		`<g><r><n>a</n></r><r><n>b</n></r></g>`,
		`<g><r><n>a</n></r><x><y>new</y><z>sub</z></x><r><n>b</n></r></g>`,
		`<g><r><n>a</n></r><x><y>edited</y><z>sub</z></x><r><n>b</n></r></g>`,
		`<g><r><n>b</n></r><r><n>a</n></r><x><y>edited</y><z>sub</z></x></g>`,
		`<g><r><n>b</n></r><r><n>a</n></r></g>`,
		`<g><r><n>a</n></r><r><n>b</n></r><x><y>again</y></x></g>`,
	}
	var hist []tdocgen.Version
	for i, src := range steps {
		hist = append(hist, tdocgen.Version{Tree: xmltree.MustParse(src), At: model.Time(100 * (i + 1))})
	}
	versions, scripts := storedChain(t, hist)
	var kinds [diff.OpMove + 1]int
	for _, s := range scripts {
		for _, op := range s.Ops {
			kinds[op.Kind]++
		}
	}
	if kinds[diff.OpInsert] == 0 || kinds[diff.OpDelete] == 0 || kinds[diff.OpMove] == 0 || kinds[diff.OpUpdateText] == 0 {
		t.Fatalf("chain lacks an op kind the test is about: %v", kinds)
	}
	checkApplierChain(t, versions, scripts)
}
