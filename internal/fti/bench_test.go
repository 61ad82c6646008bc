package fti

import (
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// annotatedHistory diffs a generated history the way the version store
// does and returns every annotated version with the script that produced
// it (nil for the first).
func annotatedHistory(tb testing.TB, hist []tdocgen.Version) ([]*xmltree.Node, []*diff.Script) {
	tb.Helper()
	var next model.XID
	alloc := func() model.XID { next++; return next }
	cur := hist[0].Tree.Clone()
	diff.AssignXIDs(cur, alloc, hist[0].At)
	trees, scripts := []*xmltree.Node{cur}, []*diff.Script{nil}
	for v := 1; v < len(hist); v++ {
		s, annotated, err := diff.Diff(cur, hist[v].Tree.Clone(), diff.Options{
			Alloc: alloc, Stamp: hist[v].At, FromStamp: hist[v-1].At,
			FromVer: model.VersionNo(v), ToVer: model.VersionNo(v + 1),
		})
		if err != nil {
			tb.Fatal(err)
		}
		trees, scripts = append(trees, annotated), append(scripts, s)
		cur = annotated
	}
	return trees, scripts
}

// BenchmarkVersionIndexAddVersion is the version FTI's upkeep for one
// ingest-sized commit: a 120-restaurant document, three edits per version.
// Every 32 commits the index restarts from the first version, untimed.
func BenchmarkVersionIndexAddVersion(b *testing.B) {
	hist := tdocgen.New(tdocgen.Config{
		Seed: 1, InitialElems: 120, Versions: 33, OpsPerVersion: 3,
		UpdateWeight: 5, InsertWeight: 1, DeleteWeight: 1,
	}).History(0)
	trees, scripts := annotatedHistory(b, hist)
	var ix *VersionIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 1 + i%(len(trees)-1)
		if v == 1 {
			b.StopTimer()
			ix = NewVersionIndex()
			if err := ix.AddVersion(1, trees[0], nil, hist[0].At); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := ix.AddVersion(1, trees[v], scripts[v], hist[v].At); err != nil {
			b.Fatal(err)
		}
	}
}
