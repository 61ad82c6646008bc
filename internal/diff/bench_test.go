package diff_test

import (
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// ingestCommit returns the shape of one ingest-durable commit: an annotated
// 120-restaurant document, the next version with three edits (the
// benchmark's edit mix), and the old tree's highest XID.
func ingestCommit(tb testing.TB) (old, next *xmltree.Node, maxXID model.XID) {
	tb.Helper()
	hist := tdocgen.New(tdocgen.Config{
		Seed: 1, InitialElems: 120, Versions: 2, OpsPerVersion: 3,
		UpdateWeight: 5, InsertWeight: 1, DeleteWeight: 1,
	}).History(0)
	old = hist[0].Tree.Clone()
	diff.AssignXIDs(old, func() model.XID { maxXID++; return maxXID }, hist[0].At)
	return old, hist[1].Tree.Clone(), maxXID
}

// BenchmarkDiffIngestCommit is the matcher and script generator on one
// ingest-sized commit. Diff re-annotates next on every call, so the same
// input trees serve every iteration.
func BenchmarkDiffIngestCommit(b *testing.B) {
	old, next, maxXID := ingestCommit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := maxXID
		if _, _, err := diff.Diff(old, next, diff.Options{
			Alloc: func() model.XID { x++; return x }, Stamp: 2, FromStamp: 1, FromVer: 1, ToVer: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
