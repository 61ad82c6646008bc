package xmltree_test

import (
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// annotatedChain stores document doc of g's corpus the way the version
// store does: XIDs assigned to the first version, each later version diffed
// against its predecessor. It returns the annotated versions and the
// storage form (Marshal of ToXML) of every completed delta.
func annotatedChain(tb testing.TB, g *tdocgen.Generator, doc int) ([]*xmltree.Node, [][]byte) {
	tb.Helper()
	hist := g.History(doc)
	var next model.XID
	alloc := func() model.XID { next++; return next }
	cur := hist[0].Tree.Clone()
	diff.AssignXIDs(cur, alloc, hist[0].At)
	versions := []*xmltree.Node{cur}
	var deltas [][]byte
	for v := 1; v < len(hist); v++ {
		s, annotated, err := diff.Diff(cur, hist[v].Tree.Clone(), diff.Options{
			Alloc: alloc, Stamp: hist[v].At, FromStamp: hist[v-1].At,
			FromVer: model.VersionNo(v), ToVer: model.VersionNo(v + 1),
		})
		if err != nil {
			tb.Fatal(err)
		}
		deltas = append(deltas, xmltree.Marshal(s.ToXML()))
		versions = append(versions, annotated)
		cur = annotated
	}
	return versions, deltas
}

// TestCodecOnTdocgenCorpus runs the differential codec check (see
// CheckCodec) on every version and every delta document of the corpus the
// repo benchmark's smoke run loads, plus news feeds.
func TestCodecOnTdocgenCorpus(t *testing.T) {
	g := tdocgen.New(tdocgen.Config{
		Seed: 1, Docs: 6, InitialElems: 40, Versions: 16, OpsPerVersion: 3, Vocabulary: 2000,
	})
	for doc := 0; doc < 6; doc++ {
		versions, deltas := annotatedChain(t, g, doc)
		for _, v := range versions {
			xmltree.CheckCodec(t, v)
		}
		for _, data := range deltas {
			delta, err := xmltree.Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			xmltree.CheckCodec(t, delta)
		}
		for _, v := range g.NewsHistory(doc) {
			xmltree.CheckCodec(t, v.Tree)
		}
	}
}

// benchChain is one document at the repo benchmark's full corpus shape
// (40 restaurants, 3 edits per version).
func benchChain(b *testing.B) ([]*xmltree.Node, [][]byte) {
	g := tdocgen.New(tdocgen.Config{
		Seed: 1, InitialElems: 40, Versions: 16, OpsPerVersion: 3, Vocabulary: 2000,
	})
	return annotatedChain(b, g, 0)
}

func BenchmarkUnmarshalSnapshot(b *testing.B) {
	versions, _ := benchChain(b)
	data := xmltree.Marshal(versions[len(versions)-1])
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalDelta(b *testing.B) {
	_, deltas := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Unmarshal(deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse reads an external document of the shape the repo
// benchmark's ingest writes: a 120-restaurant guide, indented.
func BenchmarkParse(b *testing.B) {
	g := tdocgen.New(tdocgen.Config{Seed: 1, InitialElems: 120, Versions: 1, Vocabulary: 2000})
	src := g.History(0)[0].Tree.Pretty()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	versions, _ := benchChain(b)
	tree := versions[len(versions)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xmltree.Marshal(tree)
	}
}
