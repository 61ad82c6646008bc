package fti

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// postingKey renders a posting for multiset comparison.
func postingKey(word string, p Posting) string {
	return fmt.Sprintf("%s|%d|%d|%v|%s|%d-%d", word, p.Doc, p.X, p.Path, p.Src, p.Span.Start, p.Span.End)
}

// postingRec is a posting in comparable form, its path reduced to the
// signature AddVersion compares.
type postingRec struct {
	doc        model.DocID
	x          model.XID
	src        Source
	start, end model.Time
	path       uint64
}

// multiset returns the postings in canonical order.
func multiset(ps []Posting) []postingRec {
	out := make([]postingRec, len(ps))
	for i, p := range ps {
		out[i] = postingRec{p.Doc, p.X, p.Src, p.Span.Start, p.Span.End, oraclePathSig(p.Path)}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.doc != b.doc:
			return a.doc < b.doc
		case a.x != b.x:
			return a.x < b.x
		case a.src != b.src:
			return a.src < b.src
		case a.start != b.start:
			return a.start < b.start
		case a.end != b.end:
			return a.end < b.end
		}
		return a.path < b.path
	})
	return out
}

// openRec is one open posting with its count and path signature.
type openRec struct {
	doc   model.DocID
	x     model.XID
	src   Source
	word  string
	count int
	sig   uint64
	p     postingRec
}

func sortOpen(out []openRec) []openRec {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.doc != b.doc:
			return a.doc < b.doc
		case a.x != b.x:
			return a.x < b.x
		case a.src != b.src:
			return a.src < b.src
		}
		return a.word < b.word
	})
	return out
}

// openState lists the open postings of an index in canonical order.
func (ix *VersionIndex) openState() []openRec {
	var out []openRec
	for doc, d := range ix.open {
		for x, slots := range d.elems {
			for _, s := range slots {
				out = append(out, openRec{doc, x, s.src, s.word, s.count, s.pathSig,
					multiset(ix.words[s.word][s.idx : s.idx+1])[0]})
			}
		}
	}
	return sortOpen(out)
}

func (ix *oracleVersionIndex) openState() []openRec {
	var out []openRec
	for doc, m := range ix.open {
		for k, e := range m {
			out = append(out, openRec{doc, k.x, k.src, k.word, e.count, e.pathSig,
				multiset(ix.words[k.word][e.idx : e.idx+1])[0]})
		}
	}
	return sortOpen(out)
}

// allPostings lists every posting of an index in canonical order.
func allPostings(words map[string][]Posting) []string {
	var out []string
	for w, ps := range words {
		for _, p := range ps {
			out = append(out, postingKey(w, p))
		}
	}
	sort.Strings(out)
	return out
}

// checkOpen requires the same open postings, counts and path signatures.
// Postings are append-only and close once, so a divergence in what was
// opened or when it closed also shows in checkAll at the end.
func checkOpen(t *testing.T, step string, ix *VersionIndex, or *oracleVersionIndex) {
	t.Helper()
	if g, w := ix.openState(), or.openState(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: open postings differ:\n got  %v\n want %v", step, g, w)
	}
}

// checkAll requires the same postings, open postings, LookupH answer for
// every word and LookupT answer at every stamp.
func checkAll(t *testing.T, step string, ix *VersionIndex, or *oracleVersionIndex, stamps []model.Time) {
	t.Helper()
	checkOpen(t, step, ix, or)
	if g, w := allPostings(ix.words), allPostings(or.words); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: postings differ:\n got  %v\n want %v", step, g, w)
	}
	for w := range or.words {
		if g, want := multiset(ix.LookupH(w)), multiset(or.LookupH(w)); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: LookupH(%q) = %v, want %v", step, w, g, want)
		}
		for _, at := range stamps {
			if g, want := multiset(ix.LookupT(w, at)), multiset(or.LookupT(w, at)); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s: LookupT(%q, %d) = %v, want %v", step, w, at, g, want)
			}
		}
	}
}

// layerEdit makes one of the edits tdocgen does not, on one version only,
// so the next version undoes it: a root rename, a deleted restaurant, a
// deleted text, a move to another parent, a duplicated subtree, or mixed
// content. (diff's differential test layers the same edits.)
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

// TestVersionIndexMatchesOracle: on seeded tdocgen histories of two
// interleaved documents — tdocgen's moves and attribute edits, layerEdit's
// edits, a whole document deleted and recreated, a nil script and a
// skipped version mid-history — the delta-driven AddVersion leaves the index in the state
// the full-recompute oracle reaches, version by version, and answers
// LookupT alike at every stamp of the history. Halfway through,
// the index is replaced by a restore of the oracle's checkpoint image and
// must keep agreeing.
func TestVersionIndexMatchesOracle(t *testing.T) {
	configs := map[string]tdocgen.Config{
		"default": {Docs: 2, InitialElems: 8, Versions: 24, OpsPerVersion: 3},
		"moves":   {Docs: 2, InitialElems: 8, Versions: 24, OpsPerVersion: 4, UpdateWeight: 2, InsertWeight: 1, DeleteWeight: 1, MoveWeight: 3},
		"churn":   {Docs: 2, InitialElems: 4, Versions: 30, OpsPerVersion: 5, Vocabulary: 6, UpdateWeight: 2, InsertWeight: 2, DeleteWeight: 2, MoveWeight: 2},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cfg.Seed = seed
				gen := tdocgen.New(cfg)
				var trees [][]*xmltree.Node
				var scripts [][]*diff.Script
				var hists [][]tdocgen.Version
				for d := 0; d < cfg.Docs; d++ {
					hist := gen.History(d)
					for v := 1; v < len(hist); v++ {
						layerEdit(hist[v].Tree, v, int(seed)+d)
					}
					tr, sc := annotatedHistory(t, hist)
					trees, scripts, hists = append(trees, tr), append(scripts, sc), append(hists, hist)
				}
				ix, or := NewVersionIndex(), newOracleVersionIndex()
				var stamps []model.Time
				for v := range trees[0] {
					for d := range trees {
						doc := model.DocID(d + 1)
						at := hists[d][v].At + model.Time(d)
						script := scripts[d][v]
						step := fmt.Sprintf("seed %d doc %d v%d", seed, doc, v)
						switch {
						case v == 7 && d == 0:
							script = nil // reindexing over a corrupt chain
						case v == 13 && d == 0:
							// An unreachable version skipped by reindexing:
							// the next script starts from a version the
							// index never saw.
							continue
						case v == 11 && d == 1:
							// The document is deleted and its last version
							// comes back under the same DocID, whole.
							if err := ix.DeleteDoc(doc, at-1); err != nil {
								t.Fatal(err)
							}
							if err := or.DeleteDoc(doc, at-1); err != nil {
								t.Fatal(err)
							}
							script = nil
						}
						if err := ix.AddVersion(doc, trees[d][v], script, at); err != nil {
							t.Fatal(err)
						}
						if err := or.AddVersion(doc, trees[d][v], script, at); err != nil {
							t.Fatal(err)
						}
						stamps = append(stamps, at-1, at)
						checkOpen(t, step, ix, or)
					}
					if v == len(trees[0])-1 {
						checkAll(t, fmt.Sprintf("seed %d at the end", seed), ix, or, stamps)
					}
					if v == len(trees[0])/2 {
						checkAll(t, fmt.Sprintf("seed %d before the restore", seed), ix, or, stamps)
						img, err := or.SnapshotState()
						if err != nil {
							t.Fatal(err)
						}
						ix = NewVersionIndex()
						if err := ix.RestoreState(img); err != nil {
							t.Fatal(err)
						}
						checkAll(t, fmt.Sprintf("seed %d restored at v%d", seed, v), ix, or, stamps)
					}
				}
			}
		})
	}
}
