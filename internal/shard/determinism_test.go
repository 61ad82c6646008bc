package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// The determinism contract: every multi-document operator is byte-identical
// to a single unsharded engine at every shard count and every router worker
// count. The single core.DB is the reference; shards × workers are the
// configurations that must reproduce it exactly.

func detCorpus() tdocgen.Config {
	return tdocgen.Config{
		Seed:          7,
		Docs:          12,
		InitialElems:  5,
		Versions:      4,
		OpsPerVersion: 2,
		Start:         model.Date(2001, 1, 1),
	}
}

func detClock() model.Time { return model.Date(2001, 6, 1) }

func detPattern() *pattern.PNode {
	r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
}

// renderMatches flattens scan output for byte comparison: match order, the
// global DocID, the temporal overlap and every binding's posting (sorted by
// pattern-node name — the map itself has no order).
func renderMatches(p *pattern.PNode, ms []pattern.Match) string {
	var b strings.Builder
	for _, m := range ms {
		type bound struct{ name, post string }
		var bs []bound
		for pn, post := range m.Bindings {
			bs = append(bs, bound{pn.Name, fmt.Sprintf("%d/%d[%s,%s)", post.Doc, post.X, post.Span.Start, post.Span.End)})
		}
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].name != bs[j].name {
				return bs[i].name < bs[j].name
			}
			return bs[i].post < bs[j].post
		})
		fmt.Fprintf(&b, "doc=%d span=[%s,%s)", m.Doc, m.Span.Start, m.Span.End)
		for _, bd := range bs {
			fmt.Fprintf(&b, " %s=%s", bd.name, bd.post)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// engineSurface is the slice of the operator surface the determinism test
// drives, satisfied by both *core.DB and *Router.
type engineSurface interface {
	TPatternScanAll(p *pattern.PNode) ([]model.TEID, error)
	PatternScan(p *pattern.PNode) ([]model.TEID, error)
	ScanAllContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error)
	ScanTContext(ctx context.Context, p *pattern.PNode, t model.Time) ([]pattern.Match, error)
	ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error)
	VersionsContext(ctx context.Context, id model.DocID) ([]store.VersionInfo, error)
	Diff(a, b model.TEID) (*xmltree.Node, error)
	Query(src string) (*plan.Result, error)
}

// snapshot renders every multi-document operator's output on one engine.
func snapshot(t *testing.T, db engineSurface, ids []model.DocID) map[string]string {
	t.Helper()
	p := detPattern()
	out := map[string]string{}

	// TPatternScanAll + batch reconstruction: TEIDs and trees.
	teids, err := db.TPatternScanAll(p)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := db.ReconstructBatch(context.Background(), teids)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, n := range trees {
		fmt.Fprintf(&sb, "%s=%s\n", teids[i], n.String())
	}
	out["tpatternscanall"] = sb.String()

	// ScanAll: the raw merged matches.
	ms, err := db.ScanAllContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	out["scanall"] = renderMatches(p, ms)

	// ScanT at a mid-corpus instant.
	mid := model.Date(2001, 1, 2)
	ts, err := db.ScanTContext(context.Background(), p, mid)
	if err != nil {
		t.Fatal(err)
	}
	out["scant"] = renderMatches(p, ts)

	// PatternScan against the current state (stamps with the fixed clock).
	cur, err := db.PatternScan(p)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	for _, teid := range cur {
		fmt.Fprintf(&sb, "%s\n", teid)
	}
	out["patternscan"] = sb.String()

	// Diff between the first and last version of every document.
	sb.Reset()
	for _, id := range ids {
		vs, err := db.VersionsContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		a := model.TEID{E: model.EID{Doc: id, X: 1}, T: vs[0].Stamp}
		z := model.TEID{E: model.EID{Doc: id, X: 1}, T: vs[len(vs)-1].Stamp}
		dn, err := db.Diff(a, z)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "doc%d:%s\n", id, dn.String())
	}
	out["diff"] = sb.String()

	// A multi-version query through the plan executor.
	g := tdocgen.New(detCorpus())
	res, err := db.Query(fmt.Sprintf(
		`SELECT TIME(R), R/price FROM doc(%q)[EVERY]/restaurant R`, g.URL(3)))
	if err != nil {
		t.Fatal(err)
	}
	out["query"] = fmt.Sprintf("%v", res.Rows)
	return out
}

// TestShardedOperatorsMatchSingleEngine loads the same tdocgen corpus into
// one unsharded core.DB and into routers at 1, 2, 4 and 8 shards × 1 and 4
// scatter-gather workers, and requires byte-identical operator output
// everywhere — TEIDs, matches, reconstructed trees, diffs and query rows.
func TestShardedOperatorsMatchSingleEngine(t *testing.T) {
	gen := tdocgen.New(detCorpus())

	single := core.Open(core.Config{Clock: detClock})
	ids, err := gen.Load(single)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, single, ids)

	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			r := Open(Config{
				Shards:  shards,
				Workers: workers,
				Engine:  func(int) core.Config { return core.Config{Clock: detClock} },
			})
			rids, err := gen.Load(r)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: load: %v", shards, workers, err)
			}
			for i := range ids {
				if rids[i] != ids[i] {
					t.Fatalf("shards=%d workers=%d: corpus doc %d got global id %d, single engine assigned %d",
						shards, workers, i, rids[i], ids[i])
				}
			}
			got := snapshot(t, r, rids)
			for _, op := range []string{"tpatternscanall", "scanall", "scant", "patternscan", "diff", "query"} {
				if got[op] != want[op] {
					t.Errorf("shards=%d workers=%d: %s diverges from the single engine\n got: %q\nwant: %q",
						shards, workers, op, clip(got[op]), clip(want[op]))
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}
