package shard

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// TestPutXMLReadsOutsideRouterLock holds a router PutXML's input open and
// requires reads of already-stored documents to proceed meanwhile: the
// caller's reader is drained before the router takes its write lock, which
// every global/local DocID translation waits on.
func TestPutXMLReadsOutsideRouterLock(t *testing.T) {
	r := Open(Config{Shards: 2})
	defer r.Close()
	id, err := r.Put(testURL(0), testTree(0, 1), 1000)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close() // runs before r.Close: a stuck PutXML fails and lets go
	put := make(chan error, 1)
	go func() {
		_, err := r.PutXML(testURL(1), pr, 2000)
		put <- err
	}()
	// The write returns once PutXML has consumed it, so PutXML is now
	// waiting on the rest of its input.
	if _, err := pw.Write([]byte("<guide><restaurant>")); err != nil {
		t.Fatal(err)
	}

	reads := make(chan error, 1)
	go func() {
		if got, ok := r.LookupDoc(testURL(0)); !ok || got != id {
			reads <- fmt.Errorf("LookupDoc = %d,%v, want %d", got, ok, id)
			return
		}
		if n := len(r.Docs()); n != 1 {
			reads <- fmt.Errorf("Docs lists %d documents, want 1", n)
			return
		}
		ts, err := r.TPatternScanAll(guideRestaurant())
		if err == nil && len(ts) != 1 {
			err = fmt.Errorf("TPatternScanAll = %v, want one match", ts)
		}
		reads <- err
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		pw.CloseWithError(io.ErrUnexpectedEOF)
		<-reads
		t.Fatal("reads of a stored document waited for PutXML's open input")
	}

	if _, err := pw.Write([]byte("<name>late</name></restaurant></guide>")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if got, ok := r.LookupDoc(testURL(1)); !ok || got != 2 {
		t.Fatalf("LookupDoc(piped doc) = %d,%v, want 2", got, ok)
	}
}

// guideRestaurant is the pattern guide/restaurant, projecting restaurant.
func guideRestaurant() *pattern.PNode {
	rest := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{rest}}
}

// surface is the §6.1 operator surface a router shares with one engine.
type surface interface {
	PutXML(url string, rd io.Reader, t model.Time) (model.DocID, error)
	UpdateXML(id model.DocID, rd io.Reader, t model.Time) (model.VersionNo, *diff.Script, error)
	TPatternScan(p *pattern.PNode, t model.Time) ([]model.TEID, error)
	TPatternScanAll(p *pattern.PNode) ([]model.TEID, error)
	PatternScan(p *pattern.PNode) ([]model.TEID, error)
	DocHistory(id model.DocID, iv model.Interval) ([]store.VersionTree, error)
	ElementHistory(eid model.EID, iv model.Interval) ([]store.VersionTree, error)
	ElementHistoryContext(ctx context.Context, eid model.EID, iv model.Interval) ([]store.VersionTree, error)
	Reconstruct(teid model.TEID) (*xmltree.Node, error)
	ReconstructContext(ctx context.Context, teid model.TEID) (*xmltree.Node, error)
	ReconstructVersion(id model.DocID, ver model.VersionNo) (store.VersionTree, error)
	ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error)
	Diff(a, b model.TEID) (*xmltree.Node, error)
	DiffContext(ctx context.Context, a, b model.TEID) (*xmltree.Node, error)
	Query(src string) (*plan.Result, error)
	Explain(src string) (string, error)
}

// renderTrees renders versions by their logical identity and content; the
// extent references differ between a shard's store and a single one.
func renderTrees(vts []store.VersionTree) string {
	var b strings.Builder
	for _, vt := range vts {
		fmt.Fprintf(&b, "v%d [%s,%s) %s\n", vt.Info.Ver, vt.Info.Stamp, vt.Info.End, xmltree.Marshal(vt.Root))
	}
	return b.String()
}

func renderNodes(ns ...*xmltree.Node) string {
	var b strings.Builder
	for _, n := range ns {
		b.Write(xmltree.Marshal(n))
		b.WriteByte('\n')
	}
	return b.String()
}

func renderResult(res *plan.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			if es, ok := v.([]plan.Elem); ok {
				for _, e := range es {
					b.Write(xmltree.Marshal(e.Node))
				}
			} else {
				fmt.Fprint(&b, v)
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%+v degraded=%v\n", res.Metrics, res.Degraded)
	return b.String()
}

// TestRouterOperatorsMatchEngine feeds one Figure 1-style history through
// a 2-shard router and a single engine and requires every §6.1 operator
// to answer the same on both: the writes through PutXML and UpdateXML,
// the reads in the table below.
func TestRouterOperatorsMatchEngine(t *testing.T) {
	clock := func() model.Time { return model.Date(2001, 3, 1) }
	engine := core.Config{Clock: clock}
	single := core.Open(engine)
	defer single.Close()
	router := Open(Config{Shards: 2, Engine: func(int) core.Config { return engine }})
	defer router.Close()
	engines := []surface{single, router}

	guide := func(entries ...string) string {
		var b strings.Builder
		b.WriteString("<guide>")
		for i := 0; i+1 < len(entries); i += 2 {
			fmt.Fprintf(&b, "<restaurant><name>%s</name><price>%s</price></restaurant>", entries[i], entries[i+1])
		}
		b.WriteString("</guide>")
		return b.String()
	}
	type write struct {
		doc int // index into urls
		src string
		at  model.Time
	}
	urls := []string{tdocgen.Figure1URL, testURL(1), testURL(2), testURL(3)}
	day := func(d int) model.Time { return model.Date(2001, 1, d) }
	writes := []write{
		{0, guide("Napoli", "15"), day(1)},
		{1, guide("Roma", "20"), day(2)},
		{2, guide("Lyon", "30", "Nice", "25"), day(3)},
		{0, guide("Napoli", "15", "Akropolis", "13"), day(15)},
		{3, guide("Akropolis", "11"), day(16)},
		{2, guide("Lyon", "31"), day(20)},
		{1, guide("Roma", "20", "Napoli", "9"), day(25)},
		{0, guide("Napoli", "18"), day(31)},
	}
	shards := map[int]bool{}
	for _, u := range urls {
		shards[router.HomeShard(u)] = true
	}
	if len(shards) != 2 {
		t.Fatalf("the history's documents all live on one shard: %v", shards)
	}

	ids := make([][]model.DocID, len(engines))
	for e := range engines {
		ids[e] = make([]model.DocID, len(urls))
	}
	for i, w := range writes {
		var got [2]string
		for e, eng := range engines {
			if ids[e][w.doc] == 0 {
				id, err := eng.PutXML(urls[w.doc], strings.NewReader(w.src), w.at)
				if err != nil {
					t.Fatalf("write %d: PutXML: %v", i, err)
				}
				ids[e][w.doc] = id
				got[e] = fmt.Sprint("put ", id)
				continue
			}
			ver, script, err := eng.UpdateXML(ids[e][w.doc], strings.NewReader(w.src), w.at)
			if err != nil {
				t.Fatalf("write %d: UpdateXML: %v", i, err)
			}
			got[e] = fmt.Sprintf("v%d %s", ver, xmltree.Marshal(script.ToXML()))
		}
		if got[0] != got[1] {
			t.Fatalf("write %d: engine %s, router %s", i, got[0], got[1])
		}
	}
	if _, err := router.PutXML(testURL(9), strings.NewReader("<guide>"), day(31)); err == nil {
		t.Fatal("router PutXML accepted a truncated document")
	}
	if _, _, err := router.UpdateXML(ids[1][1], strings.NewReader("<guide>"), day(31)); err == nil {
		t.Fatal("router UpdateXML accepted a truncated document")
	}

	ctx := context.Background()
	p := guideRestaurant()
	napoli := ids[0][0]
	// The restaurant elements of the Figure 1 document, stamped at 20/01.
	teidsOf := func(eng surface) []model.TEID {
		ts, err := eng.TPatternScan(p, day(20))
		if err != nil {
			t.Fatal(err)
		}
		var out []model.TEID
		for _, te := range ts {
			if te.E.Doc == napoli {
				out = append(out, te)
			}
		}
		if len(out) != 2 {
			t.Fatalf("want Napoli and Akropolis at 20/01, got %v", out)
		}
		return out
	}
	const q = `SELECT R FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R`
	cases := []struct {
		name string
		run  func(eng surface) (string, error)
	}{
		{"TPatternScan", func(eng surface) (string, error) {
			ts, err := eng.TPatternScan(p, day(16))
			return fmt.Sprint(ts), err
		}},
		{"TPatternScanAll", func(eng surface) (string, error) {
			ts, err := eng.TPatternScanAll(p)
			return fmt.Sprint(ts), err
		}},
		{"PatternScan", func(eng surface) (string, error) {
			ts, err := eng.PatternScan(p)
			return fmt.Sprint(ts), err
		}},
		{"DocHistory", func(eng surface) (string, error) {
			vts, err := eng.DocHistory(napoli, model.Always)
			return renderTrees(vts), err
		}},
		{"ElementHistory", func(eng surface) (string, error) {
			vts, err := eng.ElementHistory(teidsOf(eng)[0].E, model.Always)
			return renderTrees(vts), err
		}},
		{"ElementHistoryContext", func(eng surface) (string, error) {
			vts, err := eng.ElementHistoryContext(ctx, teidsOf(eng)[1].E, model.Interval{Start: day(10), End: day(20)})
			return renderTrees(vts), err
		}},
		{"Reconstruct", func(eng surface) (string, error) {
			n, err := eng.Reconstruct(teidsOf(eng)[1])
			return renderNodes(n), err
		}},
		{"ReconstructContext", func(eng surface) (string, error) {
			n, err := eng.ReconstructContext(ctx, teidsOf(eng)[0])
			return renderNodes(n), err
		}},
		{"ReconstructVersion", func(eng surface) (string, error) {
			vt, err := eng.ReconstructVersion(napoli, 1)
			return renderTrees([]store.VersionTree{vt}), err
		}},
		{"ReconstructBatch", func(eng surface) (string, error) {
			ts, err := eng.TPatternScanAll(p)
			if err != nil {
				return "", err
			}
			ns, err := eng.ReconstructBatch(ctx, ts)
			return renderNodes(ns...), err
		}},
		{"Diff", func(eng surface) (string, error) {
			ts := teidsOf(eng)
			n, err := eng.Diff(ts[0], model.TEID{E: ts[0].E, T: day(31)})
			return renderNodes(n), err
		}},
		{"DiffContext", func(eng surface) (string, error) {
			ts := teidsOf(eng)
			n, err := eng.DiffContext(ctx, ts[0], ts[1])
			return renderNodes(n), err
		}},
		{"Query", func(eng surface) (string, error) {
			res, err := eng.Query(q)
			if err != nil {
				return "", err
			}
			return renderResult(res), nil
		}},
		{"Explain", func(eng surface) (string, error) {
			return eng.Explain(q)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(single)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			got, err := c.run(router)
			if err != nil {
				t.Fatalf("router: %v", err)
			}
			if got != want {
				t.Fatalf("router answers\n%s\nengine answers\n%s", got, want)
			}
		})
	}
}
