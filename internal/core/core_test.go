package core

import (
	"strings"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

var (
	jan1  = model.Date(2001, 1, 1)
	jan15 = model.Date(2001, 1, 15)
	jan26 = model.Date(2001, 1, 26)
	jan31 = model.Date(2001, 1, 31)
	feb10 = model.Date(2001, 2, 10)
)

const guideURL = tdocgen.Figure1URL

func guide(entries ...[2]string) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for _, e := range entries {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", e[0]),
			xmltree.ElemText("price", e[1])))
	}
	return g
}

// openFigure1 loads the paper's Figure 1 history (tdocgen.LoadFigure1)
// into a database whose clock defaults to feb10.
func openFigure1(t testing.TB, cfg Config) (*DB, model.DocID) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = func() model.Time { return feb10 }
	}
	db := Open(cfg)
	if err := tdocgen.LoadFigure1(db); err != nil {
		t.Fatal(err)
	}
	id, _ := db.LookupDoc(guideURL)
	return db, id
}

func restaurantPattern() *pattern.PNode {
	r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
}

// TestFigure1Q1 reproduces Q1: list all restaurants as of 26/01/2001
// (operators: TPatternScan followed by Reconstruct).
func TestFigure1Q1(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	teids, err := db.TPatternScan(restaurantPattern(), jan26)
	if err != nil {
		t.Fatal(err)
	}
	if len(teids) != 2 {
		t.Fatalf("TPatternScan at 26/01: %d TEIDs, want 2", len(teids))
	}
	var names []string
	for _, teid := range teids {
		n, err := db.Reconstruct(teid)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n.SelectPath("name")[0].Text())
	}
	want := map[string]bool{"Napoli": true, "Akropolis": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected restaurant %q", n)
		}
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing restaurants: %v", want)
	}
}

// TestFigure1Q1Language runs Q1 through the query language.
func TestFigure1Q1Language(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Q1 rows = %d, want 2", len(res.Rows))
	}
	doc := res.Doc()
	if doc.Name != "results" || len(doc.ChildElements("result")) != 2 {
		t.Fatalf("Q1 result doc = %s", doc)
	}
	s := doc.String()
	for _, frag := range []string{"Napoli", "Akropolis", "15", "13"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Q1 output missing %q: %s", frag, s)
		}
	}
	if strings.Contains(s, "18") {
		t.Errorf("Q1 output leaked the January 31 price: %s", s)
	}
}

// TestFigure1Q2 reproduces Q2: the number of restaurants at 26/01/2001,
// with NO reconstruction (the paper's key observation in Section 6.2).
func TestFigure1Q2(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT SUM(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Q2 rows = %d", len(res.Rows))
	}
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Fatalf("Q2 = %d, want 2", got)
	}
	if res.Metrics.Reconstructions != 0 {
		t.Fatalf("Q2 performed %d reconstructions, want 0 (Section 6.2)", res.Metrics.Reconstructions)
	}
}

// TestFigure1Q3 reproduces Q3: the price history of restaurant Napoli
// (operator: TPatternScanAll).
func TestFigure1Q3(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT TIME(R), R/price FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R WHERE R/name="Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	// Napoli's element versions: created at jan1 (price 15), price change
	// at jan31 (price 18). The jan15 document version did not touch it.
	if len(res.Rows) != 2 {
		t.Fatalf("Q3 rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	got := map[model.Time]string{}
	for _, row := range res.Rows {
		at := row[0].(model.Time)
		prices := row[1].([]plan.Elem)
		if len(prices) != 1 {
			t.Fatalf("Q3 price column = %v", row[1])
		}
		got[at] = prices[0].Node.Text()
	}
	if got[jan1] != "15" || got[jan31] != "18" {
		t.Fatalf("Q3 history = %v, want 15@jan1 and 18@jan31", got)
	}
}
