package core

import (
	"strings"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/plan"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// napoliEID resolves the Napoli restaurant element.
func napoliEID(t *testing.T, db *DB, id model.DocID) model.EID {
	t.Helper()
	cur, _, err := db.Current(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cur.ChildElements("restaurant") {
		if r.SelectPath("name")[0].Text() == "Napoli" {
			return model.EID{Doc: id, X: r.XID}
		}
	}
	t.Fatal("Napoli not found")
	return model.EID{}
}

func akropolisEID(t *testing.T, db *DB, id model.DocID) model.EID {
	t.Helper()
	vt, err := db.ReconstructVersion(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range vt.Root.ChildElements("restaurant") {
		if r.SelectPath("name")[0].Text() == "Akropolis" {
			return model.EID{Doc: id, X: r.XID}
		}
	}
	t.Fatal("Akropolis not found")
	return model.EID{}
}

func TestOperatorDocHistory(t *testing.T) {
	db, id := openFigure1(t, Config{})
	hist, err := db.DocHistory(id, model.Always)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 || hist[0].Info.Ver != 3 {
		t.Fatalf("history = %d versions, first %d", len(hist), hist[0].Info.Ver)
	}
}

// TestOperatorElementHistory checks the history walk plus subtree filter
// of Section 7.3.5, with and without the version cache the walk fills.
func TestOperatorElementHistory(t *testing.T) {
	for _, cfg := range []Config{{}, {Cache: vcache.Config{MaxBytes: 1 << 20}}} {
		db, id := openFigure1(t, cfg)
		hist, err := db.ElementHistory(napoliEID(t, db, id), model.Always)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != 3 {
			t.Fatalf("element history = %d", len(hist))
		}
		for i, price := range []string{"18", "15", "15"} {
			if hist[i].Root.Name != "restaurant" {
				t.Fatalf("element history root = %q", hist[i].Root.Name)
			}
			if got := hist[i].Root.SelectPath("price")[0].Text(); got != price {
				t.Fatalf("price[%d] = %q, want %q", i, got, price)
			}
		}
		// The deleted Akropolis element lives in version 2 only.
		akro, err := db.ElementHistory(akropolisEID(t, db, id), model.Always)
		if err != nil {
			t.Fatal(err)
		}
		if len(akro) != 1 || akro[0].Info.Ver != 2 {
			t.Fatalf("Akropolis history = %+v", akro)
		}
	}
}

func TestOperatorCreDelTime(t *testing.T) {
	db, id := openFigure1(t, Config{})
	napoli := napoliEID(t, db, id)
	akro := akropolisEID(t, db, id)
	if got, err := db.CreTime(napoli); err != nil || got != jan1 {
		t.Errorf("CreTime(Napoli) = %s, %v", got, err)
	}
	if got, err := db.DelTime(napoli); err != nil || got != model.Forever {
		t.Errorf("DelTime(Napoli) = %s, %v", got, err)
	}
	if got, err := db.CreTime(akro); err != nil || got != jan15 {
		t.Errorf("CreTime(Akropolis) = %s, %v", got, err)
	}
	if got, err := db.DelTime(akro); err != nil || got != jan31 {
		t.Errorf("DelTime(Akropolis) = %s, %v", got, err)
	}
}

func TestOperatorTSNavigation(t *testing.T) {
	db, id := openFigure1(t, Config{})
	napoli := napoliEID(t, db, id)
	teid := model.TEID{E: napoli, T: jan26}
	prev, err := db.PreviousTS(teid)
	if err != nil || prev.Stamp != jan1 {
		t.Fatalf("PreviousTS = %+v, %v", prev, err)
	}
	next, err := db.NextTS(teid)
	if err != nil || next.Stamp != jan31 {
		t.Fatalf("NextTS = %+v, %v", next, err)
	}
	cur, err := db.CurrentTS(napoli)
	if err != nil || cur.Ver != 3 {
		t.Fatalf("CurrentTS = %+v, %v", cur, err)
	}
}

func TestOperatorReconstructTEID(t *testing.T) {
	db, id := openFigure1(t, Config{})
	napoli := napoliEID(t, db, id)
	n, err := db.Reconstruct(model.TEID{E: napoli, T: jan26})
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "restaurant" || n.SelectPath("price")[0].Text() != "15" {
		t.Fatalf("reconstructed element = %s", n)
	}
	// At a time where the element did not exist.
	akro := akropolisEID(t, db, id)
	if _, err := db.Reconstruct(model.TEID{E: akro, T: jan1}); err == nil {
		t.Fatal("reconstructing Akropolis before creation must fail")
	}
}

func TestOperatorDiff(t *testing.T) {
	db, id := openFigure1(t, Config{})
	napoli := napoliEID(t, db, id)
	deltaDoc, err := db.Diff(
		model.TEID{E: napoli, T: jan26},
		model.TEID{E: napoli, T: feb10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if deltaDoc.Name != "txdelta" {
		t.Fatalf("diff root = %q", deltaDoc.Name)
	}
	s := deltaDoc.String()
	if !strings.Contains(s, "15") || !strings.Contains(s, "18") {
		t.Fatalf("diff should record the price change: %s", s)
	}
}

func TestLanguagePreviousNextCurrent(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT PREVIOUS(R), CURRENT(R)
		FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R
		WHERE R/name = "Napoli" AND R/price = "18"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := res.Rows[0][0].([]plan.Elem)
	if len(prev) != 1 || prev[0].Node.SelectPath("price")[0].Text() != "15" {
		t.Fatalf("PREVIOUS = %v", prev)
	}
	cur := res.Rows[0][1].([]plan.Elem)
	if len(cur) != 1 || cur[0].Node.SelectPath("price")[0].Text() != "18" {
		t.Fatalf("CURRENT = %v", cur)
	}

	// NEXT of the first Napoli version is the 18-price version.
	res2, err := db.Query(`SELECT NEXT(R)
		FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R
		WHERE R/name = "Napoli" AND R/price = "15"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("rows = %d", len(res2.Rows))
	}
	next := res2.Rows[0][0].([]plan.Elem)
	if len(next) != 1 || next[0].Node.SelectPath("price")[0].Text() != "18" {
		t.Fatalf("NEXT = %v", next)
	}
}

func TestLanguageDistinctCurrentName(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	// The paper's SELECT DISTINCT CURRENT(R)/name example: current names
	// of elements generated from a temporal scan.
	res, err := db.Query(`SELECT DISTINCT CURRENT(R)/name
		FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R
		WHERE R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("distinct rows = %d: %v", len(res.Rows), res.Rows)
	}
}

func TestLanguageCreateTimePredicate(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT R/name
		FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R
		WHERE CREATE TIME(R) >= 11/01/2001`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	name := res.Rows[0][0].([]plan.Elem)[0].Node.Text()
	if name != "Akropolis" {
		t.Fatalf("created-after filter returned %q", name)
	}
}

func TestLanguageDeleteTimePredicate(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT R/name
		FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R
		WHERE DELETE TIME(R) < NOW`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Akropolis" {
		t.Fatalf("deleted-before-now rows = %v", res.Rows)
	}
}

func TestLanguageNowArithmetic(t *testing.T) {
	db, _ := openFigure1(t, Config{}) // clock pinned to feb10
	// NOW - 14 DAYS = Jan 27: version 2 (Napoli + Akropolis)... Jan 27 is
	// after jan15 and before jan31 → 2 restaurants.
	res, err := db.Query(`SELECT COUNT(R)
		FROM doc("http://guide.com/restaurants.xml")[NOW - 14 DAYS]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Fatalf("count at NOW-14d = %d, want 2", got)
	}
}

func TestLanguagePriceIncreaseJoin(t *testing.T) {
	// The Section 7.4 example: restaurants that increased their prices
	// since 10/01/2001, joining a snapshot with the current state.
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT R1/name
		FROM doc("http://guide.com/restaurants.xml")[10/01/2001]/restaurant R1,
		     doc("http://guide.com/restaurants.xml")/restaurant R2
		WHERE R1/name = R2/name AND R1/price < R2/price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if got := res.Rows[0][0].([]plan.Elem)[0].Node.Text(); got != "Napoli" {
		t.Fatalf("price increase result = %q", got)
	}
}

func TestLanguageIdentityJoin(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	// R1 == R2 matches the same persistent element across snapshots.
	res, err := db.Query(`SELECT R1/name
		FROM doc("http://guide.com/restaurants.xml")[10/01/2001]/restaurant R1,
		     doc("http://guide.com/restaurants.xml")/restaurant R2
		WHERE R1 == R2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Napoli" {
		t.Fatalf("identity join rows = %v", res.Rows)
	}
}

func TestLanguageSimilarityJoin(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	// Similarity survives the price change (reintroduction scenario).
	res, err := db.Query(`SELECT R1/name
		FROM doc("http://guide.com/restaurants.xml")[10/01/2001]/restaurant R1,
		     doc("http://guide.com/restaurants.xml")/restaurant R2
		WHERE SIMILAR(R1, R2, 0.6)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("similarity join rows = %v", res.Rows)
	}
}

func TestLanguageDiff(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT DIFF(R1, R2)
		FROM doc("http://guide.com/restaurants.xml")[10/01/2001]/restaurant R1,
		     doc("http://guide.com/restaurants.xml")/restaurant R2
		WHERE R1 == R2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("diff rows = %d", len(res.Rows))
	}
	d := res.Rows[0][0].([]plan.Elem)
	if len(d) != 1 || d[0].Node.Name != "txdelta" {
		t.Fatalf("DIFF value = %v", d)
	}
}

func TestLanguageOrderByAndLimit(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT TIME(R), R/price
		FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R
		WHERE R/name = "Napoli"
		ORDER BY TIME(R) DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(model.Time) != jan31 {
		t.Fatalf("latest version = %s", res.Rows[0][0])
	}
}

func TestLanguageUnknownDocumentIsEmpty(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT R FROM doc("http://nope.example/x.xml")/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("unknown doc rows = %d", len(res.Rows))
	}
}

func TestLanguageAfterDocumentDelete(t *testing.T) {
	db, id := openFigure1(t, Config{})
	if err := db.Delete(id, model.Date(2001, 2, 5)); err != nil {
		t.Fatal(err)
	}
	// Current query: empty.
	res, err := db.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("current rows after delete = %d", len(res.Rows))
	}
	// Snapshot before the deletion still answers.
	res2, err := db.Query(`SELECT COUNT(R) FROM doc("http://guide.com/restaurants.xml")[01/02/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Rows[0][0].(int64); got != 1 {
		t.Fatalf("snapshot count = %d", got)
	}
}

func TestAllIndexKindsAnswerQ1(t *testing.T) {
	for _, kind := range []IndexKind{IndexVersions, IndexDeltas, IndexBoth} {
		db, _ := openFigure1(t, Config{Index: kind})
		res, err := db.Query(`SELECT COUNT(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := res.Rows[0][0].(int64); got != 2 {
			t.Errorf("%v: count = %d, want 2", kind, got)
		}
	}
}

func TestIndexKindString(t *testing.T) {
	if IndexVersions.String() != "versions" || IndexDeltas.String() != "deltas" ||
		IndexBoth.String() != "both" || IndexKind(9).String() != "IndexKind(9)" {
		t.Error("IndexKind strings broken")
	}
}

func TestPutXMLAndUpdateXML(t *testing.T) {
	db := Open(Config{Clock: func() model.Time { return feb10 }})
	id, err := db.PutXML("doc", strings.NewReader(`<g><r><n>A</n></r></g>`), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.UpdateXML(id, strings.NewReader(`<g><r><n>B</n></r></g>`), jan15); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PutXML("bad", strings.NewReader(`<broken`), jan1); err == nil {
		t.Fatal("PutXML must reject malformed input")
	}
	if _, _, err := db.UpdateXML(id, strings.NewReader(`<broken`), jan31); err == nil {
		t.Fatal("UpdateXML must reject malformed input")
	}
	vt, err := db.ReconstructVersion(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Root.Text() != "A" {
		t.Fatalf("v1 text = %q", vt.Root.Text())
	}
}

func TestTPatternScanAllTEIDs(t *testing.T) {
	db, id := openFigure1(t, Config{})
	teids, err := db.TPatternScanAll(restaurantPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(teids) != 2 {
		t.Fatalf("TPatternScanAll TEIDs = %d, want 2 (Napoli + Akropolis)", len(teids))
	}
	for _, teid := range teids {
		if teid.E.Doc != id {
			t.Fatalf("TEID doc = %d", teid.E.Doc)
		}
	}
}

func TestPatternScanCurrentTEIDs(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	teids, err := db.PatternScan(restaurantPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(teids) != 1 {
		t.Fatalf("current TEIDs = %d", len(teids))
	}
	n, err := db.Reconstruct(teids[0])
	if err != nil {
		t.Fatal(err)
	}
	if n.SelectPath("name")[0].Text() != "Napoli" {
		t.Fatal("current restaurant should be Napoli")
	}
}

func TestResultDocRendering(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT TIME(R) AS when, R/price
		FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R
		WHERE R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Doc()
	if len(doc.ChildElements("result")) != 2 {
		t.Fatalf("result doc = %s", doc)
	}
	s := doc.String()
	if !strings.Contains(s, `col="when"`) {
		t.Errorf("alias column label missing: %s", s)
	}
	if !strings.Contains(s, "<price>") {
		t.Errorf("element column missing: %s", s)
	}
}

func TestDocumentTimeIndex(t *testing.T) {
	db := Open(Config{
		Clock:        func() model.Time { return feb10 },
		DocTimePaths: []string{"item/published"},
	})
	feed := xmltree.MustParse(`<feed>
		<item><published>2001-01-05</published><headline>first</headline></item>
		<item><published>2001-01-20</published><headline>second</headline></item></feed>`)
	id, err := db.Put("feed", feed, jan1)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := db.DocTimeRange(model.Interval{Start: jan1, End: jan15})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	// The entry points at the item element; fetch it from the current tree.
	cur, _, _ := db.Current(id)
	item := cur.FindXID(entries[0].EID.X)
	if item == nil || item.SelectPath("headline")[0].Text() != "first" {
		t.Fatalf("wrong entity: %v", item)
	}
	// Document time is independent of transaction time: the version was
	// stored on jan1 but the second item carries jan20.
	late, _ := db.DocTimeRange(model.Interval{Start: jan15, End: feb10})
	if len(late) != 1 || late[0].At != model.Date(2001, 1, 20) {
		t.Fatalf("late entries = %+v", late)
	}
	// Unconfigured databases report a clear error.
	plain := Open(Config{})
	if _, err := plain.DocTimeRange(model.Always); err == nil {
		t.Fatal("unconfigured doc-time index must error")
	}
}
