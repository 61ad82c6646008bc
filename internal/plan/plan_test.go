package plan_test

import (
	"context"
	"strings"
	"testing"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/plan"
	"txmldb/internal/xmltree"
)

var (
	jan1  = model.Date(2001, 1, 1)
	jan15 = model.Date(2001, 1, 15)
	jan31 = model.Date(2001, 1, 31)
	feb10 = model.Date(2001, 2, 10)
)

func guide(entries ...[2]string) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for _, e := range entries {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", e[0]),
			xmltree.ElemText("price", e[1])))
	}
	return g
}

func figure1(t testing.TB) *core.DB {
	t.Helper()
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	id, err := db.Put("u", guide([2]string{"Napoli", "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "15"}, [2]string{"Akropolis", "13"}), jan15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRunStringParseError(t *testing.T) {
	if _, err := plan.RunStringContext(context.Background(), figure1(t), `garbage`); err == nil {
		t.Fatal("parse errors must propagate")
	}
}

func TestEveryCrossJoin(t *testing.T) {
	db := figure1(t)
	// EVERY × EVERY self-join: pairs of Napoli element versions.
	res, err := db.Query(`SELECT TIME(R1), TIME(R2)
		FROM doc("u")[EVERY]/restaurant R1, doc("u")[EVERY]/restaurant R2
		WHERE R1/name = "Napoli" AND R2/name = "Napoli" AND TIME(R1) < TIME(R2)`)
	if err != nil {
		t.Fatal(err)
	}
	// Napoli has 2 element versions → exactly one ordered pair.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].(model.Time) != jan1 || res.Rows[0][1].(model.Time) != jan31 {
		t.Fatalf("pair = %v", res.Rows[0])
	}
}

func TestSnapshotAndEveryMixedJoin(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT TIME(R2), R2/price
		FROM doc("u")[26/01/2001]/restaurant R1, doc("u")[EVERY]/restaurant R2
		WHERE R1 == R2 AND R1/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	// All element versions of the restaurant that was Napoli on Jan 26.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWhereTypeError(t *testing.T) {
	db := figure1(t)
	if _, err := db.Query(`SELECT R FROM doc("u")/restaurant R WHERE R/price`); err == nil {
		// A bare node list in WHERE is existential (allowed); but a bare
		// string literal is not a boolean.
		t.Log("bare path predicate treated as existence check")
	}
	if _, err := db.Query(`SELECT R FROM doc("u")/restaurant R WHERE "notabool"`); err == nil {
		t.Fatal("non-boolean WHERE must fail")
	}
}

func TestUnknownFunction(t *testing.T) {
	db := figure1(t)
	if _, err := db.Query(`SELECT NOSUCH(R) FROM doc("u")/restaurant R`); err == nil {
		t.Fatal("unknown function must fail")
	}
}

func TestPreviousRequiresVariable(t *testing.T) {
	db := figure1(t)
	if _, err := db.Query(`SELECT PREVIOUS(R/name) FROM doc("u")/restaurant R`); err == nil {
		t.Fatal("PREVIOUS over a path must fail")
	}
}

func TestMixedAggregateAndPlainFails(t *testing.T) {
	db := figure1(t)
	if _, err := db.Query(`SELECT COUNT(R), R FROM doc("u")/restaurant R`); err == nil {
		t.Fatal("mixing aggregates with plain columns must fail")
	}
}

func TestArithmeticErrors(t *testing.T) {
	db := figure1(t)
	if _, err := db.Query(`SELECT R FROM doc("u")[NOW - "x"]/restaurant R`); err == nil {
		t.Fatal("time minus string must fail")
	}
	if _, err := db.Query(`SELECT R FROM doc("u")["x" + 14 DAYS]/restaurant R`); err == nil {
		t.Fatal("string timespec must fail")
	}
}

func TestPathOverScalarFails(t *testing.T) {
	db := figure1(t)
	if _, err := db.Query(`SELECT TIME(R)/x FROM doc("u")[EVERY]/restaurant R`); err == nil {
		t.Fatal("path over a scalar must fail")
	}
}

func TestAggregatesOverValues(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT COUNT(R), MIN(R/price), MAX(R/price), AVG(R/price)
		FROM doc("u")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].(int64) != 2 {
		t.Fatalf("count = %v", row[0])
	}
	if row[1] != "13" || row[2] != "15" {
		t.Fatalf("min/max = %v / %v", row[1], row[2])
	}
	if row[3].(float64) != 14 {
		t.Fatalf("avg = %v", row[3])
	}
}

func TestCountOfMissingPath(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT COUNT(R/nosuch) FROM doc("u")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("count of empty paths = %v", res.Rows[0][0])
	}
}

func TestSimilarOperatorInWhere(t *testing.T) {
	db := figure1(t)
	// Napoli@15 vs Napoli@18 share name and structure but differ in
	// price: similar at a relaxed threshold but not at the strict default
	// (the operator distinguishes "same entry, updated" from "identical").
	res, err := db.Query(`SELECT R1/name
		FROM doc("u")[02/01/2001]/restaurant R1, doc("u")/restaurant R2
		WHERE SIMILAR(R1, R2, 0.6)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("SIMILAR 0.6 rows = %v", res.Rows)
	}
	strict, err := db.Query(`SELECT R1/name
		FROM doc("u")[02/01/2001]/restaurant R1, doc("u")/restaurant R2
		WHERE SIMILAR(R1, R2, 0.99)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Rows) != 0 {
		t.Fatalf("SIMILAR 0.99 rows = %v", strict.Rows)
	}
}

func TestResultDocNilValues(t *testing.T) {
	db := figure1(t)
	// PREVIOUS of the first version is empty: rendered as an empty value.
	res, err := db.Query(`SELECT PREVIOUS(R)
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Akropolis"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if elems := res.Rows[0][0].([]plan.Elem); len(elems) != 0 {
		t.Fatalf("PREVIOUS of first version = %v", elems)
	}
	doc := res.Doc()
	if len(doc.ChildElements("result")) != 1 {
		t.Fatalf("doc = %s", doc)
	}
}

func TestExplainShapes(t *testing.T) {
	out, err := plan.ExplainString(`SELECT TIME(R), R/price
		FROM doc("u")[EVERY]/restaurant R
		WHERE R/name = "Napoli" AND R/price < 20
		ORDER BY TIME(R) DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"TPatternScanAll",
		"/restaurant",
		"[~Napoli]", // pushed containment word
		"pushed into patterns",
		"order by: TIME(R) DESC",
		"limit: 3",
		"one binding per element version",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("explain output missing %q:\n%s", frag, out)
		}
	}
	out2, err := plan.ExplainString(`SELECT SUM(R) FROM doc("u")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"TPatternScan at", "aggregate: SUM(R)"} {
		if !strings.Contains(out2, frag) {
			t.Errorf("aggregate explain missing %q:\n%s", frag, out2)
		}
	}
	out3, err := plan.ExplainString(`SELECT R1 FROM doc("a")/x R1, doc("b")/y R2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "join: nested-loop product of 2") {
		t.Errorf("join explain missing:\n%s", out3)
	}
	if _, err := plan.ExplainString(`not a query`); err == nil {
		t.Fatal("explain must propagate parse errors")
	}
}

func TestOrPredicateNotPushedDown(t *testing.T) {
	db := figure1(t)
	// name="Napoli" under OR must not restrict the scan: Akropolis rows
	// with price 13 must survive.
	res, err := db.Query(`SELECT R/name
		FROM doc("u")[26/01/2001]/restaurant R
		WHERE R/name = "Napoli" OR R/price = "13"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("OR rows = %d, want 2 (pushdown must skip OR branches)", len(res.Rows))
	}
	// And the explain must not list it as pushed.
	out, _ := plan.ExplainString(`SELECT R FROM doc("u")/r R WHERE R/name = "x" OR R/y = "z"`)
	if strings.Contains(out, "pushed into patterns") {
		t.Errorf("OR predicate wrongly reported as pushed:\n%s", out)
	}
}

func TestNotPredicate(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT R/name
		FROM doc("u")[26/01/2001]/restaurant R
		WHERE NOT R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Akropolis" {
		t.Fatalf("NOT rows = %v", res.Rows)
	}
}

func TestDescendantPathInWhere(t *testing.T) {
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	tree := xmltree.MustParse(`<g><r><info><chef>Mario</chef></info></r><r><info><chef>Luigi</chef></info></r></g>`)
	if _, err := db.Put("u", tree, jan1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT R FROM doc("u")/r R WHERE R//chef = "Mario"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("descendant predicate rows = %d", len(res.Rows))
	}
}

func TestMetricsRowsExamined(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT R FROM doc("u")[26/01/2001]/restaurant R WHERE R/price = "15"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.RowsExamined < len(res.Rows) || res.Metrics.PatternMatches == 0 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
}

func TestContainsPredicate(t *testing.T) {
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	tree := xmltree.MustParse(`<g>
		<r><name>Napoli</name><info><chef>Mario</chef></info></r>
		<r><name>Akropolis</name><info><chef>Elena</chef></info></r></g>`)
	if _, err := db.Put("u", tree, jan1); err != nil {
		t.Fatal(err)
	}
	// Deep containment on the variable itself.
	res, err := db.Query(`SELECT R/name FROM doc("u")/r R WHERE CONTAINS(R, "Mario")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Napoli" {
		t.Fatalf("CONTAINS rows = %v", res.Rows)
	}
	// Containment below a path.
	res2, err := db.Query(`SELECT R/name FROM doc("u")/r R WHERE CONTAINS(R/info, "Elena")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Akropolis" {
		t.Fatalf("CONTAINS path rows = %v", res2.Rows)
	}
	// Element names count as words (FTI semantics).
	res3, err := db.Query(`SELECT COUNT(R) FROM doc("u")/r R WHERE CONTAINS(R, "chef")`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rows[0][0].(int64) != 2 {
		t.Fatalf("CONTAINS name-word count = %v", res3.Rows[0][0])
	}
	// No match.
	res4, err := db.Query(`SELECT R FROM doc("u")/r R WHERE CONTAINS(R, "nope")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res4.Rows) != 0 {
		t.Fatalf("CONTAINS miss rows = %v", res4.Rows)
	}
	// Pushdown shows in the plan.
	out, err := plan.ExplainString(`SELECT R FROM doc("u")/r R WHERE CONTAINS(R, "Mario")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[~~Mario]") || !strings.Contains(out, "pushed into patterns") {
		t.Errorf("CONTAINS not pushed:\n%s", out)
	}
	// Errors.
	if _, err := db.Query(`SELECT R FROM doc("u")/r R WHERE CONTAINS(R, 5)`); err == nil {
		t.Fatal("CONTAINS with non-string word must fail")
	}
	if _, err := db.Query(`SELECT R FROM doc("u")/r R WHERE CONTAINS("str", "w")`); err == nil {
		t.Fatal("CONTAINS over a non-element must fail")
	}
}

func TestContainsUnderOrNotPushed(t *testing.T) {
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	tree := xmltree.MustParse(`<g><r><name>A</name></r><r><name>B</name></r></g>`)
	if _, err := db.Put("u", tree, jan1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT R FROM doc("u")/r R
		WHERE CONTAINS(R, "A") OR CONTAINS(R, "B")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("OR CONTAINS rows = %d, want 2", len(res.Rows))
	}
}
