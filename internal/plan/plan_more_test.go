package plan_test

import (
	"strings"
	"testing"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/plan"
	"txmldb/internal/xmltree"
)

func TestOrderByAscDescAndValues(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT R/name, R/price
		FROM doc("u")[26/01/2001]/restaurant R ORDER BY R/price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first := res.Rows[0][0].([]plan.Elem)[0].Node.Text()
	if first != "Akropolis" { // price 13 before 15
		t.Fatalf("ascending order first = %q", first)
	}
	res2, err := db.Query(`SELECT R/name
		FROM doc("u")[26/01/2001]/restaurant R ORDER BY R/price DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Rows[0][0].([]plan.Elem)[0].Node.Text(); got != "Napoli" {
		t.Fatalf("descending order first = %q", got)
	}
	// ORDER BY a time key.
	res3, err := db.Query(`SELECT TIME(R) FROM doc("u")[EVERY]/restaurant R
		WHERE R/name = "Napoli" ORDER BY TIME(R) DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rows[0][0].(model.Time) != jan31 || res3.Rows[1][0].(model.Time) != jan1 {
		t.Fatalf("time order = %v", res3.Rows)
	}
}

func TestOrderByErrorOnNodeKeyConflict(t *testing.T) {
	db := figure1(t)
	// ORDER BY over elements falls back to their text: no error, sorted.
	res, err := db.Query(`SELECT R/name FROM doc("u")[26/01/2001]/restaurant R ORDER BY R/name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Akropolis" {
		t.Fatalf("name order = %v", res.Rows)
	}
}

func TestDistinctOverScalars(t *testing.T) {
	db := figure1(t)
	// Two Napoli element versions share the name text: DISTINCT collapses.
	res, err := db.Query(`SELECT DISTINCT R/name
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("distinct rows = %d", len(res.Rows))
	}
	// Without DISTINCT there are two.
	res2, _ := db.Query(`SELECT R/name
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Napoli"`)
	if len(res2.Rows) != 2 {
		t.Fatalf("plain rows = %d", len(res2.Rows))
	}
}

func TestDistinctWithOrderByAndLimit(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT DISTINCT R/price
		FROM doc("u")[EVERY]/restaurant R
		WHERE R/name = "Napoli" ORDER BY R/price LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	// DISTINCT dropped nothing here (15 and 18 differ), the fallback
	// ordering applies, and LIMIT keeps one row.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestResultDocRendersAllValueKinds(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT TIME(R), R/price, COUNT(R)
		FROM doc("u")[26/01/2001]/restaurant R`)
	// Mixing aggregate with plain fails: split into two queries instead.
	if err == nil {
		t.Fatal("mixed select should fail")
	}
	res, err = db.Query(`SELECT TIME(R), R/price, R/name, 3.5, "label"
		FROM doc("u")[26/01/2001]/restaurant R WHERE R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Doc()
	s := doc.String()
	for _, frag := range []string{
		`col="TIME(R)"`, "<price>", "<name>", ">3.5<", ">label<",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered doc missing %q:\n%s", frag, s)
		}
	}
}

func TestVersionNavEdges(t *testing.T) {
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	id, err := db.Put("u", guide([2]string{"Napoli", "15"}, [2]string{"Akropolis", "13"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "18"}), jan15); err != nil {
		t.Fatal(err)
	}

	// NEXT of the last element version is empty.
	res, err := db.Query(`SELECT NEXT(R)
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Napoli" AND R/price = "18"`)
	if err != nil {
		t.Fatal(err)
	}
	if elems := res.Rows[0][0].([]plan.Elem); len(elems) != 0 {
		t.Fatalf("NEXT of last version = %v", elems)
	}
	// NEXT of a deleted element (Akropolis) is empty.
	res2, err := db.Query(`SELECT NEXT(R)
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Akropolis"`)
	if err != nil {
		t.Fatal(err)
	}
	if elems := res2.Rows[0][0].([]plan.Elem); len(elems) != 0 {
		t.Fatalf("NEXT of deleted element = %v", elems)
	}
	// CURRENT of a deleted element is empty; of a live one, non-empty.
	res3, err := db.Query(`SELECT CURRENT(R)
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Akropolis"`)
	if err != nil {
		t.Fatal(err)
	}
	if elems := res3.Rows[0][0].([]plan.Elem); len(elems) != 0 {
		t.Fatalf("CURRENT of deleted element = %v", elems)
	}

	// After deleting the whole document, CURRENT is empty for everything.
	if err := db.Delete(id, jan31); err != nil {
		t.Fatal(err)
	}
	res4, err := db.Query(`SELECT CURRENT(R)
		FROM doc("u")[EVERY]/restaurant R WHERE R/name = "Napoli" AND R/price = "18"`)
	if err != nil {
		t.Fatal(err)
	}
	if elems := res4.Rows[0][0].([]plan.Elem); len(elems) != 0 {
		t.Fatalf("CURRENT after doc delete = %v", elems)
	}
}

func TestLiteralOnLeftOfEquality(t *testing.T) {
	db := figure1(t)
	// pathAndLiteral must recognize "Napoli" = R/name too.
	res, err := db.Query(`SELECT R FROM doc("u")[26/01/2001]/restaurant R
		WHERE "Napoli" = R/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("reversed equality rows = %d", len(res.Rows))
	}
}

func TestNumericStringComparison(t *testing.T) {
	db := figure1(t)
	// "13" < 15 numerically (not lexicographically where "13" < "15" too);
	// use 9 to force the numeric path: "13" < 9 is false numerically but
	// true lexicographically ("1" < "9").
	res, err := db.Query(`SELECT R/name FROM doc("u")[26/01/2001]/restaurant R
		WHERE R/price < 9`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("numeric comparison fell back to lexicographic: %v", res.Rows)
	}
	res2, err := db.Query(`SELECT R/name FROM doc("u")[26/01/2001]/restaurant R
		WHERE R/price >= 13 AND R/price <= 15`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Fatalf("range rows = %d", len(res2.Rows))
	}
}

func TestPlainNumberArithmeticInSelect(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT 2 + 3, 10 - 4.5 FROM doc("u")[26/01/2001]/restaurant R LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(float64) != 5 || res.Rows[0][1].(float64) != 5.5 {
		t.Fatalf("arithmetic = %v", res.Rows[0])
	}
}

func TestBooleanInSelect(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT R/price < 14 FROM doc("u")[26/01/2001]/restaurant R
		WHERE R/name = "Akropolis"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != true {
		t.Fatalf("boolean column = %v", res.Rows[0][0])
	}
	if !strings.Contains(res.Doc().String(), ">true<") {
		t.Fatal("boolean not rendered")
	}
}

func TestTimeLiteralComparisons(t *testing.T) {
	db := figure1(t)
	res, err := db.Query(`SELECT R/name FROM doc("u")[26/01/2001]/restaurant R
		WHERE CREATE TIME(R) != 01/01/2001 AND CREATE TIME(R) <= 20/01/2001`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "Akropolis" {
		t.Fatalf("time comparison rows = %v", res.Rows)
	}
}

func TestDiffBetweenDifferentElements(t *testing.T) {
	db := figure1(t)
	// DIFF across two different restaurants: an edit script turning one
	// into the other (the paper: "E1 and E2 can be versions of the same
	// element, but can also represent different documents or subtrees").
	res, err := db.Query(`SELECT DIFF(R1, R2)
		FROM doc("u")[26/01/2001]/restaurant R1, doc("u")[26/01/2001]/restaurant R2
		WHERE R1/name = "Napoli" AND R2/name = "Akropolis"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	delta := res.Rows[0][0].([]plan.Elem)[0].Node
	if delta.Name != "txdelta" || len(delta.ChildElements("")) == 0 {
		t.Fatalf("delta = %s", delta)
	}
	if !strings.Contains(delta.String(), "Akropolis") {
		t.Fatalf("delta should carry the new values: %s", delta)
	}
}

func TestEmptyEveryExpansion(t *testing.T) {
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	if _, err := db.Put("u", xmltree.MustParse(`<g><r><n>x</n></r></g>`), jan1); err != nil {
		t.Fatal(err)
	}
	// A word that never occurs: zero matches, zero rows, no error.
	res, err := db.Query(`SELECT R FROM doc("u")[EVERY]/r R WHERE R/n = "nothere"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestRangeTimespec(t *testing.T) {
	db := figure1(t)
	// [01/01/2001 TO 31/01/2001): covers Napoli@15 (v1) and the v2 state,
	// but not the jan31 price change.
	res, err := db.Query(`SELECT TIME(R), R/price
		FROM doc("u")[01/01/2001 TO 31/01/2001]/restaurant R
		WHERE R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("range rows = %v", res.Rows)
	}
	if res.Rows[0][0].(model.Time) != jan1 {
		t.Fatalf("range row time = %v", res.Rows[0][0])
	}
	// Extending past jan31 picks up the price change.
	res2, err := db.Query(`SELECT TIME(R)
		FROM doc("u")[01/01/2001 TO 10/02/2001]/restaurant R
		WHERE R/name = "Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Fatalf("extended range rows = %v", res2.Rows)
	}
	// Akropolis only existed inside [jan15, jan31).
	res3, err := db.Query(`SELECT COUNT(R)
		FROM doc("u")[16/01/2001 TO 17/01/2001]/restaurant R
		WHERE R/name = "Akropolis"`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rows[0][0].(int64) != 1 {
		t.Fatalf("akropolis in range = %v", res3.Rows[0][0])
	}
	// Empty and inverted ranges error or return nothing.
	if _, err := db.Query(`SELECT R FROM doc("u")[31/01/2001 TO 01/01/2001]/restaurant R`); err == nil {
		t.Fatal("inverted range must fail")
	}
	// NOW-relative range endpoints work.
	res4, err := db.Query(`SELECT COUNT(R)
		FROM doc("u")[NOW - 30 DAYS TO NOW]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Rows[0][0].(int64) == 0 {
		t.Fatal("relative range found nothing")
	}
	// Explain mentions the clipped scan.
	out, err := plan.ExplainString(`SELECT R FROM doc("u")[01/01/2001 TO 31/01/2001]/r R`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "clipped to [01/01/2001 TO 31/01/2001]") {
		t.Errorf("range explain missing:\n%s", out)
	}
}

// TestHyphenatedLiteralPushdown is a regression test: pushed-down literal
// tokens must agree with the FTI's tokenizer, or equality predicates on
// hyphenated values silently drop all rows.
func TestHyphenatedLiteralPushdown(t *testing.T) {
	db := core.Open(core.Config{Clock: func() model.Time { return feb10 }})
	tree := xmltree.MustParse(`<g>
		<r><name>rest-000-0001</name><price>10</price></r>
		<r><name>rest-000-0002</name><price>20</price></r></g>`)
	if _, err := db.Put("u", tree, jan1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT R/price FROM doc("u")/r R WHERE R/name = "rest-000-0001"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].([]plan.Elem)[0].Node.Text() != "10" {
		t.Fatalf("hyphenated equality rows = %v", res.Rows)
	}
	// The pushed pattern must not require the index to contain the raw
	// hyphenated string; it pushes the individual tokens.
	out, _ := plan.ExplainString(`SELECT R FROM doc("u")/r R WHERE R/name = "rest-000-0001"`)
	if strings.Contains(out, "[~rest-000-0001]") {
		t.Errorf("raw hyphenated word pushed:\n%s", out)
	}
	for _, frag := range []string{"[~rest]", "[~000]", "[~0001]"} {
		if !strings.Contains(out, frag) {
			t.Errorf("token %q not pushed:\n%s", frag, out)
		}
	}
	// Token-subset false positives are filtered by the equality re-check:
	// "rest-000" shares tokens with both names but equals neither.
	res2, err := db.Query(`SELECT R FROM doc("u")/r R WHERE R/name = "rest-000"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 {
		t.Fatalf("partial-token literal matched %d rows", len(res2.Rows))
	}
}
