// Command restaurants reproduces the paper end to end on its own running
// example: the guide.com restaurant list of Figure 1 and the example
// queries Q1–Q3 of Section 6.2, followed by a tour of the individual
// temporal operators (Section 6.1).
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"txmldb"
)

const guideURL = "http://guide.com/restaurants.xml"

func main() {
	db := txmldb.Open(txmldb.Config{
		// Pin NOW so that relative time expressions are reproducible.
		Clock: func() txmldb.Time { return txmldb.Date(2001, time.February, 10) },
	})
	loadFigure1(db)

	fmt.Println("=== Q1: all restaurants as of 26/01/2001 (TPatternScan + Reconstruct)")
	run(db, `SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)

	fmt.Println("=== Q2: number of restaurants at 26/01/2001 (no reconstruction needed)")
	res := run(db, `SELECT SUM(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	fmt.Printf("    reconstructions performed: %d (the paper's Section 6.2 point)\n\n",
		res.Metrics.Reconstructions)

	fmt.Println("=== Q3: price history of Napoli (TPatternScanAll)")
	run(db, `SELECT TIME(R), R/price
		FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R
		WHERE R/name = "Napoli"`)

	fmt.Println("=== Section 7.4: restaurants that raised prices since 10/01/2001")
	run(db, `SELECT R1/name
		FROM doc("http://guide.com/restaurants.xml")[10/01/2001]/restaurant R1,
		     doc("http://guide.com/restaurants.xml")/restaurant R2
		WHERE R1 == R2 AND R1/price < R2/price`)

	operatorTour(db)
}

func loadFigure1(db *txmldb.DB) {
	steps := []struct {
		at  txmldb.Time
		xml string
	}{
		{txmldb.Date(2001, time.January, 1),
			`<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>`},
		{txmldb.Date(2001, time.January, 15),
			`<guide><restaurant><name>Napoli</name><price>15</price></restaurant>` +
				`<restaurant><name>Akropolis</name><price>13</price></restaurant></guide>`},
		{txmldb.Date(2001, time.January, 31),
			`<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>`},
	}
	id, err := db.PutXML(guideURL, strings.NewReader(steps[0].xml), steps[0].at)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range steps[1:] {
		if _, _, err := db.UpdateXML(id, strings.NewReader(s.xml), s.at); err != nil {
			log.Fatal(err)
		}
	}
}

func run(db *txmldb.DB, q string) *txmldb.Result {
	res, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Doc().Pretty())
	fmt.Println()
	return res
}

// operatorTour demonstrates the operator-level API underneath the language.
func operatorTour(db *txmldb.DB) {
	id, _ := db.LookupDoc(guideURL)

	fmt.Println("=== Operator tour")
	// TPatternScan returns TEIDs, the temporal element identifiers.
	pat := &txmldb.Pattern{Name: "restaurant", Rel: txmldb.Child, Project: true}
	teids, err := db.TPatternScan(pat, txmldb.Date(2001, time.January, 26))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPatternScan @26/01: %d TEIDs\n", len(teids))
	for _, teid := range teids {
		node, err := db.Reconstruct(teid)
		if err != nil {
			log.Fatal(err)
		}
		name := node.SelectPath("name")[0].Text()
		cre, _ := db.CreTime(teid.E)
		del, _ := db.DelTime(teid.E)
		fmt.Printf("  %-12s TEID=%v  CreTime=%s  DelTime=%s\n", name, teid, cre, del)
	}

	// DocHistory and ElementHistory.
	hist, err := db.DocHistory(id, txmldb.Always)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DocHistory: %d versions (most recent first)\n", len(hist))
	for _, h := range hist {
		fmt.Printf("  v%d @%s: %d restaurants\n", h.Info.Ver, h.Info.Stamp,
			len(h.Root.ChildElements("restaurant")))
	}

	// PreviousTS / NextTS / CurrentTS are pure delta-index lookups.
	napoli := teids[0]
	if prev, err := db.PreviousTS(napoli); err == nil {
		fmt.Printf("PreviousTS(%s) = v%d @%s\n", napoli.T, prev.Ver, prev.Stamp)
	}
	if next, err := db.NextTS(napoli); err == nil {
		fmt.Printf("NextTS(%s)     = v%d @%s\n", napoli.T, next.Ver, next.Stamp)
	}

	// Diff returns the changes between two element versions as XML.
	delta, err := db.Diff(
		txmldb.TEID{E: napoli.E, T: txmldb.Date(2001, time.January, 26)},
		txmldb.TEID{E: napoli.E, T: txmldb.Date(2001, time.February, 1)},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Diff of Napoli between 26/01 and 01/02 (an edit script, itself XML):")
	fmt.Println(delta.Pretty())
}
