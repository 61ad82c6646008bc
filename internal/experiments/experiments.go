// Package experiments implements the reproduction experiments indexed in
// DESIGN.md and reported in EXPERIMENTS.md. The paper contains no
// empirical tables — its evaluation is analytical — so each experiment
// here turns one analytical claim (C1–C10) into a measurement, plus F1,
// the exact reproduction of Figure 1 and queries Q1–Q3. cmd/txbench
// prints the tables. Performance of the system as a whole is measured by
// the repo benchmark (bench/, BENCHMARK.json), not here.
package experiments

import (
	"fmt"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/stratum"
	"txmldb/internal/tdocgen"
)

// Day is the generator's version step.
const Day = model.Time(24 * 3600 * 1000)

// Start is the corpus epoch.
var Start = model.Date(2001, 1, 1)

// CorpusConfig describes a generated corpus.
type CorpusConfig struct {
	Docs     int
	Elems    int
	Versions int
	Ops      int
	Seed     int64
}

func (c CorpusConfig) generator() *tdocgen.Generator {
	return tdocgen.New(tdocgen.Config{
		Seed: c.Seed, Docs: c.Docs, InitialElems: c.Elems,
		Versions: c.Versions, OpsPerVersion: c.Ops,
		Start: Start, Step: Day,
	})
}

// clockAfter returns a clock pinned after the corpus's last version.
func (c CorpusConfig) clockAfter() func() model.Time {
	end := Start + model.Time(int64(c.Versions+1)*int64(Day))
	return func() model.Time { return end }
}

// timeAt returns the corpus time of version v (1-based).
func timeAt(v int) model.Time { return Start + model.Time(int64(v-1)*int64(Day)) }

// NativeDB loads the corpus into a native temporal database.
func NativeDB(c CorpusConfig, cfg core.Config) (*core.DB, []model.DocID, error) {
	cfg.Clock = c.clockAfter()
	db := core.Open(cfg)
	ids, err := c.generator().Load(db)
	return db, ids, err
}

// StratumDB loads the corpus into the stratum baseline.
func StratumDB(c CorpusConfig, pages pagestore.Config) (*stratum.DB, []model.DocID, error) {
	db := stratum.New(pages)
	g := c.generator()
	ids := make([]model.DocID, c.Docs)
	for i := 0; i < c.Docs; i++ {
		hist := g.History(i)
		id, err := db.Put(g.URL(i), hist[0].Tree, hist[0].At)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = id
		for _, v := range hist[1:] {
			if err := db.Update(id, v.Tree, v.At); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, ids, nil
}

// RestaurantPattern is the pattern of the paper's Q1/Q2 over the corpus.
func RestaurantPattern() *pattern.PNode {
	r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
}

// Table is one experiment's printable result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's analytical claim being validated
	Columns []string
	Rows    [][]string
	Verdict string // one-line comparison of measured shape vs claim
}

// Print renders the table to the writer-ish function (fmt.Printf shape).
func (t Table) Print(printf func(format string, args ...any)) {
	printf("\n%s — %s\n", t.ID, t.Title)
	printf("claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			printf("  %-*s", widths[i], cell)
		}
		printf("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Verdict != "" {
		printf("verdict: %s\n", t.Verdict)
	}
}

func msSince(t0 time.Time) string {
	return fmt.Sprintf("%.2f", float64(time.Since(t0).Microseconds())/1000.0)
}

// msPerRep averages the elapsed time over reps repetitions.
func msPerRep(t0 time.Time, reps int) string {
	return fmt.Sprintf("%.2f", float64(time.Since(t0).Microseconds())/1000.0/float64(reps))
}

func itoa(v any) string { return fmt.Sprint(v) }
