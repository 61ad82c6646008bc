// Command txbench regenerates the reproduction experiments of
// EXPERIMENTS.md: F1 (the paper's Figure 1 data and queries Q1–Q3) and
// C1–C10, one quantitative experiment per analytical performance claim of
// the paper. It prints one table per experiment. The performance contract
// of the system as a whole is the repo benchmark (bench/), not this tool.
//
// Usage:
//
//	txbench             # run everything
//	txbench -only C3,C6 # run a subset
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"txmldb/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	flag.Parse()

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			wanted[id] = true
		}
	}
	include := func(id string) bool { return len(wanted) == 0 || wanted[id] }

	runs := []struct {
		id  string
		run func() (experiments.Table, error)
	}{
		{"F1", experiments.F1},
		{"C1", func() (experiments.Table, error) { return experiments.C1([]int{4, 16, 64}) }},
		{"C2", experiments.C2},
		{"C3", experiments.C3},
		{"C4", experiments.C4},
		{"C5", experiments.C5},
		{"C6", experiments.C6},
		{"C7", func() (experiments.Table, error) { return experiments.C7([]int{8, 32, 128}) }},
		{"C8", experiments.C8},
		{"C9", experiments.C9},
		{"C10", func() (experiments.Table, error) { return experiments.C10([]int{8, 32, 128}) }},
	}

	failed := false
	for _, r := range runs {
		if !include(r.id) {
			continue
		}
		tbl, err := r.run()
		if err != nil {
			log.Printf("%s failed: %v", r.id, err)
			failed = true
			continue
		}
		tbl.Print(func(format string, args ...any) { fmt.Printf(format, args...) })
	}
	if failed {
		os.Exit(1)
	}
}
