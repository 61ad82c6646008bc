package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is BENCHMARK.json, the one place that names the metrics, their units,
// directions and regression bounds. The program reads it so that what it
// prints and what compare checks cannot drift from it.
type spec struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// unknown lists measured metrics that the spec does not define.
func (sp *spec) unknown(measured map[string]float64) []string {
	defined := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		defined[d.Name] = true
	}
	var out []string
	for name := range measured {
		if !defined[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// resultLine is the machine-readable last line of a single-workload run:
// every end-to-end metric of an untraced run, every per-layer metric of a
// traced one (0 where the workload does not exercise the layer).
func (sp *spec) resultLine(o *outcome) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := sp.EndToEnd
	if o.Trace {
		defs = sp.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{o.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": o.Failed == 0, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// worsening is how much worse b is than a as a share of a, given the
// metric's direction; negative when b is better.
func (d metricDef) worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareCmd prints, per workload and end-to-end metric, both values, the
// relative difference and the bound, one row each, and fails when B is
// worse than A by more than a bound.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var sides [2]map[string]map[string]float64
	for i, path := range args {
		if sides[i], err = loadUntraced(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	rows, exceeded := compareRuns(sp, sides[0], sides[1])
	fmt.Fprintf(stdout, "%-16s %-10s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if exceeded > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", exceeded)
		return 1
	}
	return 0
}

// loadUntraced reads a results file into workload -> metric -> value.
func loadUntraced(path string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var outs []outcome
	if err := json.Unmarshal(data, &outs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]map[string]float64)
	for _, o := range outs {
		if !o.Trace {
			m[o.Workload] = o.Metrics
		}
	}
	return m, nil
}

// compareRuns renders one row per workload x end-to-end metric present on
// both sides and counts the rows whose worsening exceeds the bound.
func compareRuns(sp *spec, a, b map[string]map[string]float64) (rows []string, exceeded int) {
	for _, w := range sp.Workloads {
		ma, mb := a[w.Name], b[w.Name]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range sp.EndToEnd {
			worse := d.worsening(ma[d.Name], mb[d.Name])
			flag := ""
			if worse > d.Bound {
				flag = "  EXCEEDS"
				exceeded++
			}
			rows = append(rows, fmt.Sprintf("%-16s %-10s %14.4f %14.4f %+8.1f%% %6.0f%%%s",
				w.Name, d.Name, ma[d.Name], mb[d.Name], 100*worse, 100*d.Bound, flag))
		}
	}
	return rows, exceeded
}
