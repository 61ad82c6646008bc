// Command bench is the repository's benchmark: five named workloads over the
// temporal XML database, end-to-end metrics from an untraced run, per-layer
// metrics from a separate traced run, and a correctness gate on both. See
// README.md in this directory for every metric and workload.
//
//	bash bench/run.sh --workload snapshot-cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                      # every workload, untraced then traced
//	bash bench/run.sh --smoke              # the same at a twentieth of the size
//	bash bench/run.sh compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// params is one run of one workload.
type params struct {
	workload string
	seed     int64
	window   time.Duration // length of the timed phase
	trace    bool
	sz       sizes
}

// The program runs from the root of the checkout: the definition is there,
// and traces, results and durable stores go under the benchmark's own
// directory.
const specPath = "BENCHMARK.json"

var outDir = filepath.Join("bench", "out")

// listLen is the length of the seeded op list: the workload's nominal rate
// times the run length. The untraced run cycles through it until the
// window ends. The traced run makes exactly one untraced and one traced
// pass over a list a quarter as long (probes make an op about three times
// as expensive), so it takes about as long and its counts repeat from run
// to run.
func (p params) listLen() int {
	n := int(float64(p.sz.OpsPerSecond[p.workload]) * p.window.Seconds())
	if p.trace {
		n /= 4
	}
	return max(n, 20)
}

func (p params) tracePath() string {
	return filepath.Join(outDir, "trace-"+p.workload+".json")
}

// scratchDir returns a fresh directory for a durable store under the
// output directory; the workload removes it when it ends.
func (p params) scratchDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, p.workload+"-")
}

// outcome is what one run reports.
type outcome struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are informational lines for the human report: sample counts,
	// p99, the op-list digest, the first failures.
	Notes []string `json:"notes"`
}

func newOutcome(p params, ops []op) *outcome {
	o := &outcome{Workload: p.workload, Trace: p.trace, Seed: p.seed, Metrics: make(map[string]float64)}
	o.note("op list: %d ops, digest %s", len(ops), digest(ops))
	return o
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) endToEnd(s summary, setupS float64) {
	o.Metrics["ops_per_s"] = s.opsPerS
	o.Metrics["p50_ms"] = s.p50ms
	o.Metrics["p95_ms"] = s.p95ms
	o.Metrics["setup_s"] = setupS
	o.note("latency over %d samples (highest supported percentile p%g); p99 %.3f ms is informational",
		s.n, highestPercentile(s.n), s.p99ms)
	o.note("ops/s per time slice: %.1f", s.sliceOps)
}

func (o *outcome) count(l *loop) {
	o.Attempted += l.attempted
	o.Failed += l.failed
	for _, p := range l.problems {
		o.note("FAILED %s", p)
	}
}

var runners = map[string]func(context.Context, params) (*outcome, error){
	snapshotCold: runRead, snapshotHot: runRead, indexOnly: runRead,
	ingestDurable: runIngest, servedMixed: runServed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	failed, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// run runs one workload, or all of them, and returns how many operations
// failed.
func run(args []string, stdout io.Writer) (failed int, err error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (default: every workload, untraced then traced)")
		seed     = fs.Int64("seed", 1, "the only input to the generators")
		seconds  = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of the spec; 0.5 with --smoke)")
		trace    = fs.Int("trace", 0, "1 = the traced run, which prints the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "a twentieth of the sizes; numbers are not comparable")
		outFile  = fs.String("out", "", "also write the results as JSON here, for compare")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	p := params{seed: *seed, sz: fullSizes, window: time.Duration(*seconds * float64(time.Second))}
	if *smoke {
		p.sz = smokeSizes
		fmt.Fprintln(stdout, "SMOKE RUN: sizes are a twentieth of the benchmark's; these numbers are not comparable.")
	}
	if p.window <= 0 {
		p.window = time.Duration(sp.RunSeconds) * time.Second
		if *smoke {
			p.window = time.Second / 2
		}
	}
	ctx := context.Background()

	if *workload != "" {
		p.workload, p.trace = *workload, *trace == 1
		out, err := runOne(ctx, p, sp, stdout)
		if err != nil {
			return 0, err
		}
		if err := writeResults(*outFile, []*outcome{out}); err != nil {
			return 0, err
		}
		fmt.Fprintln(stdout, sp.resultLine(out))
		return out.Failed, nil
	}

	var all []*outcome
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			p.workload, p.trace = w, traced
			out, err := runOne(ctx, p, sp, stdout)
			if err != nil {
				return 0, err
			}
			failed += out.Failed
			all = append(all, out)
		}
	}
	if *outFile == "" {
		*outFile = filepath.Join(outDir, "results.json")
	}
	if err := writeResults(*outFile, all); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "\nresults written to %s; failed operations: %d\n", *outFile, failed)
	return failed, nil
}

// runOne runs a workload and prints its metrics by name, with units.
func runOne(ctx context.Context, p params, sp *spec, w io.Writer) (*outcome, error) {
	runner, ok := runners[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", p.workload, workloadNames)
	}
	out, err := runner(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	defs := sp.EndToEnd
	kind := "untraced, end-to-end"
	if p.trace {
		defs, kind = sp.PerLayer, "traced, per-layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d, %.1f s ==\n", p.workload, kind, p.seed, p.window.Seconds())
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok && !p.trace {
			return nil, fmt.Errorf("%s did not measure %s", p.workload, d.Name)
		}
		if ok { // a traced run lists the layers its workload exercises
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d (error_frac %.6f)\n", out.Attempted, out.Failed, ratio(float64(out.Failed), float64(out.Attempted)))
	for _, n := range out.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	if unknown := sp.unknown(out.Metrics); len(unknown) > 0 {
		return nil, fmt.Errorf("%s measured metrics the spec does not define: %v", p.workload, unknown)
	}
	return out, nil
}

// writeResults saves outcomes for the compare subcommand.
func writeResults(path string, outs []*outcome) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(outs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
