package main

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	sz := smokeSizes
	for _, w := range []string{snapshotCold, snapshotHot, indexOnly, servedMixed} {
		list := func(seed int64) string { return digest(genOps(sz, sz.readCorpus(seed, 0), w, seed, 200)) }
		if a, b := list(7), list(7); a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a, b := list(7), list(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w, a)
		}
	}
	a := genOps(sz, sz.readCorpus(7, 0), snapshotCold, 7, 200)
	b := genOps(sz, sz.readCorpus(7, 0), snapshotHot, 7, 200)
	if digest(a) == digest(b) {
		t.Error("two workloads drew the same op list from one seed")
	}
}

func TestHotSelectsStayInsideTheHotSet(t *testing.T) {
	sz := fullSizes
	hot := make(map[string]bool)
	for _, o := range sz.hotSet(sz.readCorpus(1, 0)) {
		hot[o.Query] = true
	}
	if len(hot) != sz.HotDocs*sz.HotVersions {
		t.Fatalf("hot set has %d members, want %d", len(hot), sz.HotDocs*sz.HotVersions)
	}
	for _, o := range genOps(sz, sz.readCorpus(1, 0), snapshotHot, 1, 2000) {
		if !hot[o.Query] {
			t.Fatalf("hot op outside the hot set: %s", o.Query)
		}
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestSummarizeReportsMediansOverSlices(t *testing.T) {
	// 1 ms ops back to back for 5 s, except a stalled fourth second where
	// every op takes 10 ms: the medians over slices do not see the stall.
	var samples []sample
	for now := time.Duration(0); now < 5*time.Second; {
		lat := time.Millisecond
		if now >= 3*time.Second && now < 4*time.Second {
			lat = 10 * time.Millisecond
		}
		now += lat
		samples = append(samples, sample{end: now, lat: lat})
	}
	s := summarize(samples, 5*time.Second)
	if s.p50ms != 1 || s.p95ms != 1 {
		t.Errorf("p50 %g ms, p95 %g ms, want 1 and 1", s.p50ms, s.p95ms)
	}
	if s.opsPerS < 990 || s.opsPerS > 1010 {
		t.Errorf("ops_per_s %g, want about 1000", s.opsPerS)
	}
	if s.p99ms != 10 {
		t.Errorf("whole-run p99 %g ms, want the stall's 10", s.p99ms)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1: 10..50 is covered once
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 3, Start: 62, End: 66},
	}
	want := []int64{50, 20, 30, 6, 4}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestTracerNestsSpansAndNilRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	tr.do("op", func() { tr.do("layer", func() {}) })
	tr.nextOp()
	tr.do("op", func() {})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[1].Op != 1 || tr.spans[2].Parent != -1 || tr.spans[2].Op != 2 {
		t.Errorf("spans %+v", tr.spans)
	}
	if by := tr.byName(); by["op"].count != 2 || by["layer"].count != 1 {
		t.Errorf("byName %+v", by)
	}
	var none *tracer
	ran := false
	none.nextOp()
	none.do("op", func() { ran = true })
	if !ran {
		t.Error("a nil tracer did not run the function")
	}
}

func TestCompareAppliesEachMetricsBoundInItsDirection(t *testing.T) {
	sp := &spec{
		Workloads: []nameWhy{{Name: "w"}, {Name: "only-in-a"}},
		EndToEnd: []metricDef{
			{Name: "ops_per_s", Better: "higher", Bound: 0.10},
			{Name: "p50_ms", Better: "lower", Bound: 0.10},
		},
	}
	side := func(ops, p50 float64) map[string]map[string]float64 {
		return map[string]map[string]float64{"w": {"ops_per_s": ops, "p50_ms": p50}}
	}
	for _, c := range []struct {
		name     string
		ops, p50 float64
		exceeded int
	}{
		{"equal", 100, 1, 0},
		{"within both bounds", 91, 1.09, 0},
		{"better on both", 150, 0.5, 0},
		{"throughput down 11%", 89, 1, 1},
		{"latency up 11%", 100, 1.11, 1},
		{"both worse", 50, 2, 2},
	} {
		a := side(100, 1)
		a["only-in-a"] = map[string]float64{"ops_per_s": 1, "p50_ms": 1}
		rows, exceeded := compareRuns(sp, a, side(c.ops, c.p50))
		if exceeded != c.exceeded || len(rows) != 2 {
			t.Errorf("%s: %d rows, %d exceeded, want 2 rows, %d exceeded", c.name, len(rows), exceeded, c.exceeded)
		}
	}
}

func TestSpecNamesTheWorkloadsAndSetupTime(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("spec has %d workloads, the program %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the spec, %q in the program", i, w.Name, workloadNames[i])
		}
		if runners[w.Name] == nil || fullSizes.OpsPerSecond[w.Name] == 0 {
			t.Errorf("workload %q has no runner or no nominal rate", w.Name)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("the spec has no setup_s")
	}
	if got := sp.unknown(map[string]float64{"ops_per_s": 1, "no.such_metric": 1}); len(got) != 1 || got[0] != "no.such_metric" {
		t.Errorf("unknown() = %v", got)
	}
}

func TestLoopFailsWrongChangedAndErroringResults(t *testing.T) {
	ops := make([]op, 64)
	for i := range ops {
		ops[i] = op{Kind: opSelect, Doc: i}
	}
	answer := func(o op) (string, error) { return fmt.Sprint("doc ", o.Doc), nil }
	newLoop := func(exec func(i int, o op) (string, error)) *loop {
		l := &loop{ops: ops, seed: 1, exec: exec}
		l.run(0, 2*len(ops)) // two passes: every sampled entry is seen twice
		return l
	}

	l := newLoop(func(_ int, o op) (string, error) { return answer(o) })
	l.verify("the reference", answer)
	if l.attempted != 128 || l.failed != 0 || len(l.got) == 0 {
		t.Fatalf("clean run: attempted %d, failed %d, sampled %d", l.attempted, l.failed, len(l.got))
	}
	sample := len(l.got)

	l.verify("a wrong reference", func(o op) (string, error) { return "something else", nil })
	if l.failed != sample {
		t.Errorf("a reference that disagrees everywhere failed %d of %d sampled ops", l.failed, sample)
	}

	calls := 0
	l = newLoop(func(_ int, o op) (string, error) { calls++; return fmt.Sprint(calls), nil })
	if l.failed != sample {
		t.Errorf("results that change between executions failed %d ops, want %d", l.failed, sample)
	}

	l = newLoop(func(i int, o op) (string, error) {
		if i == 5 {
			return "", errors.New("refused")
		}
		return answer(o)
	})
	if l.failed != 2 || len(l.samples) != 126 {
		t.Errorf("an op that errs twice: failed %d, timed samples %d", l.failed, len(l.samples))
	}
}
