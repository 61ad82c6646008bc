package main

import (
	"context"
	"strings"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/query"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
)

// counters are the engine's exported I/O and version-cache counters, summed
// over the intervals handed to add.
type counters struct {
	io    pagestore.IOStats
	cache vcache.Stats
}

func snapCounters(e engine) counters {
	c := counters{io: e.IOStats()}
	c.cache, _ = e.CacheStats()
	return c
}

func (c *counters) add(before, after counters) {
	c.io = c.io.Add(after.io.Sub(before.io))
	c.cache.Lookups += after.cache.Lookups - before.cache.Lookups
	c.cache.Hits += after.cache.Hits - before.cache.Hits
	c.cache.Evictions += after.cache.Evictions - before.cache.Evictions
	c.cache.Invalidations += after.cache.Invalidations - before.cache.Invalidations
}

func (c *counters) report(m map[string]float64, ops float64) {
	m["pagestore.extent_reads_per_op"] = ratio(float64(c.io.ExtentRead), ops)
	m["pagestore.seeks_per_op"] = ratio(float64(c.io.Seeks), ops)
	m["pagestore.pool_hit_ratio"] = ratio(float64(c.io.CacheHits), float64(c.io.CacheHits+c.io.CacheMisses))
	m["vcache.hit_ratio"] = ratio(float64(c.cache.Hits), float64(c.cache.Lookups))
	m["vcache.evictions"] = float64(c.cache.Evictions)
	m["vcache.invalidations"] = float64(c.cache.Invalidations)
}

// readProbes is the traced run of a single-engine read workload. Each op
// runs inside an "op" span whose children are the layer calls the op is
// made of; afterwards, under a sibling "probes" span, the benchmark calls
// single layers' public functions on the same inputs. Engine counters are
// diffed around the op only, so probes do not count.
type readProbes struct {
	st *readState
	tr *tracer

	ops             int
	c               counters
	opTime          time.Duration
	planRuns        int
	planOverhead    time.Duration // plan.run minus the op's operator recipe called directly, cache-hit ops
	reconstructions int           // as the plan executor counts them
	missReconstruct time.Duration // store.reconstruct probes of ops that missed the version cache
	reconstructs    int
	deltas          int
	ftiLookups      int
	ftiPostings     int
	patternPostings int
	patternMatches  int
	tidxLookups     int
}

func (pr *readProbes) exec(ctx context.Context, o op) (string, error) {
	db := pr.st.db
	pr.tr.nextOp()
	pr.ops++
	before := snapCounters(db)
	var (
		out     string
		err     error
		planRun time.Duration
	)
	pr.opTime += pr.tr.do("op", func() {
		if o.Kind != opSelect && o.Kind != opAggregate {
			out, err = execOp(ctx, db, pr.st.ids, o, pr.tr)
			return
		}
		// QueryContext taken apart: parse, run pinned to the commit
		// horizon, serialize.
		var q *query.Query
		var res *plan.Result
		pr.tr.do("query.parse", func() { q, err = query.Parse(o.Query) })
		if err != nil {
			return
		}
		planRun = pr.tr.do("plan.run", func() { res, err = plan.RunContext(store.WithEpoch(ctx, db.Epoch()), db, q) })
		if err != nil {
			return
		}
		pr.reconstructions += res.Metrics.Reconstructions
		pr.tr.do("xmltree.serialize", func() { out = res.Doc().String() })
	})
	after := snapCounters(db)
	pr.c.add(before, after)
	if err != nil {
		return "", err
	}
	missed := after.cache.Lookups-before.cache.Lookups > after.cache.Hits-before.cache.Hits
	pr.tr.do("probes", func() { err = pr.probe(ctx, o, out, planRun, missed) })
	return out, err
}

// lookup times one FTI lookup and counts its postings.
func (pr *readProbes) lookup(word string, at *model.Time) int {
	ix := pr.st.db.FTI()
	n := 0
	pr.tr.do("fti.lookup", func() {
		if at != nil {
			n = len(ix.LookupT(word, *at))
		} else {
			n = len(ix.LookupH(word))
		}
	})
	pr.ftiLookups++
	pr.ftiPostings += n
	return n
}

func (pr *readProbes) probe(ctx context.Context, o op, out string, planRun time.Duration, missed bool) error {
	db := pr.st.db
	switch o.Kind {
	case opSelect, opAggregate:
		at := stampOf(o.Ver)
		var ms []pattern.Match
		var err error
		recipe := pr.tr.do("pattern.scan", func() { ms, err = db.ScanTContext(ctx, restaurantPattern, at) })
		if err != nil {
			return err
		}
		pr.patternMatches += len(ms)
		pr.patternPostings += pr.lookup("restaurant", &at)
		if o.Kind == opSelect {
			id, ver := pr.st.ids[o.Doc], model.VersionNo(o.Ver+1)
			fromStore := pr.tr.do("store.reconstruct", func() { _, err = db.Store().ReconstructVersionContext(ctx, id, ver) })
			if err != nil {
				return err
			}
			fromCache := pr.tr.do("vcache.get", func() { _, err = db.ReconstructVersionContext(ctx, id, ver) })
			if err != nil {
				return err
			}
			infos, err := db.Versions(id)
			if err != nil {
				return err
			}
			pr.reconstructs++
			for v := o.Ver; infos[v].Snapshot.Zero(); v++ {
				pr.deltas++
			}
			recipe += fromCache
			if missed {
				pr.missReconstruct += fromStore
			}
		}
		// On a miss the executor's materialization may have replayed from a
		// cached ancestor, which no outside call reproduces; planning
		// overhead is taken over the ops whose recipe is known.
		if !missed {
			pr.planRuns++
			pr.planOverhead += planRun - recipe
		}
	case opHistory:
		for _, w := range []string{"restaurant", "info", "chef", o.Word} {
			pr.patternPostings += pr.lookup(w, nil)
		}
		pr.patternMatches += strings.Count(out, "\n")
	case opNavigate:
		pr.tidxLookups += 2 * (strings.Count(out, "\n") - 2) // CreTime and DelTime per element line
	}
	return nil
}

// report fills in the per-layer metrics. passRate and baseRate are the
// traced pass's and the preceding untraced pass's ops per second.
func (pr *readProbes) report(out *outcome, passRate, baseRate float64) {
	layers := pr.tr.byName()
	m := out.Metrics
	ops := float64(pr.ops)
	m["query.parse_us"] = layers["query.parse"].meanUs()
	m["plan.run_us"] = layers["plan.run"].meanUs()
	m["plan.overhead_us"] = ratio(micros(pr.planOverhead), float64(pr.planRuns))
	m["plan.reconstructions_per_op"] = ratio(float64(pr.reconstructions), ops)
	m["xmltree.serialize_us"] = layers["xmltree.serialize"].meanUs()
	m["store.reconstruct_us"] = layers["store.reconstruct"].meanUs()
	m["store.reconstruct_share"] = ratio(float64(pr.missReconstruct), float64(pr.opTime))
	m["store.deltas_per_reconstruct"] = ratio(float64(pr.deltas), float64(pr.reconstructs))
	pr.c.report(m, ops)
	m["fti.lookup_us"] = layers["fti.lookup"].meanUs()
	m["fti.postings_per_lookup"] = ratio(float64(pr.ftiPostings), float64(pr.ftiLookups))
	m["pattern.scan_us"] = layers["pattern.scan"].meanUs()
	m["pattern.postings_per_match"] = ratio(float64(pr.patternPostings), float64(pr.patternMatches))
	m["tidx.lookup_us"] = ratio(micros(layers["tidx.lookup"].total), float64(pr.tidxLookups))
	traceMetrics(out, pr.tr, passRate, baseRate)
}

// traceMetrics reports the trace itself: its size, the harness's own time
// per op (the op span's self time) and what tracing cost.
func traceMetrics(out *outcome, tr *tracer, passRate, baseRate float64) {
	layers := tr.byName()
	m := out.Metrics
	m["trace.ops"] = float64(layers["op"].count)
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.op_self_us"] = ratio(micros(layers["op"].self), float64(layers["op"].count))
	m["trace.base_ops_per_s"] = baseRate
	m["trace.pass_ops_per_s"] = passRate
	m["trace.overhead"] = ratio(baseRate, passRate)
	out.note("trace.overhead = untraced pass %.1f ops/s over traced pass (spans and probes) %.1f ops/s", baseRate, passRate)
}
