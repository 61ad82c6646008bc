package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// engine is the surface the read workloads drive; *core.DB and
// *shard.Router both have it.
type engine interface {
	QueryContext(ctx context.Context, src string) (*plan.Result, error)
	TPatternScan(p *pattern.PNode, t model.Time) ([]model.TEID, error)
	TPatternScanAll(p *pattern.PNode) ([]model.TEID, error)
	CreTime(eid model.EID) (model.Time, error)
	DelTime(eid model.EID) (model.Time, error)
	PreviousTS(teid model.TEID) (store.VersionInfo, error)
	CurrentTS(eid model.EID) (store.VersionInfo, error)
	IOStats() pagestore.IOStats
	CacheStats() (vcache.Stats, bool)
}

// engineConfig is the measured engine's configuration: version cache on,
// a small buffer pool, the worker pool at GOMAXPROCS.
func (sz sizes) engineConfig() core.Config {
	return core.Config{
		Store: store.Config{
			SnapshotEvery: sz.SnapshotEvery,
			Pages:         pagestore.Config{BufferPages: sz.BufferPages},
		},
		Cache: vcache.Config{MaxBytes: sz.CacheBytes},
	}
}

// referenceConfig is the oracle's: same storage layout, no caches, the
// inline sequential path every parallel run must reproduce byte for byte.
func (sz sizes) referenceConfig() core.Config {
	return core.Config{Store: store.Config{SnapshotEvery: sz.SnapshotEvery}, Workers: 1}
}

// execOp runs one read op on an engine and returns its canonical result:
// the result document's XML for query-language ops, one line per TEID for
// the operator ops. ids maps corpus document indexes to DocIDs. A nil
// tracer records nothing; a live one gets the op's layer calls as spans.
func execOp(ctx context.Context, e engine, ids []model.DocID, o op, tr *tracer) (string, error) {
	switch o.Kind {
	case opSelect, opAggregate:
		res, err := e.QueryContext(ctx, o.Query)
		if err != nil {
			return "", err
		}
		return res.Doc().String(), nil
	case opHistory:
		var teids []model.TEID
		var err error
		tr.do("pattern.scan", func() { teids, err = e.TPatternScanAll(chefPattern(o.Word)) })
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, t := range teids {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		return b.String(), nil
	case opNavigate:
		return navigate(e, ids[o.Doc], stampOf(o.Ver), tr)
	}
	return "", fmt.Errorf("op kind %d is not a read", o.Kind)
}

// navigate answers "which restaurants did doc list at t, since and until
// when, and which document versions surround t" from the indexes alone.
func navigate(e engine, doc model.DocID, t model.Time, tr *tracer) (string, error) {
	var all []model.TEID
	var err error
	tr.do("pattern.scan", func() { all, err = e.TPatternScan(namePattern, t) })
	if err != nil {
		return "", err
	}
	var b strings.Builder
	tr.do("tidx.lookup", func() {
		for _, teid := range all {
			if teid.E.Doc != doc {
				continue
			}
			var cre, del model.Time
			if cre, err = e.CreTime(teid.E); err != nil {
				return
			}
			if del, err = e.DelTime(teid.E); err != nil {
				return
			}
			fmt.Fprintf(&b, "%s %s %s\n", teid, cre, del)
		}
	})
	if err != nil {
		return "", err
	}
	tr.do("store.versions", func() {
		at := model.TEID{E: model.EID{Doc: doc}, T: t}
		if prev, perr := e.PreviousTS(at); perr == nil {
			fmt.Fprintf(&b, "previous %d %s\n", prev.Ver, prev.Stamp)
		} else {
			b.WriteString("previous none\n") // t lies in the first version
		}
		var cur store.VersionInfo
		if cur, err = e.CurrentTS(at.E); err == nil {
			fmt.Fprintf(&b, "current %d %s\n", cur.Ver, cur.Stamp)
		}
	})
	return b.String(), err
}

// generatorRows is what a select op must return according to the
// generator's own tree of that version, independent of any engine: the
// version's restaurants, as sorted XML (a query orders its rows by element
// identity, not document position).
func generatorRows(g *tdocgen.Generator, o op) string {
	var rows []string
	for _, r := range g.History(o.Doc)[o.Ver].Tree.ChildElements("restaurant") {
		rows = append(rows, r.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// resultRows renders a select result the way generatorRows does.
func resultRows(result string) (string, error) {
	doc, err := xmltree.ParseString(result)
	if err != nil {
		return "", err
	}
	var rows []string
	for _, res := range doc.ChildElements("result") {
		for _, r := range res.ChildElements("restaurant") {
			rows = append(rows, r.String())
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n"), nil
}

// readState is a loaded single-engine read workload.
type readState struct {
	gen *tdocgen.Generator
	db  *core.DB
	ids []model.DocID
}

// setupRead generates corpus R, loads it and, for the hot workload, reads
// every hot-set member once so the timed phase starts with a warm cache.
func setupRead(ctx context.Context, sz sizes, workload string, seed int64) (*readState, error) {
	st := &readState{gen: sz.readCorpus(seed, 0), db: core.Open(sz.engineConfig())}
	var err error
	if st.ids, err = st.gen.Load(st.db); err != nil {
		return nil, err
	}
	if workload == snapshotHot {
		for _, o := range sz.hotSet(st.gen) {
			if _, err := execOp(ctx, st.db, st.ids, o, nil); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// runRead is the snapshot-cold, snapshot-hot and index-only workloads.
func runRead(ctx context.Context, p params) (*outcome, error) {
	st, setupS, err := repeatSetup(p.sz.SetupRepeats,
		func() (*readState, error) { return setupRead(ctx, p.sz, p.workload, p.seed) },
		func(*readState) {})
	if err != nil {
		return nil, err
	}
	ops := genOps(p.sz, st.gen, p.workload, p.seed, p.listLen())
	out := newOutcome(p, ops)
	l := &loop{ops: ops, seed: p.seed}
	l.exec = func(_ int, o op) (string, error) { return execOp(ctx, st.db, st.ids, o, nil) }

	if p.trace {
		// An untraced pass over the list gives the base of trace.overhead;
		// the traced pass then repeats the same list with one client.
		l.run(0, len(ops))
		base := ratio(float64(len(l.samples)), l.elapsed.Seconds())
		tr := newTracer()
		pr := &readProbes{st: st, tr: tr}
		l.samples, l.pos = nil, 0
		l.exec = func(_ int, o op) (string, error) { return pr.exec(ctx, o) }
		l.run(0, len(ops))
		pr.report(out, ratio(float64(len(l.samples)), l.elapsed.Seconds()), base)
		if err := tr.write(p.tracePath()); err != nil {
			return nil, err
		}
	} else {
		io0 := st.db.IOStats()
		l.timed(p.window)
		if reads := st.db.IOStats().Sub(io0).ExtentRead; p.workload == indexOnly && reads != 0 {
			l.fail("index-only read %d extents, want 0", reads)
		}
		out.endToEnd(summarize(l.samples, p.window), setupS)
	}

	ref := core.Open(p.sz.referenceConfig())
	refIDs, err := st.gen.Load(ref)
	if err != nil {
		return nil, err
	}
	l.verify("the reference engine", func(o op) (string, error) {
		want, err := execOp(ctx, ref, refIDs, o, nil)
		if err != nil || o.Kind != opSelect {
			return want, err
		}
		// The reference itself must agree with the generator's own tree.
		if rows, err := resultRows(want); err != nil || rows != generatorRows(st.gen, o) {
			return "", fmt.Errorf("the reference differs from the generator's version %d of document %d", o.Ver+1, o.Doc)
		}
		return want, nil
	})
	out.count(l)
	return out, nil
}
