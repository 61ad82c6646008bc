package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/core"
	"txmldb/internal/diff"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// ingestState is a fresh durable store and the XML stream to write into it.
type ingestState struct {
	dir string
	cfg core.Config
	db  *core.DB
	gen *tdocgen.Generator
	xml [][]string // xml[doc][version]
	ids []model.DocID
}

func (st *ingestState) close() {
	if st == nil {
		return
	}
	_ = st.db.Close() // the directory is removed next; nothing to recover
	_ = os.RemoveAll(st.dir)
}

// setupIngest generates the stream (balanced inserts and deletes, so
// documents keep their size however long the run is) and opens the store:
// one real fsync per commit (no group window), a background checkpoint
// every CheckpointEvery commits.
func setupIngest(p params) (*ingestState, error) {
	versions := max(2*int(float64(p.sz.OpsPerSecond[ingestDurable])*p.window.Seconds())/p.sz.IngestDocs, 8)
	st := &ingestState{
		cfg: core.Config{
			Store:      store.Config{SnapshotEvery: p.sz.SnapshotEvery},
			Checkpoint: checkpoint.Config{EveryCommits: p.sz.CheckpointEvery},
		},
		gen: tdocgen.New(tdocgen.Config{
			Seed: p.seed, Docs: p.sz.IngestDocs, InitialElems: p.sz.IngestElems, Versions: versions,
			OpsPerVersion: p.sz.OpsPerVersion, Vocabulary: p.sz.Vocabulary, Start: corpusStart,
			UpdateWeight: 5, InsertWeight: 1, DeleteWeight: 1,
		}),
		xml: make([][]string, p.sz.IngestDocs),
		ids: make([]model.DocID, p.sz.IngestDocs),
	}
	for d := range st.xml {
		for _, v := range st.gen.History(d) {
			st.xml[d] = append(st.xml[d], v.Tree.String())
		}
	}
	var err error
	if st.dir, err = p.scratchDir(); err != nil {
		return nil, err
	}
	if st.db, err = core.OpenDurable(st.cfg, st.dir); err != nil {
		return nil, err
	}
	return st, nil
}

// ingestOps is the stream in commit order: version v of every document
// before version v+1 of any.
func ingestOps(st *ingestState) []op {
	var ops []op
	for v := range st.xml[0] {
		for d := range st.xml {
			ops = append(ops, op{Kind: opWrite, Doc: d, Ver: v})
		}
	}
	return ops
}

func (st *ingestState) write(o op) error {
	var err error
	if o.Ver == 0 {
		st.ids[o.Doc], err = st.db.PutXML(st.gen.URL(o.Doc), strings.NewReader(st.xml[o.Doc][0]), stampOf(0))
	} else {
		_, _, err = st.db.UpdateXML(st.ids[o.Doc], strings.NewReader(st.xml[o.Doc][o.Ver]), stampOf(o.Ver))
	}
	return err
}

// ingestProbes is the traced run's layer calls: the parse, the diff against
// the previous version and the index maintenance of every commit, repeated
// outside the engine on the same stream (a shadow tree per document and a
// standalone version index).
type ingestProbes struct {
	tr      *tracer
	shadow  []*xmltree.Node
	nextXID model.XID
	index   *fti.VersionIndex
	outside time.Duration // time in the three probes
	update  time.Duration // time in the engine's PutXML/UpdateXML
}

// write is one traced commit: the engine's own call, then the shadow.
func (pr *ingestProbes) write(st *ingestState, o op) error {
	pr.tr.nextOp()
	var err error
	pr.update += pr.tr.do("op", func() { pr.tr.do("core.update", func() { err = st.write(o) }) })
	if err != nil {
		return err
	}
	pr.tr.do("probes", func() { err = pr.follow(st, o, pr.tr) })
	return err
}

// follow applies commit o to the shadow stream, under tr's spans.
func (pr *ingestProbes) follow(st *ingestState, o op, tr *tracer) error {
	alloc := func() model.XID { pr.nextXID++; return pr.nextXID }
	var tree *xmltree.Node
	var script *diff.Script
	var err error
	pr.outside += tr.do("xmltree.parse", func() { tree, err = xmltree.ParseString(st.xml[o.Doc][o.Ver]) })
	if err != nil {
		return err
	}
	if old := pr.shadow[o.Doc]; old == nil {
		diff.AssignXIDs(tree, alloc, stampOf(0))
	} else {
		pr.outside += tr.do("diff.compute", func() {
			script, tree, err = diff.Diff(old, tree, diff.Options{
				Alloc: alloc, Stamp: stampOf(o.Ver), FromStamp: stampOf(o.Ver - 1),
				FromVer: model.VersionNo(o.Ver), ToVer: model.VersionNo(o.Ver + 1),
			})
		})
		if err != nil {
			return err
		}
	}
	pr.shadow[o.Doc] = tree
	pr.outside += tr.do("fti.add", func() {
		err = pr.index.AddVersion(model.DocID(o.Doc+1), tree, script, stampOf(o.Ver))
	})
	return err
}

// runIngest is the ingest-durable workload.
func runIngest(ctx context.Context, p params) (*outcome, error) {
	st, setupS, err := repeatSetup(p.sz.SetupRepeats,
		func() (*ingestState, error) { return setupIngest(p) }, (*ingestState).close)
	defer st.close()
	if err != nil {
		return nil, err
	}
	ops := ingestOps(st)
	out := newOutcome(p, ops)
	l := &loop{ops: ops, seed: p.seed, once: true}
	l.exec = func(_ int, o op) (string, error) { return "", st.write(o) }

	var pr *ingestProbes
	var baseRate float64
	if p.trace {
		// The first third of the traced run's fixed op count goes in
		// untraced, as the base of trace.overhead; the store just carries on
		// and the shadow stream catches up untimed.
		n := p.listLen()
		l.run(0, n/3)
		baseRate = ratio(float64(len(l.samples)), l.elapsed.Seconds())
		pr = &ingestProbes{tr: newTracer(), shadow: make([]*xmltree.Node, p.sz.IngestDocs), index: fti.NewVersionIndex()}
		for _, o := range ops[:n/3] {
			if err := pr.follow(st, o, nil); err != nil {
				return nil, err
			}
		}
		l.samples = nil
		l.exec = func(_ int, o op) (string, error) { return "", pr.write(st, o) }
		l.run(0, n-n/3)
	} else {
		l.timed(p.window)
		if l.pos == len(ops) {
			out.note("the generated stream ran out %.1f s before the window ended", (p.window - l.elapsed).Seconds())
		}
	}
	wal, _ := st.db.WALStats()
	ck, _ := st.db.CheckpointStats()
	acked := l.attempted - l.failed

	// Close, reopen, and read everything acknowledged back.
	stored := st.db.Store().Pages().BytesStored()
	reopenStart := time.Now()
	if err := st.db.Close(); err != nil {
		return nil, err
	}
	if st.db, err = core.OpenDurable(st.cfg, st.dir); err != nil {
		return nil, fmt.Errorf("reopening: %w", err)
	}
	first, _, err := st.db.Current(st.ids[0])
	reopenS := time.Since(reopenStart).Seconds()
	lastOfDoc0 := (acked - 1) / p.sz.IngestDocs
	if err != nil {
		l.fail("first read after reopen: %v", err)
	} else if first.String() != st.xml[0][lastOfDoc0] {
		l.fail("first read after reopen is not the last acknowledged version")
	}
	userBytes, currentBytes := verifyIngest(st, ops, acked, l)

	if !p.trace {
		out.endToEnd(summarize(l.samples, min(p.window, l.elapsed)), setupS)
	} else {
		commits := float64(wal.Commits)
		layers := pr.tr.byName()
		m := out.Metrics
		m["xmltree.parse_us"] = layers["xmltree.parse"].meanUs()
		m["diff.compute_us"] = layers["diff.compute"].meanUs()
		m["fti.add_us"] = layers["fti.add"].meanUs()
		m["core.update_us"] = layers["core.update"].meanUs()
		m["core.commit_self_us"] = ratio(micros(pr.update-pr.outside), float64(layers["core.update"].count))
		m["pagestore.wal_bytes_per_commit"] = ratio(float64(wal.BytesAppended), commits)
		m["pagestore.syncs_per_commit"] = ratio(float64(wal.Syncs), commits)
		m["pagestore.write_amp"] = ratio(float64(wal.BytesAppended), float64(userBytes))
		m["store.space_amp"] = ratio(float64(stored), float64(currentBytes))
		m["checkpoint.runs"] = float64(ck.Runs)
		m["checkpoint.last_run_ms"] = millis(ck.LastDuration)
		m["checkpoint.segments_deleted"] = float64(ck.SegmentsDeleted)
		rep := st.db.OpenReport()
		m["checkpoint.replayed_commits"] = float64(rep.ReplayedCommits)
		m["checkpoint.replay_ms"] = millis(rep.ReplayDuration)
		m["checkpoint.reindex_ms"] = millis(rep.IndexDuration)
		m["core.reopen_s"] = reopenS
		traceMetrics(out, pr.tr, ratio(float64(len(l.samples)), l.elapsed.Seconds()), baseRate)
		if err := pr.tr.write(p.tracePath()); err != nil {
			return nil, err
		}
	}
	out.note("%d commits acknowledged; reopen %.3f s (%s)", acked, reopenS, st.db.OpenReport())
	out.count(l)
	return out, nil
}

// verifyIngest checks that every acknowledged version reads back
// byte-identical after the reopen. It returns the bytes of XML the user
// wrote and the bytes of the current versions.
func verifyIngest(st *ingestState, ops []op, acked int, l *loop) (userBytes, currentBytes int64) {
	last := make([]int, len(st.xml)) // versions acknowledged per document
	for _, o := range ops[:acked] {
		last[o.Doc] = o.Ver + 1
		userBytes += int64(len(st.xml[o.Doc][o.Ver]))
	}
	for d, n := range last {
		if n == 0 {
			continue
		}
		currentBytes += int64(len(st.xml[d][n-1]))
		hist, err := st.db.DocHistory(st.ids[d], model.Always)
		if err != nil {
			l.fail("history of document %d after reopen: %v", d, err)
			continue
		}
		if len(hist) != n {
			l.fail("document %d has %d versions after reopen, %d were acknowledged", d, len(hist), n)
			continue
		}
		for _, vt := range hist {
			if vt.Root.String() != st.xml[d][vt.Info.Ver-1] {
				l.fail("document %d version %d differs after reopen", d, vt.Info.Ver)
			}
		}
	}
	return userBytes, currentBytes
}
