package oracle

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/resilience"
	"txmldb/internal/shard"
	"txmldb/internal/store"
)

// FuzzOracle plays one history per input. The first two bytes pick the
// cell (decodeCell), the third seeds tdocgen, and every further byte b is an operation
// op = b&15 % 10 on slot s = b>>4&3:
//
//	op 0..3  write s: update it, or (re-)create it
//	op 4     delete s
//	op 5     vacuum, keeping the newest 1+b>>6 versions
//	op 6     checkpoint (segmented cells)
//	op 7     injected fault (injected cells): odd s fails the next
//	         write's commit, even s takes the device down for a round
//	         of queries
//	op 8     crash: cut the log at the fraction next/255 of its
//	         uncheckpointed tail and reopen (single durable engine), or
//	         restart (sharded segmented cells)
//	op 9     compare with the reference, check the laws, pin an epoch
//	         (the first six of them)
//
// Every history ends with a comparison. The fuzzer's corpus is
// testdata/fuzz/FuzzOracle: the failed-commit fixtures and the histories
// it minimizes. The hand-written histories below, one test per axis of the
// matrix, are the ones plain go test replays besides.
func FuzzOracle(f *testing.F) {
	f.Fuzz(play)
}

// replay plays hand-written histories, each one as FuzzOracle would.
func replay(t *testing.T, histories ...[]byte) {
	for _, b := range histories {
		play(t, b)
	}
}

// TestCacheCells: memory, one engine, cache on: warm reads, then updates
// the cache must not mask, a delete and a re-create.
func TestCacheCells(t *testing.T) {
	replay(t, []byte{0x01, 0x00, 7, 0x00, 0x10, 0x20, 0x09, 0x00, 0x10, 0x09, 0x14, 0x00, 0x19, 0x10, 0x00, 0x39, 0x30, 0x00, 0x29})
}

// TestSnapshotCells: the snapshot axis — no snapshot but the current
// version's (cache on), one per version (cache off) and one every 16th
// (cache on, past two intervals so walks start on both sides of a
// snapshot) — with vacuums re-interspersing snapshots among survivors.
func TestSnapshotCells(t *testing.T) {
	replay(t,
		[]byte{0x01, 0x08, 31, 0x00, 0x10, 0x00, 0x10, 0x00, 0x09, 0x00, 0x10, 0x00, 0x09, 0x45, 0x00, 0x09},
		[]byte{0x00, 0x10, 37, 0x00, 0x10, 0x20, 0x00, 0x10, 0x09, 0x00, 0x85, 0x10, 0x09},
		[]byte{0x01, 0x18, 41, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x10, 0x00, 0x00, 0xc5, 0x00, 0x09},
	)
}

// TestWorkerCells: memory, 8 workers, cache off: long histories for the
// history walk. 2 and 4 workers run in the shard, crash and fault cells.
func TestWorkerCells(t *testing.T) {
	replay(t, []byte{0x06, 0x00, 3, 0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x09, 0x00, 0x20})
}

// TestShardCells: memory routers of 8, 4 and 2 shards against the single
// reference engine.
func TestShardCells(t *testing.T) {
	replay(t,
		// 2 workers, 8 shards, cache on, vacuum.
		[]byte{0x1b, 0x00, 5, 0x00, 0x10, 0x20, 0x30, 0x00, 0x10, 0x20, 0x30, 0x09, 0x00, 0x10, 0x45, 0x00, 0x29},
		// 4 workers, 4 shards: deletes and re-creates across shards.
		[]byte{0x14, 0x00, 9, 0x00, 0x10, 0x20, 0x30, 0x00, 0x04, 0x14, 0x09, 0x00, 0x10, 0x20, 0x09, 0x34, 0x30},
		// 2 shards, 1 worker.
		[]byte{0x08, 0x00, 11, 0x00, 0x10, 0x20, 0x30, 0x10, 0x20, 0x09, 0x00, 0x30},
	)
}

// TestCrashCells: crash cuts and reopens over the segmented log.
func TestCrashCells(t *testing.T) {
	replay(t,
		// one engine, cache on: checkpoint, crashes in the tail.
		[]byte{0x03, 0x01, 13, 0x00, 0x10, 0x00, 0x10, 0x06, 0x00, 0x10, 0x20, 0x08, 0x80, 0x00, 0x10, 0x08, 0xff, 0x09, 0x00},
		// a 1 ms group window, 4 workers: crash, vacuum.
		[]byte{0x04, 0x05, 17, 0x00, 0x10, 0x00, 0x10, 0x20, 0x09, 0x00, 0x10, 0x08, 0x40, 0x00, 0x15, 0x00},
		// 2 shards, cache on: checkpoint and restart.
		[]byte{0x09, 0x01, 19, 0x00, 0x10, 0x20, 0x30, 0x06, 0x00, 0x10, 0x08, 0x00, 0x09, 0x00, 0x20},
	)
}

// TestFaultCells: injected faults over the segmented log.
func TestFaultCells(t *testing.T) {
	replay(t,
		// one engine, cache on: outages between reads.
		[]byte{0x03, 0x02, 23, 0x00, 0x10, 0x00, 0x10, 0x09, 0x07, 0x00, 0x10, 0x07, 0x09, 0x00},
		// 4 shards, group window: an outage, a failed commit.
		[]byte{0x12, 0x06, 29, 0x00, 0x10, 0x20, 0x30, 0x07, 0x00, 0x17, 0x10, 0x09, 0x20},
	)
}

// TestIndexCells: one single durable engine per FTI alternative of §7.2
// (versions, deltas, both), each history with deletes before and after a
// checkpoint and a crash cut behind it, so the reopen restores that kind's
// blob and tops it up from the log. A history whose reopens all fell back
// to a full reindex fails.
func TestIndexCells(t *testing.T) {
	for _, b := range [][]byte{
		{0x00, 0x01, 43, 0x00, 0x10, 0x00, 0x14, 0x06, 0x00, 0x20, 0x24, 0x10, 0x09, 0x08, 0xc0, 0x00, 0x09},
		{0x21, 0x01, 47, 0x00, 0x10, 0x00, 0x14, 0x06, 0x00, 0x20, 0x24, 0x10, 0x09, 0x08, 0xc0, 0x00, 0x09},
		{0x42, 0x09, 53, 0x00, 0x10, 0x00, 0x14, 0x06, 0x00, 0x20, 0x24, 0x10, 0x09, 0x08, 0xc0, 0x00, 0x09},
	} {
		if h := history(t, b); h.restored == 0 {
			t.Fatalf("%s: no reopen restored the indexes from the checkpoint image", h.c)
		}
	}
}

// golden is the reference's length after a commit and the log size the
// commit left behind.
type golden struct {
	size  int64
	steps int
}

// pinned is what queries pinned to epoch observed, and the document each
// name resolved to then.
type pinned struct {
	epoch uint64
	times []model.Time
	slot  [slots]*doc
	out   []string
}

// run is one history under test.
type run struct {
	t        *testing.T
	c        cell
	root     string
	sut      *target
	ref      *reference
	at       model.Time
	armed    bool     // fail the next write's commit
	failed   int      // writes failed by an armed fault
	goldens  []golden // single durable engine: cut targets after the base
	pins     []pinned
	crashes  int
	restored int // reopens that restored the indexes from an image
	checks   int
}

func play(t *testing.T, data []byte) { history(t, data) }

// history plays one input and returns the finished run.
func history(t *testing.T, data []byte) *run {
	in := &input{b: data}
	c := decodeCell(in)
	h := &run{t: t, c: c, root: t.TempDir(), ref: newReference(int64(in.next()), 3), at: epoch0}
	var err error
	if h.sut, err = c.open(filepath.Join(h.root, "db")); err != nil {
		t.Fatalf("%s: open: %v", c, err)
	}
	defer func() { h.sut.Close() }()
	h.rebase()
	for n := 0; n < maxOps && in.i < len(in.b); n++ {
		b := in.next()
		s := b >> 4 & (slots - 1)
		switch b & 15 % 10 {
		case 0, 1, 2, 3:
			h.write(s, false)
		case 4:
			h.write(s, true)
		case 5:
			h.vacuum(1 + b>>6)
		case 6:
			h.checkpoint()
		case 7:
			h.fault(s&1 == 1)
		case 8:
			h.crash(in.next())
		case 9:
			if h.checks < 6 { // bounds the cost of one input
				h.check()
			}
		}
	}
	h.check()
	t.Logf("%s: %d steps, %d crashes, %d failed commits", c, len(h.ref.log), h.crashes, h.failed)
	return h
}

func (h *run) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: %s", h.c, fmt.Sprintf(format, args...))
}

// write applies one write to the SUT and, if it committed, to the
// reference. Only an armed fault may fail it, and only typed.
func (h *run) write(s int, del bool) {
	h.at += day
	st, ok := h.ref.plan(s, del, h.at)
	if !ok {
		return
	}
	url := h.ref.gen.URL(s)
	var id model.DocID
	if st.op != opPut {
		id = h.ref.slot[s].sut
	}
	armed := h.armed && h.sut.injs != nil
	if armed {
		h.armed = false
		i := h.sut.shardOf(url, id)
		h.sut.injs[i].Script(pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultTransient, At: h.sut.cnts[i].commits.Load() + 1})
	}
	var err error
	switch st.op {
	case opPut:
		id, err = h.sut.Put(url, h.ref.tree(st), st.at)
	case opUpdate:
		err = h.sut.update(id, h.ref.tree(st), st.at)
	case opDelete:
		err = h.sut.Delete(id, st.at)
	}
	if armed != (err != nil) || (err != nil && !typed(err)) {
		h.fatalf("step %+v (commit fault armed: %v): %v", st, armed, err)
	}
	if err != nil {
		h.failed++
		return
	}
	d, err := h.ref.apply(st)
	if err != nil {
		h.fatalf("reference step %+v: %v", st, err)
	}
	if st.op == opPut {
		// A router hands out the single engine's DocIDs, as long as no
		// failed create consumed one.
		if d.sut = id; h.failed == 0 && id != d.ref {
			h.fatalf("created %s as DocID %d, the reference as %d", d.url, id, d.ref)
		}
	}
	if h.sut.dir != "" {
		h.goldens = append(h.goldens, golden{logSize(h.t, h.sut.dir), len(h.ref.log)})
	}
}

// rebase makes the current log the floor of later crash cuts: after a
// checkpoint or vacuum the image covers everything before it.
func (h *run) rebase() {
	if h.sut.dir != "" {
		h.goldens = []golden{{logSize(h.t, h.sut.dir), len(h.ref.log)}}
	}
}

func (h *run) vacuum(keep int) {
	if err := h.sut.vacuum(keep); err != nil {
		h.fatalf("vacuum: %v", err)
	}
	if _, err := h.ref.apply(step{op: opVacuum, keep: keep}); err != nil {
		h.fatalf("reference vacuum: %v", err)
	}
	h.pins = nil // a vacuum reclaims what older pins could see
	h.rebase()
}

func (h *run) checkpoint() {
	if h.c.backend != segmented {
		return
	}
	if err := h.sut.checkpoint(); err != nil {
		h.fatalf("checkpoint: %v", err)
	}
	h.rebase()
}

// fault arms a commit fault for the next write, or runs the generated
// snapshot queries with the device down: every answer must be the
// reference's, every failure typed.
func (h *run) fault(commit bool) {
	if h.sut.injs == nil {
		return
	}
	if commit {
		h.armed = true
		return
	}
	for _, in := range h.sut.injs {
		in.SetOutage(true)
	}
	defer func() {
		for _, in := range h.sut.injs {
			in.SetOutage(false)
		}
	}()
	ctx := context.Background()
	for s := 0; s < slots; s++ {
		for _, at := range []model.Time{h.at, h.at - 2*day, h.at - 5*day} {
			q := fmt.Sprintf(`SELECT TIME(R), R FROM doc(%q)[%s]/restaurant R`, h.ref.gen.URL(s), day0(at))
			res, err := h.sut.QueryContext(ctx, q)
			want, werr := h.ref.db.QueryContext(ctx, q)
			switch {
			case err != nil && werr == nil && !typed(err):
				h.fatalf("untyped failure under outage: %s: %v", q, err)
			case err == nil && (werr != nil || rows(res) != rows(want)):
				h.fatalf("answer under outage differs from the reference: %s (%v)", q, werr)
			}
		}
	}
}

// crash cuts the log of a single durable engine at a fraction of its tail
// and reopens the cut copy: the result must be the reference at the last
// whole commit before the cut, Fsck-clean, healthy, and writable. A
// sharded segmented cell restarts from its directory instead. A reopen
// rebuilds the indexes from the surviving versions, where the live ones
// still hold a vacuum's pruned postings, so histories crash only before
// their first vacuum.
func (h *run) crash(frac int) {
	if h.ref.vacuumed() || h.sut.dir == "" && h.c.backend != segmented {
		return
	}
	h.crashes++
	dst := filepath.Join(h.root, fmt.Sprintf("crash-%d", h.crashes))
	cfg := h.c.engine(nil)
	cfg.Resilience = resilience.Config{Enabled: true}
	switch {
	case h.sut.dir != "":
		base := h.goldens[0].size
		cut := base + (logSize(h.t, h.sut.dir)-base)*int64(frac)/255
		cutLog(h.t, h.sut.dir, dst, cut)
		want := h.goldens[0]
		for _, g := range h.goldens {
			if g.size <= cut {
				want = g
			}
		}
		h.sut.Close()
		db, err := core.OpenDurable(cfg, dst)
		if err != nil {
			h.fatalf("reopen at cut %d: %v", cut, err)
		}
		if db.OpenReport().IndexesRestored {
			h.restored++
		}
		h.sut = single(db)
		h.sut.dir = dst
		if h.ref, err = h.ref.rebuild(want.steps); err != nil {
			h.fatalf("rebuild reference: %v", err)
		}
		if snap, ok := db.Health(); !ok || snap.State != resilience.Healthy {
			h.fatalf("cut %d: not healthy after reopen: %+v", cut, snap)
		}
	case h.c.backend == segmented:
		dir := filepath.Join(h.root, "db")
		h.sut.Close()
		r, err := shard.OpenDurable(shard.Config{Shards: h.c.shards, Workers: h.c.workers,
			Engine: func(int) core.Config { return cfg }}, dir)
		if err != nil {
			h.fatalf("restart: %v", err)
		}
		h.sut = sharded(r)
	default:
		return
	}
	if rep := h.sut.Fsck(); !rep.Clean() {
		h.fatalf("fsck after reopen:\n%s", rep)
	}
	h.pins = nil
	h.rebase()
	h.check()
	h.write(0, false)
}

// check compares the SUT with the reference, checks the laws and the
// stratum second opinion, re-runs every pinned observation, and pins the
// current epoch of a single engine.
func (h *run) check() {
	h.t.Helper()
	h.checks++
	if got, want := h.ref.render(h.sut, true), h.ref.render(h.ref.db, false); got != want {
		h.fatalf("diverged from the reference after %d steps:\n%s", len(h.ref.log), firstDiff(got, want))
	}
	h.ref.laws(h.t)
	h.ref.stratum(h.t)
	if h.sut.db == nil {
		return
	}
	used := len(h.ref.docs) > 0 // a cell with documents must use its pool and cache
	if st := h.sut.db.PoolStats(); st.Submitted != st.Completed+st.Cancelled+st.Panicked || used && h.c.workers > 1 && st.Submitted == 0 {
		h.fatalf("worker pool accounting: %+v", st)
	}
	if st, ok := h.sut.db.CacheStats(); ok && used && st.Hits == 0 {
		h.fatalf("the version cache never served a read: %+v", st)
	}
	_, label := h.ref.ids(true)
	for _, p := range h.pins {
		got := h.ref.observe(store.WithEpoch(context.Background(), p.epoch), h.sut, p.times, label)
		for i := range got {
			// A name re-created after the pin resolves to a document the
			// pin cannot see; the engine answers that with an error.
			if i > 0 && h.ref.slot[i-1] != p.slot[i-1] {
				continue
			}
			if got[i] != p.out[i] {
				h.fatalf("query pinned at epoch %d changed after later commits:\n%s", p.epoch, firstDiff(got[i], p.out[i]))
			}
		}
	}
	p := pinned{epoch: h.sut.db.Epoch(), times: h.ref.times(), slot: h.ref.slot}
	p.out = h.ref.observe(store.WithEpoch(context.Background(), p.epoch), h.sut, p.times, label)
	h.pins = append(h.pins[max(0, len(h.pins)-2):], p)
}

// firstDiff shows where two renderings first part.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, strings.LastIndexByte(want[:i], '\n'))
	clip := func(s string) string { return s[min(from, len(s)):min(i+300, len(s))] }
	return fmt.Sprintf("byte %d:\n got %s\nwant %s", i, clip(got), clip(want))
}
