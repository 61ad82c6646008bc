// Package oracle is the differential and metamorphic test oracle of the
// engine. One seeded history generator drives an engine configuration
// (cache, workers, shards, backend, group window, snapshot interval, FTI
// alternative) and a plain in-memory reference engine through the same
// random history of puts, updates, deletes, re-creates, vacuums,
// checkpoints, injected faults and crash cuts; one renderer prints
// everything a caller can observe of both, and the two renderings must be
// byte-identical. On the reference it checks the temporal laws the
// paper's semantics imply: snapshot reducibility ([t] equals the
// [t TO t+1 day] rows and the [EVERY] rows valid at t),
// CreTime/DelTime equal to delta traversal (§7.3.6), Diff round trips
// forward and inverted (§7.3.3), and PreviousTS ∘ NextTS = identity. A
// separately written full-version store (internal/stratum) is the second
// opinion for reads and scans.
//
// The package holds only tests. Plain go test replays the hand-written
// histories (one test per axis of the matrix) and FuzzOracle's corpus;
// go test -fuzz FuzzOracle searches further and minimizes any failing
// input into testdata/fuzz/FuzzOracle, which then stays as a fixture.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/core"
	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/resilience"
	"txmldb/internal/shard"
	"txmldb/internal/store"
	"txmldb/internal/stratum"
	"txmldb/internal/tdocgen"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

const (
	slots  = 4  // document names a history writes to
	maxOps = 64 // operations decoded from one input
	day    = model.Time(24 * 3600 * 1000)
)

var (
	epoch0 = model.Date(2001, 1, 1)
	clock  = func() model.Time { return model.Date(2002, 1, 1) }
)

// input reads a fuzz input as a stream of choices; past its end every
// choice is zero.
type input struct {
	b []byte
	i int
}

func (in *input) next() int {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return int(in.b[in.i-1])
}

type backend int

const (
	memory    backend = iota
	segmented         // core.OpenDurable / shard.OpenDurable
	injected          // a pagestore.Injector over a segmented log
)

// cell is one configuration of the matrix the oracle compares against the
// reference.
type cell struct {
	cache   bool
	workers int
	shards  int
	backend backend
	group   bool // 1 ms group-commit window
	snap    int  // index into snapshotEvery
	index   core.IndexKind
}

// snapshotEvery is the snapshot axis: the store's SnapshotEvery per cell.
// Index 0 is the interval every cell used before the axis existed, so
// inputs that leave its bits clear keep their meaning.
var snapshotEvery = [4]int{4, 0, 1, 16}

func decodeCell(in *input) cell {
	a, b := in.next(), in.next()
	c := cell{
		cache:   a&1 == 1,
		workers: 1 << (a >> 1 & 3),
		shards:  1 << (a >> 3 & 3),
		index:   core.IndexKind(a >> 5 & 3 % 3), // 0 keeps IndexVersions
		backend: backend(b & 3 % 3),
		snap:    b >> 3 & 3,
	}
	c.group = c.backend != memory && b>>2&1 == 1 // a window needs a log
	return c
}

func (c cell) String() string {
	return fmt.Sprintf("cache=%v workers=%d shards=%d backend=%d group=%v snapshot-every=%d index=%s",
		c.cache, c.workers, c.shards, c.backend, c.group, snapshotEvery[c.snap], c.index)
}

// engine is the per-engine configuration of the cell. The snapshot axis
// puts the reconstruction planner's bases — snapshots on either side of a
// target, or none but the current version's — in play; the index axis
// answers scans from each of the three FTI alternatives of §7.2.
func (c cell) engine(b pagestore.Backend) core.Config {
	cfg := core.Config{
		Clock:      clock,
		Index:      c.index,
		Workers:    c.workers,
		Store:      store.Config{SnapshotEvery: snapshotEvery[c.snap], Pages: pagestore.Config{Backend: b}},
		Checkpoint: checkpoint.Config{SegmentBytes: 4096},
	}
	if c.cache {
		cfg.Cache = vcache.Config{MaxBytes: 1 << 20}
	}
	if c.group {
		cfg.Store.Pages.GroupWindow = time.Millisecond
	}
	return cfg
}

// counted counts the commits reaching a backend, so a fault can be
// scripted for exactly the next one.
type counted struct {
	pagestore.Backend
	commits atomic.Int64
}

func (c *counted) Commit(b *pagestore.Batch) error {
	c.commits.Add(1)
	return c.Backend.Commit(b)
}

// engine is what a cell drives. core.DB and shard.Router both provide it,
// so every cell makes the same calls against either.
type engine interface {
	core.Primitives
	Delete(id model.DocID, t model.Time) error
	Vacuum(ret store.Retention) (store.VacuumReport, checkpoint.RunStats, error)
	Checkpoint() (checkpoint.RunStats, error)
	TPatternScanAll(p *pattern.PNode) ([]model.TEID, error)
	ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error)
	DocHistory(id model.DocID, iv model.Interval) ([]store.VersionTree, error)
	ElementHistory(eid model.EID, iv model.Interval) ([]store.VersionTree, error)
	PreviousTS(teid model.TEID) (store.VersionInfo, error)
	NextTS(teid model.TEID) (store.VersionInfo, error)
	Diff(a, b model.TEID) (*xmltree.Node, error)
	Fsck() store.FsckReport
	Close() error
}

// target is one engine under comparison: a single core.DB or a router.
// Every operation goes through engine; the concrete pointers serve only
// what one type has of its own.
type target struct {
	engine
	db   *core.DB
	r    *shard.Router
	injs []*pagestore.Injector // per shard, injected cells only
	cnts []*counted
	dir  string // the log directory of a single durable engine
}

func single(db *core.DB) *target      { return &target{engine: db, db: db} }
func sharded(r *shard.Router) *target { return &target{engine: r, r: r} }

// open builds the cell's engine under dir.
func (c cell) open(dir string) (*target, error) {
	router := func(b func(i int) pagestore.Backend) shard.Config {
		return shard.Config{Shards: c.shards, Workers: c.workers, Engine: func(i int) core.Config { return c.engine(b(i)) }}
	}
	none := func(int) pagestore.Backend { return nil }
	switch {
	case c.backend == memory && c.shards == 1:
		return single(core.Open(c.engine(nil))), nil
	case c.backend == memory:
		return sharded(shard.Open(router(none))), nil
	case c.backend == segmented && c.shards == 1:
		db, err := core.OpenDurable(c.engine(nil), dir)
		if err != nil {
			return nil, err
		}
		g := single(db)
		g.dir = dir
		return g, nil
	case c.backend == segmented:
		r, err := shard.OpenDurable(router(none), dir)
		if err != nil {
			return nil, err
		}
		return sharded(r), nil
	}
	injs := make([]*pagestore.Injector, c.shards)
	cnts := make([]*counted, c.shards)
	for i := range injs {
		d := dir
		if c.shards > 1 {
			d = filepath.Join(dir, shard.ShardDirName(i))
		}
		wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: d, SegmentBytes: 4096})
		if err != nil {
			return nil, err
		}
		injs[i] = pagestore.NewInjector(wal, int64(i)+1)
		cnts[i] = &counted{Backend: injs[i]}
	}
	var g *target
	if c.shards == 1 {
		g = single(core.Open(c.engine(cnts[0])))
		g.dir = dir
	} else {
		g = sharded(shard.Open(router(func(i int) pagestore.Backend { return cnts[i] })))
	}
	g.injs, g.cnts = injs, cnts
	return g, nil
}

func (g *target) update(id model.DocID, n *xmltree.Node, at model.Time) error {
	_, _, err := g.Update(id, n, at)
	return err
}

func (g *target) vacuum(keep int) error {
	_, _, err := g.Vacuum(store.Retention{Policy: store.KeepLast, KeepLast: keep})
	return err
}

func (g *target) checkpoint() error {
	_, err := g.Checkpoint()
	return err
}

func (g *target) teids(p *pattern.PNode) ([]model.TEID, []*xmltree.Node, error) {
	ts, err := g.TPatternScanAll(p)
	if err != nil {
		return nil, nil, err
	}
	ns, err := g.ReconstructBatch(context.Background(), ts)
	return ts, ns, err
}

// history is DocHistory of id, or ElementHistory when x is not zero.
func (g *target) history(id model.DocID, x model.XID) ([]store.VersionTree, error) {
	if x != 0 {
		return g.ElementHistory(model.EID{Doc: id, X: x}, model.Always)
	}
	return g.DocHistory(id, model.Always)
}

func (g *target) nav(teid model.TEID) (prev, next store.VersionInfo, perr, nerr error) {
	prev, perr = g.PreviousTS(teid)
	next, nerr = g.NextTS(teid)
	return
}

// shardOf is the shard a write to url (create) or id lands on.
func (g *target) shardOf(url string, id model.DocID) int {
	if g.r == nil {
		return 0
	}
	if id == 0 {
		return g.r.HomeShard(url)
	}
	s, _ := g.r.ShardOf(id)
	return s
}

// Operations of a history.
const (
	opPut = iota
	opUpdate
	opDelete
	opVacuum
)

// step is one operation the reference applied; replaying a prefix of the
// log rebuilds the reference at that commit.
type step struct {
	op, slot, ver, keep int
	at                  model.Time
}

// doc is one document ever created, with its DocID on each side.
type doc struct {
	url      string
	ref, sut model.DocID
	live     bool
}

// reference is the oracle's model of the history: the plain engine, the
// stratum second opinion, and the documents both know.
type reference struct {
	gen   *tdocgen.Generator
	hist  [slots][]tdocgen.Version
	db    *target
	strat *stratum.DB
	sids  map[model.DocID]model.DocID // reference DocID -> stratum DocID
	docs  []*doc
	slot  [slots]*doc
	next  [slots]int // history index of the slot's next version
	log   []step
}

// newReference starts an empty history over a tdocgen corpus whose
// documents begin with elems restaurants.
func newReference(seed int64, elems int) *reference {
	r := &reference{gen: tdocgen.New(tdocgen.Config{Seed: seed, Docs: slots, InitialElems: elems, Versions: 12, OpsPerVersion: 2})}
	for i := range r.hist {
		r.hist[i] = r.gen.History(i)
	}
	return r.empty()
}

// empty returns a reference over the same corpus with no history.
func (r *reference) empty() *reference {
	return &reference{gen: r.gen, hist: r.hist, db: single(core.Open(core.Config{Clock: clock})),
		strat: stratum.New(pagestore.Config{}), sids: map[model.DocID]model.DocID{}}
}

// tree is the content of a step: the slot's tdocgen history, cycling.
func (r *reference) tree(st step) *xmltree.Node {
	h := r.hist[st.slot]
	return h[st.ver%len(h)].Tree.Clone()
}

// plan turns a write choice on slot s into the step it means now: an
// update of a live document, else a (re-)create.
func (r *reference) plan(s int, del bool, at model.Time) (step, bool) {
	d := r.slot[s]
	switch {
	case del && (d == nil || !d.live):
		return step{}, false
	case del:
		return step{op: opDelete, slot: s, at: at}, true
	case d != nil && d.live:
		return step{op: opUpdate, slot: s, ver: r.next[s], at: at}, true
	}
	return step{op: opPut, slot: s, ver: r.next[s], at: at}, true
}

// apply performs st on the reference engine and the stratum store.
func (r *reference) apply(st step) (*doc, error) {
	r.log = append(r.log, st)
	d := r.slot[st.slot]
	var err error
	switch st.op {
	case opPut:
		d = &doc{url: r.gen.URL(st.slot), live: true}
		if d.ref, err = r.db.Put(d.url, r.tree(st), st.at); err != nil {
			return nil, err
		}
		r.docs = append(r.docs, d)
		r.slot[st.slot] = d
		r.next[st.slot]++
		r.sids[d.ref], err = r.strat.Put(d.url, r.tree(st), st.at)
	case opUpdate:
		r.next[st.slot]++
		if err = r.db.update(d.ref, r.tree(st), st.at); err == nil {
			err = r.strat.Update(r.sids[d.ref], r.tree(st), st.at)
		}
	case opDelete:
		d.live = false
		if err = r.db.Delete(d.ref, st.at); err == nil {
			err = r.strat.Delete(r.sids[d.ref], st.at)
		}
	case opVacuum:
		err = r.db.vacuum(st.keep)
	}
	return d, err
}

// rebuild replays the first n steps into a fresh reference, keeping the
// SUT's DocIDs of the documents that survive.
func (r *reference) rebuild(n int) (*reference, error) {
	fresh := r.empty()
	for _, st := range r.log[:n] {
		d, err := fresh.apply(st)
		if err != nil {
			return nil, err
		}
		if st.op == opPut {
			d.sut = r.docs[len(fresh.docs)-1].sut
		}
	}
	return fresh, nil
}

// vacuumed reports whether the history pruned versions.
func (r *reference) vacuumed() bool {
	for _, st := range r.log {
		if st.op == opVacuum {
			return true
		}
	}
	return false
}

// times are the instants the renderer and the laws probe: eight, spread
// over the commit times and the days before them, so a [t TO t+1 day]
// probe often ends exactly at the next commit.
func (r *reference) times() []model.Time {
	seen := map[model.Time]bool{}
	var ts []model.Time
	for _, st := range r.log {
		for _, t := range []model.Time{st.at - day, st.at} {
			if st.op != opVacuum && !seen[t] {
				seen[t] = true
				ts = append(ts, t)
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	const n = 8
	if len(ts) <= n {
		return ts
	}
	out := make([]model.Time, n)
	for i := range out {
		out[i] = ts[i*(len(ts)-1)/(n-1)]
	}
	return out
}

// typed reports whether err is one of the failures the storage and
// resilience tiers promise to surface typed.
func typed(err error) bool {
	return errors.Is(err, resilience.ErrCircuitOpen) ||
		errors.Is(err, resilience.ErrDegraded) ||
		errors.Is(err, pagestore.ErrTransient) ||
		errors.Is(err, pagestore.ErrCorrupt) ||
		errors.Is(err, pagestore.ErrUnknownExtent) ||
		errors.Is(err, store.ErrUnreachable) ||
		errors.Is(err, context.DeadlineExceeded)
}

func day0(t model.Time) string { return t.Std().Format("02/01/2006") }

var (
	restaurant = func() *pattern.PNode {
		r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
		return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
	}()
	chef = func() *pattern.PNode {
		c := &pattern.PNode{Name: "chef", Rel: pattern.Descendant, Project: true}
		return &pattern.PNode{Name: "restaurant", Rel: pattern.Descendant, Children: []*pattern.PNode{c}}
	}()
	patterns = []*pattern.PNode{restaurant, chef}
)

// selects are the SELECT/WHERE/ORDER shapes of the generated queries;
// each runs under every FROM shape.
var selects = []string{
	`SELECT TIME(R), R FROM %s/restaurant R`,
	`SELECT R/name, CREATE TIME(R) FROM %s/restaurant R WHERE R/price < 30`,
	`SELECT COUNT(R), SUM(R/price), MAX(R/price) FROM %s/restaurant R`,
	`SELECT DISTINCT R/info/chef FROM %s/restaurant R`,
	`SELECT R/name, R/price FROM %s/restaurant R ORDER BY R/price DESC LIMIT 2`,
}

// froms are the FROM shapes of url probed at t: current, [t], [EVERY]
// and [t1 TO t2].
func froms(url string, t model.Time) []string {
	u := fmt.Sprintf("doc(%q)", url)
	return []string{u, fmt.Sprintf("%s[%s]", u, day0(t)), u + "[EVERY]",
		fmt.Sprintf("%s[%s TO %s]", u, day0(t-2*day), day0(t+day))}
}

// rows renders a result byte for byte: element values with XIDs and
// stamps, scalars as printed, and the executor's work counters.
func rows(res *plan.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			if es, ok := v.([]plan.Elem); ok {
				for _, e := range es {
					b.Write(xmltree.Marshal(e.Node))
				}
			} else {
				fmt.Fprint(&b, v)
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%+v\n", res.Metrics)
	return b.String()
}

// matches renders scan output with documents named by creation ordinal.
// Under an epoch pin only the match spans are clamped, so the bindings'
// own posting spans are left out.
func matches(ms []pattern.Match, label map[model.DocID]int, pinned bool) string {
	var b strings.Builder
	for _, m := range ms {
		var bs []string
		for pn, p := range m.Bindings {
			if pinned {
				bs = append(bs, fmt.Sprintf("%s=%d", pn.Name, p.X))
			} else {
				bs = append(bs, fmt.Sprintf("%s=%d%s", pn.Name, p.X, p.Span))
			}
		}
		sort.Strings(bs)
		fmt.Fprintf(&b, "d%d%s %s\n", label[m.Doc], m.Span, strings.Join(bs, " "))
	}
	return b.String()
}

func fail(err error) string {
	if err != nil {
		return "ERR\n"
	}
	return ""
}

// render prints everything g lets a caller observe of the reference's
// documents: every version with its elements' CreTime/DelTime, TS
// navigation and Diff from the previous version, DocHistory, the scans
// and TEIDs of every pattern, and the rows of the generated queries.
// sut picks g's DocIDs; documents are named by creation ordinal.
func (r *reference) render(g *target, sut bool) string {
	var b strings.Builder
	ctx := context.Background()
	ids, label := r.ids(sut)
	times := r.times()
	for i, id := range ids {
		vs, err := g.VersionsContext(ctx, id)
		fmt.Fprintf(&b, "d%d %s %s", i, r.docs[i].url, fail(err))
		var prev model.TEID
		for _, v := range vs {
			fmt.Fprintf(&b, "v%d [%s,%s) pruned=%v\n", v.Ver, v.Stamp, v.End, v.Pruned)
			if v.Pruned {
				continue
			}
			vt, err := g.ReconstructVersionContext(ctx, id, v.Ver)
			if err != nil {
				b.WriteString(fail(err))
				continue
			}
			fmt.Fprintf(&b, "v%d [%s,%s) ", vt.Info.Ver, vt.Info.Stamp, vt.Info.End)
			b.Write(xmltree.Marshal(vt.Root))
			vt.Root.Walk(func(n *xmltree.Node) bool {
				if n.IsElement() {
					eid := model.EID{Doc: id, X: n.XID}
					cre, cerr := g.CreTime(eid)
					del, derr := g.DelTime(eid)
					fmt.Fprintf(&b, " %d:%s%s-%s%s", n.XID, cre, fail(cerr), del, fail(derr))
				}
				return true
			})
			teid := model.TEID{E: model.EID{Doc: id, X: vt.Root.XID}, T: v.Stamp}
			p, n, perr, nerr := g.nav(teid)
			fmt.Fprintf(&b, "\nprev=v%d%s next=v%d%s\n", p.Ver, fail(perr), n.Ver, fail(nerr))
			if prev.T != 0 {
				dn, err := g.Diff(prev, teid)
				if err == nil {
					b.WriteString(dn.String())
				}
				b.WriteString(fail(err))
			}
			prev = teid
		}
		// DocHistory, and ElementHistory of the first restaurant.
		for _, x := range []model.XID{0, 2} {
			hist, err := g.history(id, x)
			b.WriteString(fail(err))
			for _, vt := range hist {
				fmt.Fprintf(&b, "h%d [%s,%s) %s\n", vt.Info.Ver, vt.Info.Stamp, vt.Info.End, xmltree.Marshal(vt.Root))
			}
		}
	}
	for _, p := range patterns {
		ts, ns, err := g.teids(p)
		b.WriteString("teids " + fail(err))
		for i, n := range ns {
			fmt.Fprintf(&b, "d%d:%d@%s %s\n", label[ts[i].E.Doc], ts[i].E.X, ts[i].T, xmltree.Marshal(n))
		}
	}
	return b.String() + strings.Join(r.observe(ctx, g, times, label), "")
}

// observe renders what a query pinned to an epoch may see, probed at
// times: the scans of every pattern first, then the rows of the generated
// queries per document name.
func (r *reference) observe(ctx context.Context, g *target, times []model.Time, label map[model.DocID]int) []string {
	var b strings.Builder
	_, pinned := store.EpochOf(ctx)
	for _, p := range patterns {
		ms, err := g.ScanAllContext(ctx, p)
		b.WriteString("all " + fail(err) + matches(ms, label, pinned))
		if !pinned {
			ms, err = g.ScanCurrentContext(ctx, p)
			b.WriteString("current " + fail(err) + matches(ms, label, pinned))
		}
		for _, t := range times {
			ms, err = g.ScanTContext(ctx, p, t)
			fmt.Fprintf(&b, "at %s %s%s", t, fail(err), matches(ms, label, pinned))
		}
	}
	out := []string{b.String()}
	for s := 0; s < slots; s++ {
		out = append(out, r.queries(ctx, g, s, times, pinned))
	}
	return out
}

// ids lists the DocIDs of every document on one side, in creation order,
// and labels them by that order.
func (r *reference) ids(sut bool) ([]model.DocID, map[model.DocID]int) {
	label := map[model.DocID]int{}
	ids := make([]model.DocID, len(r.docs))
	for i, d := range r.docs {
		ids[i] = d.ref
		if sut {
			ids[i] = d.sut
		}
		label[ids[i]] = i
	}
	return ids, label
}

// queries renders the generated queries over document name s: every FROM
// shape at every other probe time, each with two SELECT shapes. A
// pinned current-state scan reads the live index, which later writes
// change, so pinned observations leave the current shape out.
func (r *reference) queries(ctx context.Context, g *target, s int, times []model.Time, pinned bool) string {
	var b strings.Builder
	for k, t := range times {
		if k%2 != s%2 {
			continue
		}
		for i, from := range froms(r.gen.URL(s), t) {
			if pinned && i == 0 {
				continue
			}
			for _, sel := range []string{selects[0], selects[1+(k+s)%(len(selects)-1)]} {
				q := fmt.Sprintf(sel, from)
				res, err := g.QueryContext(ctx, q)
				b.WriteString(q + "\n" + fail(err))
				if err == nil {
					b.WriteString(rows(res))
				}
			}
		}
	}
	return b.String()
}

// laws checks the temporal identities on the reference engine.
func (r *reference) laws(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	db := r.db.db
	for s := 0; s < slots; s++ {
		if r.slot[s] == nil {
			continue
		}
		url := r.gen.URL(s)
		vs, err := db.VersionsContext(ctx, r.slot[s].ref)
		if err != nil || vs[0].Pruned {
			continue // pruned versions fail [EVERY] and early snapshots
		}
		for _, at := range r.times() {
			// Snapshot reducibility: [t] = [t TO t+1 day] = [EVERY] valid at t.
			q := `SELECT R FROM doc(%q)%s/restaurant R`
			snap := r.elems(t, fmt.Sprintf(q, url, "["+day0(at)+"]"))
			span := r.elems(t, fmt.Sprintf(q, url, fmt.Sprintf("[%s TO %s]", day0(at), day0(at+day))))
			if strings.Join(snap, "\n") != strings.Join(span, "\n") {
				t.Fatalf("%s at %s: [t] and [t TO t+1 day] differ:\n%s\n---\n%s", url, at, snap, span)
			}
			every := r.everyAt(t, url, at)
			if strings.Join(snap, "\n") != strings.Join(every, "\n") {
				t.Fatalf("%s at %s: [t] and the [EVERY] rows valid at t differ:\n%s\n---\n%s", url, at, snap, every)
			}
		}
	}
	vacuumed := r.vacuumed()
	for _, d := range r.docs {
		vs, err := db.VersionsContext(ctx, d.ref)
		if err != nil {
			t.Fatal(err)
		}
		var prev *xmltree.Node
		for i, v := range vs {
			if v.Pruned {
				continue
			}
			vt, err := db.ReconstructVersion(d.ref, v.Ver)
			if err != nil {
				t.Fatal(err)
			}
			teid := model.TEID{E: model.EID{Doc: d.ref, X: vt.Root.XID}, T: v.Stamp}
			// PreviousTS ∘ NextTS is the identity on every non-last version.
			if i+1 < len(vs) {
				n, err := db.NextTS(teid)
				if err != nil {
					t.Fatalf("NextTS(%s): %v", teid, err)
				}
				p, err := db.PreviousTS(model.TEID{E: teid.E, T: n.Stamp})
				if err != nil || p.Ver != v.Ver {
					t.Fatalf("PreviousTS(NextTS(v%d of %s)) = v%d, %v", v.Ver, d.url, p.Ver, err)
				}
			}
			// Diff applied forward reaches the next version; inverted, back.
			if prev != nil {
				roundTrip(t, prev, vt.Root)
			}
			prev = vt.Root
			// The time index answers what the delta chain says (§7.3.6).
			if vacuumed {
				continue
			}
			vt.Root.Walk(func(n *xmltree.Node) bool {
				if !n.IsElement() {
					return true
				}
				eid := model.EID{Doc: d.ref, X: n.XID}
				cre, err1 := db.CreTime(eid)
				walk, err2 := db.Store().CreTimeTraverse(model.TEID{E: eid, T: v.Stamp})
				del, err3 := db.DelTime(eid)
				dwalk, err4 := db.Store().DelTimeTraverse(model.TEID{E: eid, T: v.Stamp})
				if err := errors.Join(err1, err2, err3, err4); err != nil || cre != walk || del != dwalk {
					t.Fatalf("%s element %d: tidx CreTime/DelTime %s/%s, traversal %s/%s (%v)", d.url, n.XID, cre, del, walk, dwalk, err)
				}
				return true
			})
		}
	}
}

// stratum checks the reference against the full-version store: every
// version reads the same, and every snapshot scan finds the same elements.
// A vacuum prunes only the reference, so it ends the comparison.
func (r *reference) stratum(t *testing.T) {
	t.Helper()
	if r.vacuumed() {
		return
	}
	db := r.db.db
	label := map[model.DocID]int{}
	for i, d := range r.docs {
		label[r.sids[d.ref]] = i
		vs, err := db.Versions(d.ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			vt, err := db.ReconstructVersion(d.ref, v.Ver)
			if err != nil {
				t.Fatal(err)
			}
			st, err := r.strat.ReadVersionAt(r.sids[d.ref], v.Stamp)
			if err != nil || st.String() != vt.Root.String() {
				t.Fatalf("%s v%d: stratum reads %v (%v), engine %v", d.url, v.Ver, st, err, vt.Root)
			}
		}
	}
	_, refLabel := r.ids(false)
	for _, at := range r.times() {
		var got, want []string
		ms, err := db.ScanTContext(context.Background(), restaurant, at)
		for _, m := range ms {
			n, rerr := db.Reconstruct(m.TEID(restaurant.Children[0], at))
			err = errors.Join(err, rerr)
			want = append(want, fmt.Sprintf("d%d %s", refLabel[m.Doc], n))
		}
		sms, serr := r.strat.SnapshotScan(restaurant, at)
		for _, m := range sms {
			v, rerr := r.strat.ReadVersionAt(m.Doc, at)
			if err = errors.Join(err, serr, rerr); rerr == nil {
				got = append(got, fmt.Sprintf("d%d %s", label[m.Doc], v.FindXID(m.Bindings[restaurant.Children[0]].X)))
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if err != nil || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("snapshot scan at %s (%v): stratum finds\n%s\nengine finds\n%s", at, err, got, want)
		}
	}
}

// elems runs q on the reference and returns its element values, sorted.
func (r *reference) elems(t *testing.T, q string) []string {
	t.Helper()
	res, err := r.db.db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var out []string
	for _, row := range res.Rows {
		for _, e := range row[0].([]plan.Elem) {
			out = append(out, string(xmltree.Marshal(e.Node)))
		}
	}
	sort.Strings(out)
	return out
}

// everyAt returns the [EVERY] element versions valid at t: per element,
// the latest row stamped at or before t, while the element lives.
func (r *reference) everyAt(t *testing.T, url string, at model.Time) []string {
	t.Helper()
	res, err := r.db.db.Query(fmt.Sprintf(`SELECT TIME(R), R FROM doc(%q)[EVERY]/restaurant R`, url))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		at  model.Time
		out string
		eid model.EID
	}
	latest := map[model.XID]row{}
	for _, rw := range res.Rows {
		ts := rw[0].(model.Time)
		for _, e := range rw[1].([]plan.Elem) {
			if cur, ok := latest[e.Node.XID]; ts <= at && (!ok || ts > cur.at) {
				latest[e.Node.XID] = row{ts, string(xmltree.Marshal(e.Node)), model.EID{Doc: e.Doc, X: e.Node.XID}}
			}
		}
	}
	var out []string
	for _, rw := range latest {
		if del, err := r.db.db.DelTime(rw.eid); err == nil && at < del {
			out = append(out, rw.out)
		}
	}
	sort.Strings(out)
	return out
}

// roundTrip checks that the Diff of two versions, applied to the first,
// yields the second, and its inverse applied to that yields the first.
func roundTrip(t *testing.T, a, b *xmltree.Node) {
	t.Helper()
	dn, err := diff.Elements(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s, err := diff.FromXML(dn)
	if err != nil {
		t.Fatal(err)
	}
	fwd := a.Clone()
	if err := diff.Apply(fwd, s); err != nil || fwd.String() != b.String() {
		t.Fatalf("Diff applied forward: %v\n got %s\nwant %s", err, fwd, b)
	}
	if err := diff.Apply(fwd, s.Invert()); err != nil || string(xmltree.Marshal(fwd)) != string(xmltree.Marshal(a)) {
		t.Fatalf("Diff inverted: %v\n got %s\nwant %s", err, fwd, a)
	}
}
