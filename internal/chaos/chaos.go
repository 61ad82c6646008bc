// Package chaos is the seeded, deterministic fault-campaign runner for
// the resilience tier: it drives the pagestore fault injector (outage
// windows, latency spikes, bit rot) underneath a concurrent live query
// workload and checks the system-wide invariants the tier promises —
//
//   - no corrupt tree is ever returned to a caller: every answer that
//     succeeds is byte-identical to a fault-free oracle's answer,
//   - no stale read after a completed Update,
//   - failures are typed (ErrCircuitOpen / ErrDegraded / ErrTransient /
//     ErrUnreachable / ErrCorrupt), never silent wrong data,
//   - the engine transitions healthy → degraded → healthy on its own as
//     faults come and go,
//
// plus a crash-and-reopen torture loop (CrashAndReopen) composing WAL
// recovery with the tier. The same campaign backs the chaos tests and
// the CI smoke step, so a failure reproduces from its seed.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/resilience"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// Config parameterizes a campaign. Zero values take the defaults noted.
type Config struct {
	// Seed makes the campaign reproducible: trees, query order, fault
	// points and the retry jitter all derive from it. Default 1.
	Seed int64
	// Docs and Versions size the corpus (defaults 3 and 6).
	Docs     int
	Versions int
	// Workers is the concurrent query workers of the storm (default 4).
	Workers int
	// StormOps is how many queries each worker issues per storm (default 40).
	StormOps int
	// OpenFor is the breaker's open window; short, so fail-then-heal
	// cycles complete inside a test run (default 25ms).
	OpenFor time.Duration
	// Logf receives phase progress lines; nil disables.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Docs <= 0 {
		c.Docs = 3
	}
	if c.Versions <= 0 {
		c.Versions = 6
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.StormOps <= 0 {
		c.StormOps = 40
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 25 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Report is a campaign's outcome. A campaign passed iff Violations is
// empty; everything else is context for the operator (and EXPERIMENTS.md).
type Report struct {
	Seed           int64
	Queries        int64    // query attempts across all phases
	Succeeded      int64    // queries that returned rows
	Matched        int64    // successes byte-identical to the oracle
	TypedFailures  int64    // failures carrying a typed, matchable error
	DegradedServes int64    // tier counter: answers served while degraded
	BreakerOpens   int64    // tier counter: breaker trips
	StatesSeen     []string // distinct tier states, in first-seen order
	Violations     []string

	mu sync.Mutex
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Violations) == 0
}

func (r *Report) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *Report) addQuery(succeeded, matched, typed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Queries++
	if succeeded {
		r.Succeeded++
		if matched {
			r.Matched++
		}
	} else if typed {
		r.TypedFailures++
	}
}

func (r *Report) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := fmt.Sprintf("chaos seed=%d: %d queries, %d ok (%d oracle-identical), %d typed failures, %d degraded serves, %d breaker opens, states %s",
		r.Seed, r.Queries, r.Succeeded, r.Matched, r.TypedFailures, r.DegradedServes, r.BreakerOpens,
		strings.Join(r.StatesSeen, "→"))
	if len(r.Violations) > 0 {
		s += fmt.Sprintf("; %d VIOLATIONS:\n  %s", len(r.Violations), strings.Join(r.Violations, "\n  "))
	}
	return s
}

// campaign is the running state shared by the phases.
type campaign struct {
	cfg      Config
	rep      *Report
	oracle   *core.DB
	sut      *core.DB
	inj      *pagestore.Injector
	docs     []model.DocID // SUT ids, index = doc number
	urls     []string
	expected map[string]string // query text -> oracle rendering

	stopMon chan struct{}
	monDone chan struct{}
}

// Run executes the full seeded campaign: build oracle and SUT, warm part
// of the cache, storm (whole-device outage under concurrent load), heal,
// verify, latency spikes, then at-rest corruption with Fsck-driven
// degradation. OnEngine, when non-nil, receives the SUT engine after
// setup so callers can mount an HTTP server over the very database under
// fault (the chaos tests poll /healthz and /readyz through it).
func Run(cfg Config, onEngine func(*core.DB)) *Report {
	cfg = cfg.withDefaults()
	c := &campaign{
		cfg:      cfg,
		rep:      &Report{Seed: cfg.Seed},
		expected: make(map[string]string),
		stopMon:  make(chan struct{}),
		monDone:  make(chan struct{}),
	}
	c.setup()
	if onEngine != nil {
		onEngine(c.sut)
	}
	go c.monitor()

	c.phaseWarm()
	c.phaseStorm()
	c.phaseHeal()
	c.phaseVerify()
	c.phaseLatency()
	c.phaseCorruption()

	close(c.stopMon)
	<-c.monDone
	if snap, ok := c.sut.Health(); ok {
		c.rep.mu.Lock()
		c.rep.DegradedServes = snap.DegradedServes
		c.rep.BreakerOpens = snap.Breaker.Opens
		c.rep.mu.Unlock()
	}
	c.checkTransitions()
	return c.rep
}

// tree builds the deterministic content of one document version: derived
// from (seed, doc, version) only, so the oracle and the SUT construct
// identical inputs without sharing generator state.
func (c *campaign) tree(doc, ver int) *xmltree.Node {
	rnd := rand.New(rand.NewSource(c.cfg.Seed*1_000_003 + int64(doc)*1009 + int64(ver)))
	g := xmltree.Elem("guide")
	for i := 0; i < 3+ver%3; i++ {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", fmt.Sprintf("R%d_%d", doc, i)),
			xmltree.ElemText("price", fmt.Sprint(5+rnd.Intn(40)))))
	}
	return g
}

// when returns the commit time of version v: day v of January 2001.
func when(v int) model.Time { return model.Date(2001, 1, v) }

// query returns the snapshot query reconstructing version v of doc d.
func (c *campaign) query(d, v int) string {
	return fmt.Sprintf(`SELECT R FROM doc(%q)[%02d/01/2001]/restaurant R`, c.urls[d], v)
}

func (c *campaign) setup() {
	clock := func() model.Time { return model.Date(2001, 6, 1) }
	c.oracle = core.Open(core.Config{Clock: clock})
	c.inj = pagestore.NewInjector(pagestore.NewMemory(), c.cfg.Seed)
	c.sut = core.Open(core.Config{
		Clock: clock,
		Store: store.Config{
			Pages:        pagestore.Config{Backend: c.inj},
			ReadRetries:  1,
			RetryBackoff: 100 * time.Microsecond,
			RetrySeed:    c.cfg.Seed,
		},
		Cache: vcache.Config{MaxBytes: 16 << 20},
		Resilience: resilience.Config{
			Enabled: true,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: 5,
				OpenFor:          c.cfg.OpenFor,
				ProbeSuccesses:   2,
			},
			Health: resilience.HealthConfig{DegradeAfter: 3, FailAfter: 50, RecoverAfter: 3},
		},
	})
	for d := 0; d < c.cfg.Docs; d++ {
		url := fmt.Sprintf("http://chaos.test/doc-%d.xml", d)
		c.urls = append(c.urls, url)
		for v := 1; v <= c.cfg.Versions; v++ {
			t := c.tree(d, v)
			if v == 1 {
				if _, err := c.oracle.Put(url, t.Clone(), when(v)); err != nil {
					c.rep.violate("setup: oracle put doc %d: %v", d, err)
					continue
				}
				id, err := c.sut.Put(url, t, when(v))
				if err != nil {
					c.rep.violate("setup: sut put doc %d: %v", d, err)
					continue
				}
				c.docs = append(c.docs, id)
				continue
			}
			oid, _ := c.oracle.LookupDoc(url)
			if _, _, err := c.oracle.Update(oid, t.Clone(), when(v)); err != nil {
				c.rep.violate("setup: oracle update doc %d v%d: %v", d, v, err)
			}
			if _, _, err := c.sut.Update(c.docs[d], t, when(v)); err != nil {
				c.rep.violate("setup: sut update doc %d v%d: %v", d, v, err)
			}
		}
		// Golden answers come from the fault-free oracle, rendered to the
		// paper's result document form — the byte-identity notion of the
		// campaign.
		for v := 1; v <= c.cfg.Versions; v++ {
			q := c.query(d, v)
			res, err := c.oracle.Query(q)
			if err != nil {
				c.rep.violate("setup: oracle query %q: %v", q, err)
				continue
			}
			c.expected[q] = res.Doc().String()
		}
	}
}

// monitor samples the tier state for the transition record: every state
// change (not just every distinct state) is appended, so a passing
// campaign's report reads healthy→degraded→healthy→degraded (the final
// degraded being the deliberate at-rest corruption).
func (c *campaign) monitor() {
	defer close(c.monDone)
	last := ""
	note := func() {
		snap, ok := c.sut.Health()
		if !ok {
			return
		}
		s := snap.State.String()
		if s != last {
			last = s
			c.rep.mu.Lock()
			c.rep.StatesSeen = append(c.rep.StatesSeen, s)
			c.rep.mu.Unlock()
		}
	}
	note()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.stopMon:
			note()
			return
		case <-tick.C:
			note()
		}
	}
}

// runQuery issues one query against the SUT and classifies the outcome.
// Successes must be byte-identical to the oracle; failures must carry a
// typed error. allowFail=false turns any failure into a violation.
func (c *campaign) runQuery(ctx context.Context, q string, allowFail bool) {
	res, err := c.sut.QueryContext(ctx, q)
	if err == nil {
		got := res.Doc().String()
		matched := got == c.expected[q]
		c.rep.addQuery(true, matched, false)
		if !matched {
			c.rep.violate("answer diverged from oracle for %q:\n got %s\nwant %s", q, got, c.expected[q])
		}
		return
	}
	typed := errors.Is(err, resilience.ErrCircuitOpen) ||
		errors.Is(err, resilience.ErrDegraded) ||
		errors.Is(err, pagestore.ErrTransient) ||
		errors.Is(err, pagestore.ErrCorrupt) ||
		errors.Is(err, pagestore.ErrUnknownExtent) ||
		errors.Is(err, store.ErrUnreachable) ||
		errors.Is(err, context.DeadlineExceeded)
	c.rep.addQuery(false, false, typed)
	if !typed {
		c.rep.violate("untyped failure for %q: %v", q, err)
	}
	if !allowFail {
		c.rep.violate("query failed in a fault-free phase: %q: %v", q, err)
	}
}

// phaseWarm answers the even versions fault-free, making them
// cache-resident; the odd versions stay cold so the storm exercises both
// the degraded-serve path (cached hit) and the fast-fail path (miss).
func (c *campaign) phaseWarm() {
	c.cfg.Logf("chaos: warm phase")
	ctx := context.Background()
	for d := range c.docs {
		for v := 2; v <= c.cfg.Versions; v += 2 {
			c.runQuery(ctx, c.query(d, v), false)
		}
	}
}

// phaseStorm turns the whole device off underneath concurrent workers.
// Every worker mixes cache-resident (even) and cache-miss (odd) versions;
// once the tier reports degraded, a write must be rejected with the typed
// degraded error.
func (c *campaign) phaseStorm() {
	c.cfg.Logf("chaos: storm phase (outage + %d workers)", c.cfg.Workers)
	c.inj.SetOutage(true)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(c.cfg.Seed + int64(w)*7919))
			ctx := context.Background()
			for i := 0; i < c.cfg.StormOps; i++ {
				d := rnd.Intn(len(c.docs))
				v := 1 + rnd.Intn(c.cfg.Versions)
				c.runQuery(ctx, c.query(d, v), true)
			}
		}(w)
	}
	wg.Wait()

	// The storm must have degraded the tier, and a degraded tier must
	// reject writes typed.
	if snap, _ := c.sut.Health(); snap.State == resilience.Healthy {
		c.rep.violate("storm finished with the tier still healthy: %+v", snap)
		return
	}
	_, _, err := c.sut.Update(c.docs[0], c.tree(0, c.cfg.Versions+1), when(c.cfg.Versions+1))
	if !errors.Is(err, resilience.ErrDegraded) {
		c.rep.violate("write during outage = %v, want ErrDegraded", err)
	}
}

// phaseHeal lifts the outage and keeps querying until half-open probes
// close the breaker and the backend health steps back to healthy.
func (c *campaign) phaseHeal() {
	c.cfg.Logf("chaos: heal phase")
	c.inj.SetOutage(false)
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snap, _ := c.sut.Health(); snap.State == resilience.Healthy {
			return
		}
		if time.Now().After(deadline) {
			snap, _ := c.sut.Health()
			c.rep.violate("tier never recovered after heal: %+v", snap)
			return
		}
		for d := range c.docs {
			for v := 1; v <= c.cfg.Versions; v++ {
				c.runQuery(ctx, c.query(d, v), true)
			}
		}
		time.Sleep(c.cfg.OpenFor / 2)
	}
}

// phaseVerify re-answers everything fault-free (all must match the
// oracle), then commits a new version on both databases and immediately
// checks the SUT is not serving the stale pre-update answer.
func (c *campaign) phaseVerify() {
	c.cfg.Logf("chaos: verify phase")
	ctx := context.Background()
	for d := range c.docs {
		for v := 1; v <= c.cfg.Versions; v++ {
			c.runQuery(ctx, c.query(d, v), false)
		}
	}

	// Write-after-heal: the update must succeed, and the current-version
	// answer must be the new content on both databases (no stale read
	// from the invalidated cache).
	nv := c.cfg.Versions + 1
	t := c.tree(0, nv)
	oid, _ := c.oracle.LookupDoc(c.urls[0])
	if _, _, err := c.oracle.Update(oid, t.Clone(), when(nv)); err != nil {
		c.rep.violate("oracle write after heal: %v", err)
		return
	}
	if _, _, err := c.sut.Update(c.docs[0], t, when(nv)); err != nil {
		c.rep.violate("write after heal = %v, want success", err)
		return
	}
	cur := fmt.Sprintf(`SELECT R FROM doc(%q)/restaurant R`, c.urls[0])
	want, err := c.oracle.Query(cur)
	if err != nil {
		c.rep.violate("oracle current query: %v", err)
		return
	}
	got, err := c.sut.QueryContext(ctx, cur)
	if err != nil {
		c.rep.violate("current query after update: %v", err)
		return
	}
	c.rep.addQuery(true, got.Doc().String() == want.Doc().String(), false)
	if got.Doc().String() != want.Doc().String() {
		c.rep.violate("stale read after completed update:\n got %s\nwant %s",
			got.Doc().String(), want.Doc().String())
	}
	c.expected[cur] = want.Doc().String()
	// The old versions must still answer identically after the write.
	for v := 1; v <= c.cfg.Versions; v++ {
		c.runQuery(ctx, c.query(0, v), false)
	}
}

// phaseLatency injects latency spikes (slow device, not a broken one).
// A fresh commit on doc 1 first invalidates its cache entries, so the
// historical re-reads actually hit the slow backend; everything must
// still succeed and match, and the tier must stay healthy — slowness is
// not failure.
func (c *campaign) phaseLatency() {
	if len(c.docs) < 2 {
		return
	}
	c.cfg.Logf("chaos: latency phase")
	nv := c.cfg.Versions + 1
	t := c.tree(1, nv)
	oid, _ := c.oracle.LookupDoc(c.urls[1])
	if _, _, err := c.oracle.Update(oid, t.Clone(), when(nv)); err != nil {
		c.rep.violate("oracle pre-latency write: %v", err)
		return
	}
	if _, _, err := c.sut.Update(c.docs[1], t, when(nv)); err != nil {
		c.rep.violate("pre-latency write: %v", err)
		return
	}
	c.inj.Script(pagestore.FaultRule{
		Op: pagestore.FaultRead, Kind: pagestore.FaultLatency,
		At: c.inj.Reads() + 1, Count: 64, Delay: 2 * time.Millisecond,
	})
	ctx := context.Background()
	for v := 1; v <= c.cfg.Versions; v++ {
		c.runQuery(ctx, c.query(1, v), false)
	}
	if snap, _ := c.sut.Health(); snap.State != resilience.Healthy {
		c.rep.violate("latency spikes degraded the tier: %+v", snap)
	}
}

// phaseCorruption flips a bit in a delta extent at rest, invalidates the
// cache with a fresh write, and checks: reads through the damage fail
// typed (never return wrong bytes), Fsck finds it and pins the tier
// degraded, further writes are rejected, and cache-resident answers from
// other documents still serve.
func (c *campaign) phaseCorruption() {
	c.cfg.Logf("chaos: corruption phase")
	ctx := context.Background()
	// A write invalidates doc 0's cache so the corrupt extent is actually
	// read (cached answers would mask the damage — by design).
	nv := c.cfg.Versions + 2
	t := c.tree(0, nv)
	oid, _ := c.oracle.LookupDoc(c.urls[0])
	if _, _, err := c.oracle.Update(oid, t.Clone(), when(nv)); err != nil {
		c.rep.violate("oracle pre-corruption write: %v", err)
		return
	}
	if _, _, err := c.sut.Update(c.docs[0], t, when(nv)); err != nil {
		c.rep.violate("pre-corruption write: %v", err)
		return
	}
	vers, err := c.sut.Versions(c.docs[0])
	if err != nil {
		c.rep.violate("versions of doc 0: %v", err)
		return
	}
	victim := vers[1] // delta 2→3: versions 1 and 2 become unreachable
	if victim.DeltaToNext.Zero() {
		c.rep.violate("no delta extent to corrupt at version %d", victim.Ver)
		return
	}
	if err := c.inj.CorruptExtent(victim.DeltaToNext.Start); err != nil {
		c.rep.violate("corrupt extent: %v", err)
		return
	}

	// Reading through the damaged chain must fail typed, never answer.
	if res, err := c.sut.QueryContext(ctx, c.query(0, 2)); err == nil {
		got := res.Doc().String()
		if got != c.expected[c.query(0, 2)] {
			c.rep.violate("corrupt extent produced a wrong answer: %s", got)
		}
	} else if !errors.Is(err, store.ErrUnreachable) && !errors.Is(err, pagestore.ErrCorrupt) {
		c.rep.violate("read through corruption = %v, want ErrUnreachable/ErrCorrupt", err)
	}

	// Fsck names the damage and pins the tier degraded (sticky until a
	// clean walk); writes are rejected while corrupt.
	rep := c.sut.Fsck()
	if rep.Clean() {
		c.rep.violate("fsck missed the corrupt extent")
	}
	if snap, _ := c.sut.Health(); snap.State != resilience.Degraded {
		c.rep.violate("tier not degraded after dirty fsck: %+v", snap)
	}
	if _, _, err := c.sut.Update(c.docs[0], c.tree(0, nv+1), when(nv+1)); !errors.Is(err, resilience.ErrDegraded) {
		c.rep.violate("write after corruption = %v, want ErrDegraded", err)
	}
	// Undamaged documents still answer (degraded serving), identically.
	for d := 1; d < len(c.docs); d++ {
		c.runQuery(ctx, c.query(d, 2), false)
	}
}

// checkTransitions requires the campaign to have passed through
// healthy → degraded and back to healthy before the final, deliberate
// corruption phase (whose sticky degradation is the expected end state).
func (c *campaign) checkTransitions() {
	c.rep.mu.Lock()
	states := append([]string(nil), c.rep.StatesSeen...)
	c.rep.mu.Unlock()
	degradedAt := -1
	recovered := false
	for i, s := range states {
		switch s {
		case "degraded", "failing":
			if degradedAt < 0 {
				degradedAt = i
			}
		case "healthy":
			if degradedAt >= 0 {
				recovered = true
			}
		}
	}
	if degradedAt < 0 || !recovered {
		c.rep.violate("campaign did not record healthy→degraded→healthy: %v", states)
	}
}

// CrashAndReopen is the torture loop composing WAL recovery with the
// resilience tier: for each round it runs a seeded write workload against
// a durable database, recording the WAL size and the full rendered state
// after every commit, then crashes at a seeded byte offset (truncating a
// copy of the log), reopens, and requires the recovered state to be
// byte-identical to the last wholly-committed state at or before the cut,
// Fsck to pass, the tier to report healthy, and a further write to
// succeed.
func CrashAndReopen(dir string, seed int64, rounds int) *Report {
	rep := &Report{Seed: seed}
	rnd := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		if err := crashRound(dir, round, rnd, rep); err != nil {
			rep.violate("round %d: %v", round, err)
		}
	}
	return rep
}

// render captures the full observable state of a database: document name
// -> every version's XML, in version order.
func render(db *core.DB) (map[string][]string, error) {
	out := make(map[string][]string)
	docs := db.Docs()
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for _, id := range docs {
		info, err := db.Info(id)
		if err != nil {
			return nil, err
		}
		vs, err := db.Versions(id)
		if err != nil {
			return nil, err
		}
		var imgs []string
		for _, v := range vs {
			vt, err := db.ReconstructVersion(id, v.Ver)
			if err != nil {
				return nil, fmt.Errorf("reconstruct %s v%d: %w", info.Name, v.Ver, err)
			}
			imgs = append(imgs, vt.Root.String())
		}
		out[info.Name] = imgs
	}
	return out, nil
}

func equalStates(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// segmentPaths lists the segmented log's files in dir, in sequence order.
func segmentPaths(dir string) ([]string, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(segs)
	return segs, nil
}

// logSize sums the sizes of the segmented log in dir.
func logSize(dir string) (int64, error) {
	segs, err := segmentPaths(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// truncateLog copies the segmented log of src into dst, cut to the first
// `cut` cumulative bytes: whole segments below the cut are copied intact,
// the segment containing it is truncated, everything beyond is dropped —
// exactly what a crash after the last durable write at that offset leaves.
func truncateLog(src, dst string, cut int64) error {
	segs, err := segmentPaths(src)
	if err != nil {
		return err
	}
	remaining := cut
	for _, s := range segs {
		data, err := os.ReadFile(s)
		if err != nil {
			return err
		}
		if int64(len(data)) > remaining {
			data = data[:remaining]
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(s)), data, 0o644); err != nil {
			return err
		}
		remaining -= int64(len(data))
		if remaining <= 0 {
			break
		}
	}
	return nil
}

func crashRound(dir string, round int, rnd *rand.Rand, rep *Report) error {
	resCfg := resilience.Config{Enabled: true}
	work := filepath.Join(dir, fmt.Sprintf("round-%d", round))
	db, err := core.OpenDurable(core.Config{Resilience: resCfg}, work)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}

	// The workload: two documents, interleaved updates — one golden
	// (offset, state) pair per commit.
	type golden struct {
		offset int64
		state  map[string][]string
	}
	goldens := []golden{{0, map[string][]string{}}}
	snap := func() error {
		st, err := render(db)
		if err != nil {
			return err
		}
		size, err := logSize(work)
		if err != nil {
			return err
		}
		goldens = append(goldens, golden{size, st})
		return nil
	}
	mk := func(v int) *xmltree.Node {
		g := xmltree.Elem("guide")
		for i := 0; i < 2+v%2; i++ {
			g.AppendChild(xmltree.Elem("restaurant",
				xmltree.ElemText("name", fmt.Sprintf("T%d_%d", round, i)),
				xmltree.ElemText("price", fmt.Sprint(10+rnd.Intn(50)))))
		}
		return g
	}
	ids := make([]model.DocID, 2)
	commit := 0
	for d := 0; d < 2; d++ {
		id, err := db.Put(fmt.Sprintf("torture-%d.xml", d), mk(commit), when(commit+1))
		if err != nil {
			db.Close()
			return fmt.Errorf("put: %w", err)
		}
		ids[d] = id
		commit++
		if err := snap(); err != nil {
			db.Close()
			return err
		}
	}
	for i := 0; i < 4; i++ {
		if _, _, err := db.Update(ids[i%2], mk(commit), when(commit+1)); err != nil {
			db.Close()
			return fmt.Errorf("update: %w", err)
		}
		commit++
		if err := snap(); err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	// Crash: truncate a copy of the log at a seeded offset.
	total, err := logSize(work)
	if err != nil {
		return err
	}
	cut := int64(rnd.Intn(int(total) + 1))
	want := goldens[0]
	for _, g := range goldens {
		if g.offset <= cut {
			want = g
		}
	}
	crashDir := filepath.Join(work, "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		return err
	}
	if err := truncateLog(work, crashDir, cut); err != nil {
		return err
	}

	rdb, err := core.OpenDurable(core.Config{Resilience: resCfg}, crashDir)
	if err != nil {
		return fmt.Errorf("reopen at cut %d: %w", cut, err)
	}
	defer rdb.Close()
	got, err := render(rdb)
	if err != nil {
		rep.violate("round %d cut %d: recovered state unreadable: %v", round, cut, err)
		return nil
	}
	if !equalStates(got, want.state) {
		rep.violate("round %d cut %d: recovered state != last commit at offset %d:\n got %v\nwant %v",
			round, cut, want.offset, got, want.state)
	}
	if fr := rdb.Fsck(); !fr.Clean() {
		rep.violate("round %d cut %d: fsck after recovery:\n%s", round, cut, fr)
	}
	if snap, ok := rdb.Health(); !ok || snap.State != resilience.Healthy {
		rep.violate("round %d cut %d: tier not healthy after recovery: %+v (ok=%v)", round, cut, snap, ok)
	}
	// Recovery composes with new writes: the reopened database accepts a
	// further commit (on a recovered doc when one survived the cut).
	if len(got) > 0 {
		var name string
		for n := range got {
			if name == "" || n < name {
				name = n
			}
		}
		id, ok := rdb.LookupDoc(name)
		if !ok {
			rep.violate("round %d cut %d: recovered doc %q not resolvable", round, cut, name)
			return nil
		}
		if _, _, err := rdb.Update(id, mk(commit), when(commit+2)); err != nil {
			rep.violate("round %d cut %d: write after recovery: %v", round, cut, err)
		}
	} else if _, err := rdb.Put("post-crash.xml", mk(commit), when(commit+2)); err != nil {
		rep.violate("round %d cut %d: put after recovery: %v", round, cut, err)
	}
	return nil
}
