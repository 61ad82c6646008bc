package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/resilience"
	"txmldb/internal/shard"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// ShardOutageConfig parameterizes the sharded-engine outage campaign.
// Zero values take the defaults noted.
type ShardOutageConfig struct {
	// Seed makes the campaign reproducible. Default 1.
	Seed int64
	// Shards is the number of partitioned engines (default 3).
	Shards int
	// Docs and Versions size the corpus (defaults 6 and 5).
	Docs     int
	Versions int
	// Workers is the concurrent query workers during the outage
	// (default 4).
	Workers int
	// Ops is how many queries each worker issues during the outage
	// (default 30).
	Ops int
	// OpenFor is each shard's breaker open window (default 25ms).
	OpenFor time.Duration
	// Logf receives phase progress lines; nil disables.
	Logf func(format string, args ...any)
}

func (c ShardOutageConfig) withDefaults() ShardOutageConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Docs <= 0 {
		c.Docs = 6
	}
	if c.Versions <= 0 {
		c.Versions = 5
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Ops <= 0 {
		c.Ops = 30
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 25 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// soCampaign is the running state of one shard-outage campaign.
type soCampaign struct {
	cfg    ShardOutageConfig
	rep    *Report
	oracle *core.DB      // fault-free single engine, the identity oracle
	sut    *shard.Router // the sharded ensemble under fault
	inj    []*pagestore.Injector

	urls        []string
	docs        []model.DocID // global ids (identical on oracle and SUT)
	victim      int           // the shard whose backend dies
	victimDocs  []int         // doc numbers homed on the victim
	healthyDocs []int         // doc numbers homed elsewhere
	expected    map[string]string
	goldScan    string // TPatternScanAll + ReconstructBatch signature
	goldMatches string // raw ScanAll merge (index-only, no backend IO)
}

// RunShardOutage executes the seeded shard-outage campaign: a sharded
// router (one fault injector per shard engine) loaded with a deterministic
// corpus, one shard's backend killed under concurrent load, then healed.
// The invariants are the sharding tier's failure-semantics contract:
//
//   - single-document queries for documents homed on healthy shards stay
//     byte-identical to a fault-free single-engine oracle throughout the
//     outage — a dead shard is invisible to the rest of the keyspace,
//   - queries touching the dead shard's backend fail typed (the shard's
//     resilience errors propagate through the router), never silently
//     partial and never wrong,
//   - index-only multi-document scans (the temporal FTI is in-memory)
//     keep answering identically during the outage, while multi-document
//     pipelines that must reconstruct on the dead shard fail typed,
//   - aggregate health degrades — one dead shard of N reports Degraded,
//     not Failing — and recovers to Healthy on its own after the fault
//     clears, after which every answer is byte-identical again and the
//     healed shard accepts writes.
func RunShardOutage(cfg ShardOutageConfig) *Report {
	cfg = cfg.withDefaults()
	c := &soCampaign{
		cfg:      cfg,
		rep:      &Report{Seed: cfg.Seed},
		expected: make(map[string]string),
	}
	if !c.setup() {
		return c.rep
	}
	defer c.sut.Close()
	defer c.oracle.Close()

	c.phaseBaseline()
	c.phaseOutage()
	c.phaseHealVerify()
	return c.rep
}

func (c *soCampaign) note(state string) {
	c.rep.mu.Lock()
	if n := len(c.rep.StatesSeen); n == 0 || c.rep.StatesSeen[n-1] != state {
		c.rep.StatesSeen = append(c.rep.StatesSeen, state)
	}
	c.rep.mu.Unlock()
}

// setup builds the oracle and the sharded SUT (per-shard injector and
// resilience tier), loads the deterministic corpus into both, and records
// golden answers. Returns false if the corpus cannot support the campaign.
func (c *soCampaign) setup() bool {
	clock := func() model.Time { return model.Date(2001, 6, 1) }
	c.oracle = core.Open(core.Config{Clock: clock})
	c.inj = make([]*pagestore.Injector, c.cfg.Shards)
	for i := range c.inj {
		c.inj[i] = pagestore.NewInjector(pagestore.NewMemory(), c.cfg.Seed+int64(i))
	}
	c.sut = shard.Open(shard.Config{
		Shards: c.cfg.Shards,
		Engine: func(i int) core.Config {
			return core.Config{
				Clock: clock,
				Store: store.Config{
					Pages:        pagestore.Config{Backend: c.inj[i]},
					ReadRetries:  1,
					RetryBackoff: 100 * time.Microsecond,
					RetrySeed:    c.cfg.Seed + int64(i),
				},
				Resilience: resilience.Config{
					Enabled: true,
					Breaker: resilience.BreakerConfig{
						FailureThreshold: 5,
						OpenFor:          c.cfg.OpenFor,
						ProbeSuccesses:   2,
					},
					Health: resilience.HealthConfig{DegradeAfter: 3, FailAfter: 1 << 30, RecoverAfter: 3},
				},
			}
		},
	})

	camp := &campaign{cfg: Config{Seed: c.cfg.Seed}} // reuse the tree generator
	for d := 0; d < c.cfg.Docs; d++ {
		url := fmt.Sprintf("http://chaos.test/sharded-%d.xml", d)
		c.urls = append(c.urls, url)
		for v := 1; v <= c.cfg.Versions; v++ {
			t := camp.tree(d, v)
			if v == 1 {
				oid, err := c.oracle.Put(url, t.Clone(), when(v))
				if err != nil {
					c.rep.violate("setup: oracle put doc %d: %v", d, err)
					return false
				}
				gid, err := c.sut.Put(url, t, when(v))
				if err != nil {
					c.rep.violate("setup: sut put doc %d: %v", d, err)
					return false
				}
				if gid != oid {
					c.rep.violate("setup: doc %d: sharded global id %d != single-engine id %d", d, gid, oid)
					return false
				}
				c.docs = append(c.docs, gid)
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

	// The victim is doc 0's home shard; the campaign needs traffic for
	// both sides of the partition.
	c.victim = c.sut.HomeShard(c.urls[0])
	for d, url := range c.urls {
		if c.sut.HomeShard(url) == c.victim {
			c.victimDocs = append(c.victimDocs, d)
		} else {
			c.healthyDocs = append(c.healthyDocs, d)
		}
	}
	if len(c.healthyDocs) == 0 {
		c.rep.violate("setup: every document homed on shard %d — corpus cannot exercise a partial outage", c.victim)
		return false
	}

	var err error
	c.goldScan, err = c.scanSignature(c.oracle)
	if err != nil {
		c.rep.violate("setup: oracle scan signature: %v", err)
		return false
	}
	c.goldMatches, err = c.matchSignature(c.oracle)
	if err != nil {
		c.rep.violate("setup: oracle match signature: %v", err)
		return false
	}
	c.cfg.Logf("shard outage: %d shards, victim %d homes docs %v, healthy side %v",
		c.cfg.Shards, c.victim, c.victimDocs, c.healthyDocs)
	return true
}

func (c *soCampaign) query(d, v int) string {
	return fmt.Sprintf(`SELECT R FROM doc(%q)[%02d/01/2001]/restaurant R`, c.urls[d], v)
}

func (c *soCampaign) pattern() *pattern.PNode {
	r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
}

// scanEngine is the multi-document surface shared by *core.DB and the
// router, so golden signatures and SUT signatures render identically.
type scanEngine interface {
	TPatternScanAll(p *pattern.PNode) ([]model.TEID, error)
	ScanAllContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error)
	ReconstructBatch(ctx context.Context, teids []model.TEID) ([]*xmltree.Node, error)
}

// scanSignature renders the full TPatternScanAll → ReconstructBatch
// pipeline: the reconstruction-bearing multi-document operator.
func (c *soCampaign) scanSignature(db scanEngine) (string, error) {
	teids, err := db.TPatternScanAll(c.pattern())
	if err != nil {
		return "", err
	}
	trees, err := db.ReconstructBatch(context.Background(), teids)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, n := range trees {
		fmt.Fprintf(&b, "%s=%s\n", teids[i], n.String())
	}
	return b.String(), nil
}

// matchSignature renders the raw ScanAll merge — index-only, the temporal
// FTI lives in memory, so this must keep working with a dead backend.
func (c *soCampaign) matchSignature(db scanEngine) (string, error) {
	ms, err := db.ScanAllContext(context.Background(), c.pattern())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "doc=%d span=[%s,%s)\n", m.Doc, m.Span.Start, m.Span.End)
	}
	return b.String(), nil
}

func typedShardErr(err error) bool {
	return errors.Is(err, resilience.ErrCircuitOpen) ||
		errors.Is(err, resilience.ErrDegraded) ||
		errors.Is(err, pagestore.ErrTransient) ||
		errors.Is(err, pagestore.ErrCorrupt) ||
		errors.Is(err, pagestore.ErrUnknownExtent) ||
		errors.Is(err, store.ErrUnreachable)
}

// runQuery issues one query against the router and classifies the outcome
// exactly as the single-engine campaign does.
func (c *soCampaign) runQuery(q string, allowFail bool) {
	res, err := c.sut.Query(q)
	if err == nil {
		got := res.Doc().String()
		matched := got == c.expected[q]
		c.rep.addQuery(true, matched, false)
		if !matched {
			c.rep.violate("answer diverged from oracle for %q:\n got %s\nwant %s", q, got, c.expected[q])
		}
		return
	}
	typed := typedShardErr(err)
	c.rep.addQuery(false, false, typed)
	if !typed {
		c.rep.violate("untyped failure for %q: %v", q, err)
	}
	if !allowFail {
		c.rep.violate("query failed in a fault-free phase: %q: %v", q, err)
	}
}

// phaseBaseline verifies full byte-identity before any fault: every
// snapshot query and both multi-document signatures.
func (c *soCampaign) phaseBaseline() {
	c.cfg.Logf("shard outage: baseline phase")
	for d := range c.docs {
		for v := 1; v <= c.cfg.Versions; v++ {
			c.runQuery(c.query(d, v), false)
		}
	}
	if got, err := c.scanSignature(c.sut); err != nil {
		c.rep.violate("baseline: sharded scan pipeline: %v", err)
	} else if got != c.goldScan {
		c.rep.violate("baseline: sharded scan pipeline diverges from the single engine")
	}
	if got, err := c.matchSignature(c.sut); err != nil {
		c.rep.violate("baseline: sharded ScanAll: %v", err)
	} else if got != c.goldMatches {
		c.rep.violate("baseline: sharded ScanAll merge diverges from the single engine")
	}
	if snap, ok := c.sut.Health(); !ok {
		c.rep.violate("baseline: sharded health not reported")
	} else {
		c.note(snap.State.String())
	}
}

// phaseOutage kills the victim shard's backend under concurrent load and
// checks the partial-failure contract.
func (c *soCampaign) phaseOutage() {
	c.cfg.Logf("shard outage: killing shard %d backend", c.victim)
	c.inj[c.victim].SetOutage(true)

	// Trip the victim's breaker and degrade its health tier with cold
	// reads (old versions reconstruct through the dead backend).
	for i := 0; i < 8; i++ {
		c.runQuery(c.query(c.victimDocs[0], 1), true)
	}

	// Concurrent storm: every worker interleaves healthy-shard queries
	// (must stay oracle-identical), victim queries (typed failure or a
	// matched cache hit) and the index-only multi-document scan (must
	// keep answering identically — the FTI never touches the backend).
	done := make(chan struct{})
	for w := 0; w < c.cfg.Workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < c.cfg.Ops; i++ {
				d := c.healthyDocs[(w+i)%len(c.healthyDocs)]
				c.runQuery(c.query(d, 1+(w+i)%c.cfg.Versions), false)
				vd := c.victimDocs[(w+i)%len(c.victimDocs)]
				c.runQuery(c.query(vd, 1+(w+i)%c.cfg.Versions), true)
				if got, err := c.matchSignature(c.sut); err != nil {
					c.rep.violate("outage: index-only ScanAll failed: %v", err)
				} else if got != c.goldMatches {
					c.rep.violate("outage: index-only ScanAll diverged")
				}
			}
		}(w)
	}
	for w := 0; w < c.cfg.Workers; w++ {
		<-done
	}

	// The reconstruction-bearing multi-document pipeline must fail typed,
	// naming the sick shard — never a silently partial result.
	if _, err := c.scanSignature(c.sut); err == nil {
		c.rep.violate("outage: multi-document reconstruction pipeline succeeded with a dead shard backend")
	} else if !typedShardErr(err) {
		c.rep.violate("outage: multi-document pipeline failed untyped: %v", err)
	} else {
		c.rep.addQuery(false, false, true)
	}

	// Writes: the healthy side keeps accepting them.
	hd := c.healthyDocs[0]
	t := (&campaign{cfg: Config{Seed: c.cfg.Seed}}).tree(hd, c.cfg.Versions+1)
	oid, _ := c.oracle.LookupDoc(c.urls[hd])
	if _, _, err := c.oracle.Update(oid, t.Clone(), when(c.cfg.Versions+1)); err != nil {
		c.rep.violate("outage: oracle update: %v", err)
	}
	if _, _, err := c.sut.Update(c.docs[hd], t, when(c.cfg.Versions+1)); err != nil {
		c.rep.violate("outage: write to a healthy shard failed: %v", err)
	}
	if res, err := c.oracle.Query(c.query(hd, c.cfg.Versions+1)); err == nil {
		c.expected[c.query(hd, c.cfg.Versions+1)] = res.Doc().String()
	}

	// Aggregate health: one dead shard of N is Degraded, never Failing —
	// /readyz keeps the instance in rotation for the rest of the keyspace.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap, ok := c.sut.Health()
		if !ok {
			c.rep.violate("outage: sharded health not reported")
			break
		}
		if snap.State == resilience.Failing {
			c.rep.violate("outage: one dead shard of %d reported aggregate Failing", c.cfg.Shards)
			break
		}
		if snap.State == resilience.Degraded {
			c.note(snap.State.String())
			c.rep.mu.Lock()
			c.rep.BreakerOpens = snap.Breaker.Opens
			c.rep.mu.Unlock()
			break
		}
		if time.Now().After(deadline) {
			c.rep.violate("outage: aggregate health never left %s", snap.State)
			break
		}
		c.runQuery(c.query(c.victimDocs[0], 1), true)
		time.Sleep(time.Millisecond)
	}
	if !c.sut.DegradedMode() {
		c.rep.violate("outage: router DegradedMode() false with a dead shard")
	}
}

// phaseHealVerify clears the fault, waits for the victim shard's breaker
// probes to recover the tier, and verifies full byte-identity again.
func (c *soCampaign) phaseHealVerify() {
	c.cfg.Logf("shard outage: healing shard %d", c.victim)
	c.inj[c.victim].SetOutage(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, ok := c.sut.Health()
		if ok && snap.State == resilience.Healthy {
			c.note(snap.State.String())
			break
		}
		if time.Now().After(deadline) {
			if ok {
				c.rep.violate("heal: ensemble stuck in %s", snap.State)
			}
			break
		}
		// Probe traffic through the healed backend.
		c.runQuery(c.query(c.victimDocs[0], 1), true)
		time.Sleep(2 * time.Millisecond)
	}

	for d := range c.docs {
		for v := 1; v <= c.cfg.Versions; v++ {
			c.runQuery(c.query(d, v), false)
		}
	}
	if got, err := c.scanSignature(c.sut); err != nil {
		c.rep.violate("heal: scan pipeline still failing: %v", err)
	} else {
		// The outage-phase write changed one healthy-side document, so the
		// signature is re-derived from the (equally updated) oracle.
		want, err := c.scanSignature(c.oracle)
		if err != nil {
			c.rep.violate("heal: oracle scan signature: %v", err)
		} else if got != want {
			c.rep.violate("heal: scan pipeline diverges from the single engine after recovery")
		}
	}

	// The healed shard accepts writes again and serves them identically.
	vd := c.victimDocs[0]
	t := (&campaign{cfg: Config{Seed: c.cfg.Seed}}).tree(vd, c.cfg.Versions+2)
	oid, _ := c.oracle.LookupDoc(c.urls[vd])
	if _, _, err := c.oracle.Update(oid, t.Clone(), when(c.cfg.Versions+2)); err != nil {
		c.rep.violate("heal: oracle update: %v", err)
	}
	if _, _, err := c.sut.Update(c.docs[vd], t, when(c.cfg.Versions+2)); err != nil {
		c.rep.violate("heal: write to the healed shard failed: %v", err)
	}
	q := c.query(vd, c.cfg.Versions+2)
	if res, err := c.oracle.Query(q); err == nil {
		c.expected[q] = res.Doc().String()
	}
	c.runQuery(q, false)

	if snap, ok := c.sut.Health(); ok {
		c.rep.mu.Lock()
		c.rep.DegradedServes = snap.DegradedServes
		if snap.Breaker.Opens > c.rep.BreakerOpens {
			c.rep.BreakerOpens = snap.Breaker.Opens
		}
		c.rep.mu.Unlock()
	}
}
