// Package shard is the horizontal scale-out tier of the temporal XML
// database: a router that owns N independent core.DB engines (each with
// its own version store, WAL, vcache and checkpoint schedule), partitions
// documents across them, and exposes the exact query surface of a single
// engine — plan's executor, the public facade and txserved all run
// unmodified on top of it. The router implements and routes only the
// primitives (core.Primitives); the operators of Section 6.1 are composed
// over them by the core.Operators it embeds, the same code core.DB runs.
//
// Partitioning and identity. A document's home shard is the FNV-1a hash
// of its URL modulo the shard count, so placement is stable across
// restarts and independent of insertion order. Each engine assigns its
// own dense local DocIDs, so the router also maintains a global DocID
// space: globals are allocated in put order (1, 2, 3, …) — exactly the
// IDs a single unsharded engine would have assigned — and a two-way
// map translates global↔(shard, local) on every operator boundary. That
// is what makes scatter-gathered results byte-identical to a single
// engine at every shard count: merged matches sorted by global DocID
// reproduce the single engine's ascending-DocID merge order, TEIDs
// included.
//
// Durability. A durable router lives under one root directory holding a
// shards.json manifest (the shard count is part of the on-disk format;
// reopening with a different -shards fails with ErrShardCountMismatch),
// one shard-%02d/ subdirectory per engine, and docmap.log — an
// append-only record of every put (global, shard, local, url) replayed
// on open to rebuild the global DocID space in its original order. The
// log is appended after the shard's WAL commit; a crash between the two
// leaves an orphaned shard document, which reopen detects by comparing
// per-shard document counts and deterministically re-adopts at the tail
// of the global sequence.
//
// Failure semantics. Single-document operators touch one shard: an
// outage elsewhere is invisible to them. Multi-document operators
// scatter to every shard and fail typed (propagating the sick shard's
// resilience errors) rather than silently returning partial results.
// Health aggregates the same way /readyz reports it: one failing shard
// degrades the service, it does not take it down; only every shard
// failing does.
package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/parallel"
	"txmldb/internal/plan"
	"txmldb/internal/resilience"
)

// Typed errors, matched with errors.Is.
var (
	// ErrShardCountMismatch reports a durable root opened with a shard
	// count different from the one recorded in its manifest. The shard
	// count is part of the on-disk format: documents are placed by
	// hash(url) mod N, so reading with a different N would route lookups
	// to the wrong engines.
	ErrShardCountMismatch = errors.New("shard: shard count differs from the manifest")
	// ErrUnknownDoc reports a global DocID outside the allocated space.
	ErrUnknownDoc = errors.New("shard: unknown document")
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the number of engine instances (default 1).
	Shards int
	// Engine supplies the i-th engine's configuration (its own cache,
	// workers, resilience and checkpoint schedule). Nil means the zero
	// core.Config for every shard. Clocks should agree across shards.
	Engine func(i int) core.Config
	// Workers bounds the router's scatter-gather pool — the concurrency
	// of multi-document fan-out across shards. 0 defaults to the shard
	// count (full fan-out); 1 forces the inline sequential path, whose
	// results every parallel run reproduces byte-for-byte.
	Workers int
	// ShardInflight bounds operations concurrently inside any one shard
	// (per-shard admission; default 32). Excess operations queue.
	ShardInflight int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Shards
	}
	if c.ShardInflight <= 0 {
		c.ShardInflight = 32
	}
	return c
}

func (c Config) engineConfig(i int) core.Config {
	if c.Engine == nil {
		return core.Config{}
	}
	return c.Engine(i)
}

// loc is the physical address of a global DocID.
type loc struct {
	shard int
	local model.DocID
}

// gate is the per-shard admission control: a counting semaphore with
// queue-depth and throughput counters feeding the txserved_shard_*
// metrics. Acquisition blocks (backpressure), it never rejects — the
// server's own two-level gate bounds total load above this.
type gate struct {
	sem    chan struct{}
	active atomic.Int64
	queued atomic.Int64
	total  atomic.Int64
}

func newGate(capacity int) *gate {
	return &gate{sem: make(chan struct{}, capacity)}
}

// enter admits one operation and returns its release function.
func (g *gate) enter() func() {
	g.total.Add(1)
	g.queued.Add(1)
	g.sem <- struct{}{}
	g.queued.Add(-1)
	g.active.Add(1)
	return func() {
		g.active.Add(-1)
		<-g.sem
	}
}

// Router partitions documents across N engines and scatter-gathers the
// multi-document temporal operators. It implements plan.Engine and the
// server's engine surface, so it is a drop-in engine for the query
// planner and the HTTP server.
type Router struct {
	core.Operators // the operators of Section 6.1, composed over the routed primitives

	cfg    Config
	n      int
	shards []*core.DB
	gates  []*gate
	pool   *parallel.Pool

	// mu guards the global DocID space. Writers hold it exclusively for
	// the whole put (global allocation order must equal shard commit
	// order for the docmap to replay deterministically); readers only
	// hold it around map access, never across engine calls.
	mu     sync.RWMutex
	homes  []loc           // homes[g-1] locates global DocID g
	toGlob [][]model.DocID // toGlob[s][l-1] is the global of shard s's local l
	logf   *os.File        // docmap.log appender; nil on in-memory routers
	logw   *bufio.Writer
}

var _ plan.Engine = (*Router)(nil)

// Open creates an empty in-memory sharded database.
func Open(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := newRouter(cfg)
	for i := 0; i < cfg.Shards; i++ {
		r.shards[i] = core.Open(cfg.engineConfig(i))
	}
	return r
}

func newRouter(cfg Config) *Router {
	r := &Router{
		cfg:    cfg,
		n:      cfg.Shards,
		shards: make([]*core.DB, cfg.Shards),
		gates:  make([]*gate, cfg.Shards),
		toGlob: make([][]model.DocID, cfg.Shards),
		pool:   parallel.New(parallel.Config{Workers: cfg.Workers}),
	}
	for i := range r.gates {
		r.gates[i] = newGate(cfg.ShardInflight)
	}
	r.Operators = core.NewOperators(r, r.pool)
	return r
}

// manifest is the shards.json root manifest.
type manifest struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

const (
	manifestName = "shards.json"
	docmapName   = "docmap.log"
)

// ShardDirName returns the subdirectory name of shard i under a durable
// root ("shard-00", "shard-01", …).
func ShardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// Layout inspects a durable root directory. It returns the shard count
// and the shard data directories when root holds a sharded database
// (a shards.json manifest), and ok=false when it does not (a plain
// single-engine datadir).
func Layout(root string) (shards int, dirs []string, ok bool, err error) {
	data, rerr := os.ReadFile(filepath.Join(root, manifestName))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return 0, nil, false, nil
		}
		return 0, nil, false, rerr
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, nil, false, fmt.Errorf("shard: bad manifest %s: %w", manifestName, err)
	}
	if m.Shards < 1 {
		return 0, nil, false, fmt.Errorf("shard: bad manifest %s: %d shards", manifestName, m.Shards)
	}
	for i := 0; i < m.Shards; i++ {
		dirs = append(dirs, filepath.Join(root, ShardDirName(i)))
	}
	return m.Shards, dirs, true, nil
}

// OpenDurable opens (or creates) a durable sharded database under root:
// one write-ahead-logged engine per shard-%02d subdirectory, plus the
// shard-count manifest and the global DocID map. Reopening an existing
// root with a different Config.Shards fails with ErrShardCountMismatch.
func OpenDurable(cfg Config, root string) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, err
	}
	mpath := filepath.Join(root, manifestName)
	if data, err := os.ReadFile(mpath); err == nil {
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("shard: bad manifest %s: %w", mpath, err)
		}
		if m.Shards != cfg.Shards {
			return nil, fmt.Errorf("%w: manifest has %d, Config.Shards is %d",
				ErrShardCountMismatch, m.Shards, cfg.Shards)
		}
	} else if os.IsNotExist(err) {
		data, _ := json.Marshal(manifest{Format: 1, Shards: cfg.Shards})
		if err := os.WriteFile(mpath, append(data, '\n'), 0o666); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	r := newRouter(cfg)
	opened := 0
	var err error
	for i := 0; i < cfg.Shards; i++ {
		r.shards[i], err = core.OpenDurable(cfg.engineConfig(i), filepath.Join(root, ShardDirName(i)))
		if err != nil {
			err = fmt.Errorf("shard %d: %w", i, err)
			break
		}
		opened++
	}
	if err != nil {
		for i := 0; i < opened; i++ {
			r.shards[i].Close()
		}
		return nil, err
	}
	if err := r.recoverDocmap(filepath.Join(root, docmapName)); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// recoverDocmap replays docmap.log, verifies it against the opened
// shards, re-adopts orphaned documents (committed to a shard's WAL but
// lost from the log by a crash between the two appends), and leaves the
// log open for appending.
func (r *Router) recoverDocmap(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var g, s, l uint64
		var url string
		if _, err := fmt.Sscanf(text, "%d %d %d %s", &g, &s, &l, &url); err != nil {
			f.Close()
			return fmt.Errorf("shard: %s:%d: bad record %q: %v", docmapName, line, text, err)
		}
		if int(s) >= r.n {
			f.Close()
			return fmt.Errorf("shard: %s:%d: shard %d out of range (have %d)", docmapName, line, s, r.n)
		}
		if g != uint64(len(r.homes)+1) {
			f.Close()
			return fmt.Errorf("shard: %s:%d: global %d out of order (want %d)", docmapName, line, g, len(r.homes)+1)
		}
		r.adopt(int(s), model.DocID(l))
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return err
	}
	// Verify and reconcile: every shard document must be in the map. A
	// record can only be missing at the very tail of a shard's sequence
	// (the log is appended after the WAL commit), so re-adopting in
	// (shard, local) order is deterministic.
	r.logf, r.logw = f, bufio.NewWriter(f)
	for s, db := range r.shards {
		locals := db.Docs()
		for _, l := range locals {
			if int(l) > len(r.toGlob[s]) || r.toGlob[s][l-1] == 0 {
				info, err := db.Info(l)
				if err != nil {
					return fmt.Errorf("shard %d: doc %d missing from docmap and unreadable: %v", s, l, err)
				}
				g := r.adopt(s, l)
				if err := r.appendRecord(g, s, l, info.Name); err != nil {
					return err
				}
			}
		}
		if len(locals) != len(r.toGlob[s]) {
			return fmt.Errorf("shard %d: %s lists %d documents, engine has %d",
				s, docmapName, len(r.toGlob[s]), len(locals))
		}
	}
	return nil
}

// adopt appends the next global DocID for shard s's local l and returns
// it. Caller holds mu (or is single-threaded during open).
func (r *Router) adopt(s int, l model.DocID) model.DocID {
	g := model.DocID(len(r.homes) + 1)
	r.homes = append(r.homes, loc{shard: s, local: l})
	for len(r.toGlob[s]) < int(l) {
		r.toGlob[s] = append(r.toGlob[s], 0)
	}
	r.toGlob[s][l-1] = g
	return g
}

// appendRecord durably appends one docmap record. Caller holds mu.
func (r *Router) appendRecord(g model.DocID, s int, l model.DocID, url string) error {
	if r.logf == nil {
		return nil
	}
	if _, err := fmt.Fprintf(r.logw, "%d %d %d %s\n", g, s, l, url); err != nil {
		return err
	}
	if err := r.logw.Flush(); err != nil {
		return err
	}
	return r.logf.Sync()
}

// homeShard places a URL: FNV-1a mod shard count, stable across restarts
// and independent of insertion order.
func (r *Router) homeShard(url string) int {
	h := fnv.New32a()
	h.Write([]byte(url))
	return int(h.Sum32() % uint32(r.n))
}

// HomeShard reports which shard a URL routes to (exported for the
// routing tests and operational tooling).
func (r *Router) HomeShard(url string) int { return r.homeShard(url) }

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// Shard exposes the i-th engine (maintenance tooling and tests).
func (r *Router) Shard(i int) *core.DB { return r.shards[i] }

// locate translates a global DocID to its shard and local DocID.
func (r *Router) locate(g model.DocID) (int, model.DocID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if g < 1 || int(g) > len(r.homes) {
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownDoc, g)
	}
	l := r.homes[g-1]
	return l.shard, l.local, nil
}

// ShardOf reports the shard owning a global DocID (routing tests,
// operational tooling).
func (r *Router) ShardOf(g model.DocID) (int, error) {
	s, _, err := r.locate(g)
	return s, err
}

// globalOf translates shard s's local DocID to the global space.
func (r *Router) globalOf(s int, local model.DocID) (model.DocID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if local < 1 || int(local) > len(r.toGlob[s]) {
		return 0, false
	}
	g := r.toGlob[s][local-1]
	return g, g != 0
}

// docCount returns the number of global DocIDs allocated.
func (r *Router) docCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.homes)
}

// Close closes every shard engine and the docmap log.
func (r *Router) Close() error {
	var errs []error
	for i, db := range r.shards {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	r.mu.Lock()
	if r.logf != nil {
		if err := r.logw.Flush(); err != nil {
			errs = append(errs, err)
		}
		if err := r.logf.Close(); err != nil {
			errs = append(errs, err)
		}
		r.logf, r.logw = nil, nil
	}
	r.mu.Unlock()
	return errors.Join(errs...)
}

// Pool exposes the router's scatter-gather pool.
func (r *Router) Pool() *parallel.Pool { return r.pool }

// PoolStats returns the scatter-gather pool's counters (the per-shard
// engines own their pools; their load shows up in ShardStats).
func (r *Router) PoolStats() parallel.Stats { return r.pool.Stats() }

// ShardHealth is one shard's health as aggregated into /readyz.
type ShardHealth struct {
	Shard   int
	Enabled bool // resilience tier configured on this shard
	State   resilience.State
	Breaker resilience.BreakerState
}

// ShardHealth reports every shard's resilience state.
func (r *Router) ShardHealth() []ShardHealth {
	out := make([]ShardHealth, r.n)
	for i, db := range r.shards {
		out[i] = ShardHealth{Shard: i}
		if snap, ok := db.Health(); ok {
			out[i].Enabled = true
			out[i].State = snap.State
			out[i].Breaker = snap.Breaker.State
		}
	}
	return out
}

// Health aggregates the shards' resilience tiers into one snapshot: all
// healthy ⇒ healthy, all failing ⇒ failing, anything in between ⇒
// degraded (one failing shard degrades the service, it does not take it
// down — single-document traffic for the other shards still succeeds).
// Counters are summed; the breaker reports the worst position. ok is
// false when no shard carries a tier.
func (r *Router) Health() (resilience.Snapshot, bool) {
	var agg resilience.Snapshot
	enabled, healthy, failing := 0, 0, 0
	for _, db := range r.shards {
		snap, ok := db.Health()
		if !ok {
			continue
		}
		enabled++
		switch snap.State {
		case resilience.Healthy:
			healthy++
		case resilience.Failing:
			failing++
		}
		agg.Backend.Transitions += snap.Backend.Transitions
		agg.Data.Transitions += snap.Data.Transitions
		if snap.Backend.State > agg.Backend.State {
			agg.Backend.State = snap.Backend.State
		}
		if snap.Data.State > agg.Data.State {
			agg.Data.State = snap.Data.State
		}
		if snap.Breaker.State > agg.Breaker.State {
			agg.Breaker.State = snap.Breaker.State
		}
		agg.Breaker.Opens += snap.Breaker.Opens
		agg.Breaker.FastFails += snap.Breaker.FastFails
		agg.Breaker.Probes += snap.Breaker.Probes
		agg.DegradedServes += snap.DegradedServes
		agg.DegradedRejects += snap.DegradedRejects
	}
	if enabled == 0 {
		return resilience.Snapshot{}, false
	}
	switch {
	case healthy == enabled:
		agg.State = resilience.Healthy
	case failing == enabled:
		agg.State = resilience.Failing
	default:
		agg.State = resilience.Degraded
	}
	return agg, true
}

// DegradedMode implements plan.Engine: the service is degraded
// while any shard is, so results that may have had coverage limited by a
// sick shard are flagged.
func (r *Router) DegradedMode() bool {
	for _, db := range r.shards {
		if db.Resilience() != nil && db.DegradedMode() {
			return true
		}
	}
	return false
}

// RetryAfter suggests the longest retry hint across shards.
func (r *Router) RetryAfter() (d time.Duration) {
	for _, db := range r.shards {
		if db.Resilience() == nil {
			continue
		}
		if ra := db.RetryAfter(); ra > d {
			d = ra
		}
	}
	return d
}

// Stats is one shard's serving counters, feeding the txserved_shard_*
// metric family.
type Stats struct {
	Shard          int
	Docs           int   // documents homed on this shard
	Ops            int64 // operations admitted through the shard gate
	Active         int64 // operations inside the engine now
	Queued         int64 // operations waiting for admission now
	Health         resilience.State
	HealthEnabled  bool
	CheckpointRuns int
	Durable        bool
	WALSegments    int64
}

// ShardStats snapshots every shard's serving counters.
func (r *Router) ShardStats() []Stats {
	counts := make([]int, r.n)
	r.mu.RLock()
	for _, l := range r.homes {
		counts[l.shard]++
	}
	r.mu.RUnlock()
	out := make([]Stats, r.n)
	for i, db := range r.shards {
		st := Stats{
			Shard:  i,
			Docs:   counts[i],
			Ops:    r.gates[i].total.Load(),
			Active: r.gates[i].active.Load(),
			Queued: r.gates[i].queued.Load(),
		}
		if snap, ok := db.Health(); ok {
			st.Health, st.HealthEnabled = snap.State, true
		}
		if cs, ok := db.CheckpointStats(); ok {
			st.CheckpointRuns, st.Durable = cs.Runs, true
			st.WALSegments = db.WALSegments()
		}
		out[i] = st
	}
	return out
}
