// Command txserved serves the temporal XML database over HTTP/JSON: the
// query language on /query, plans on /explain, liveness on /healthz,
// readiness (drain and degraded state) on /readyz and a Prometheus-style
// exposition on /metrics.
//
// The resilience tier (on by default, see -resilience) wraps backend
// reads in a circuit breaker and serves cache-resident reads while the
// backend is down: those answers carry "degraded":true in the envelope,
// writes and cache-miss reads fail fast with 503 + Retry-After, and
// half-open probes recover the tier automatically once the fault heals.
//
// Usage:
//
//	txserved -demo                     # serve the paper's Figure 1 data
//	txserved -datadir DIR              # serve a durable (WAL) database
//	txserved -gen docs=4,versions=8    # serve a generated corpus
//	txserved -shards 4 -datadir DIR    # 4 document-partitioned engines
//	                                   # under DIR/shard-00 … DIR/shard-03
//
//	curl -s 'localhost:8080/query?q=SELECT+R+FROM+doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant+R'
//	curl -s localhost:8080/query -d '{"query":"SELECT SUM(R) FROM doc(\"http://guide.com/restaurants.xml\")[26/01/2001]/restaurant R"}'
//	curl -s localhost:8080/metrics
//
// With -datadir and -checkpoint-every, a background checkpointer
// periodically snapshots the durable tier (bounding reopen replay and
// reclaiming covered log segments) without ever blocking reads; its
// activity is exposed as txserved_checkpoint_* and txserved_wal_segments
// on /metrics.
//
// On SIGINT/SIGTERM the server stops accepting, drains in-flight queries
// (bounded by -drain), stops the checkpointer and only then closes the
// durable store, so every acknowledged response corresponds to a
// committed write-ahead log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"txmldb"
	"txmldb/internal/model"
	"txmldb/internal/server"
	"txmldb/internal/tdocgen"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "load the paper's Figure 1 restaurant history")
	gen := flag.String("gen", "", "load a generated corpus, e.g. docs=4,versions=8,seed=1")
	dataDir := flag.String("datadir", "", "durable mode: keep the database in a write-ahead log under this directory")
	maxInFlight := flag.Int("max-inflight", 8, "concurrently executing queries")
	maxQueue := flag.Int("max-queue", 32, "requests allowed to wait for an execution slot")
	queueWait := flag.Duration("queue-wait", time.Second, "longest a queued request waits before 429")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query execution deadline")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "slow-query log threshold (negative disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for in-flight queries")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "window between flipping /readyz and closing the listener, so load balancers stop routing first")
	resil := flag.Bool("resilience", true, "enable the health state machine, circuit breaker and degraded cache-first serving")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive backend read failures that open the circuit breaker")
	breakerOpen := flag.Duration("breaker-open", 5*time.Second, "how long an open breaker fails fast before probing the backend again")
	quiet := flag.Bool("quiet", false, "disable the per-request access log")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "byte budget of the shared version-reconstruction cache (0 disables)")
	workers := flag.Int("workers", 0, "worker-pool size for parallel operators (0 = GOMAXPROCS, 1 = sequential)")
	ckptEvery := flag.Duration("checkpoint-every", 0, "durable mode: background checkpoint interval (0 disables; checkpoints bound reopen replay and reclaim log segments)")
	commitWindow := flag.Duration("commit-window", 0, "durable mode: WAL group-commit window — concurrent commits arriving within it share one fsync (0: no wait, only commits queued behind an in-flight fsync share the next; try 1ms under concurrent writers)")
	shards := flag.Int("shards", 1, "partition documents across this many engine instances; with -datadir the directory becomes a root holding shard-NN/ subdirs")
	shardInflight := flag.Int("shard-inflight", 0, "per-shard admission bound (0 = default)")
	flag.Parse()

	res := txmldb.ResilienceConfig{}
	if *resil {
		res = txmldb.ResilienceConfig{
			Enabled: true,
			Breaker: txmldb.BreakerConfig{
				FailureThreshold: *breakerThreshold,
				OpenFor:          *breakerOpen,
			},
		}
	}
	db, err := openDB(*dataDir, *demo, txmldb.CacheConfig{MaxBytes: *cacheBytes}, *workers, res, *shards, *shardInflight, *commitWindow)
	if err != nil {
		log.Fatal(err)
	}

	if *demo {
		if _, ok := db.LookupDoc(tdocgen.Figure1URL); !ok {
			if err := tdocgen.LoadFigure1(db); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *gen != "" {
		cfg, err := parseGen(*gen)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tdocgen.New(cfg).Load(db); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d generated documents", cfg.Docs)
	}

	cfg := server.Config{
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		QueueWait:    *queueWait,
		QueryTimeout: *queryTimeout,
		SlowQuery:    *slowQuery,
		DrainGrace:   *drainGrace,
		ErrorLog:     log.New(os.Stderr, "txserved: ", log.LstdFlags),
	}
	if !*quiet {
		cfg.AccessLog = log.New(os.Stderr, "access: ", log.LstdFlags)
	}
	srv := server.New(db, cfg)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("txserved listening on %s (%d docs, %d shard(s), max-inflight %d, queue %d)",
		l.Addr(), len(db.Docs()), *shards, *maxInFlight, *maxQueue)

	// Shutdown ordering: a signal stops accepting, Run drains in-flight
	// queries, the background checkpointer stops, and only after that the
	// store is closed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var ckptWG sync.WaitGroup
	if *dataDir != "" && *ckptEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			runCheckpointer(ctx, db, *ckptEvery)
		}()
		log.Printf("background checkpointer: every %v", *ckptEvery)
	}
	if err := srv.Run(ctx, l, *drain); err != nil {
		log.Printf("shutdown: %v", err)
	}
	stop()
	ckptWG.Wait()
	if err := db.Close(); err != nil {
		log.Fatalf("closing store: %v", err)
	}
	log.Print("txserved: drained and closed cleanly")
}

// runCheckpointer periodically checkpoints the durable store until ctx is
// canceled. Checkpoints never block reads; a run overlapping a manual one
// reports ErrCheckpointBusy and is simply skipped. Errors are logged and
// counted in the txserved_checkpoint_errors_total metric — the WAL alone
// keeps the database durable, a failed checkpoint only costs reopen time.
// On a sharded engine the run fans out to every shard; a joined error can
// name some failing shards while the others' checkpoints stuck.
func runCheckpointer(ctx context.Context, db engine, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			stats, err := db.Checkpoint()
			switch {
			case errors.Is(err, txmldb.ErrCheckpointBusy):
			case err != nil:
				log.Printf("checkpoint: %v", err)
			default:
				log.Printf("checkpoint: published %s (%d bytes, %d extents) in %v, %d segments dropped",
					stats.File, stats.Bytes, stats.Extents, stats.Duration, stats.SegmentsDeleted)
			}
		}
	}
}

// engine is the common surface of *txmldb.DB and *txmldb.ShardedDB that
// txserved drives: serving, corpus loading, the background checkpointer
// and the final close.
type engine interface {
	server.Engine
	Put(url string, root *txmldb.Node, t txmldb.Time) (txmldb.DocID, error)
	Update(id txmldb.DocID, root *txmldb.Node, t txmldb.Time) (txmldb.VersionNo, *txmldb.Script, error)
	LookupDoc(url string) (txmldb.DocID, bool)
	Checkpoint() (txmldb.CheckpointRunStats, error)
	Close() error
}

// openDB opens the database in memory or durably under dataDir, sharded
// when -shards > 1 (dataDir then becomes a root directory holding one
// shard-NN/ subdirectory per engine). The demo pins the clock to the
// paper's "today" (February 10, 2001) so NOW-relative queries match the
// text.
func openDB(dataDir string, demo bool, cache txmldb.CacheConfig, workers int, res txmldb.ResilienceConfig, shards, shardInflight int, commitWindow time.Duration) (engine, error) {
	cfg := txmldb.Config{Cache: cache, Workers: workers, Resilience: res}
	if demo {
		cfg.Clock = func() txmldb.Time { return txmldb.Date(2001, time.February, 10) }
	}
	if dataDir != "" && commitWindow > 0 {
		// Group commit only pays off against a real durability barrier;
		// in-memory engines commit without one, so the window is durable-only.
		// With -shards every engine gets its own batcher via the config.
		cfg.Store.Pages.GroupWindow = commitWindow
	}
	if shards > 1 {
		if dataDir != "" {
			cfg.OpenLogf = log.Printf
		}
		scfg := txmldb.ShardConfig{
			Shards:        shards,
			Engine:        func(int) txmldb.Config { return cfg },
			ShardInflight: shardInflight,
		}
		if dataDir == "" {
			return txmldb.OpenSharded(scfg), nil
		}
		return txmldb.OpenShardedDurable(scfg, dataDir)
	}
	if dataDir == "" {
		return txmldb.Open(cfg), nil
	}
	cfg.OpenLogf = log.Printf
	return txmldb.OpenDurable(cfg, dataDir)
}

// parseGen parses -gen key=value lists (same keys as cmd/txmldb).
func parseGen(spec string) (tdocgen.Config, error) {
	cfg := tdocgen.Config{Seed: 1, Docs: 2, Versions: 5, Start: model.Date(2001, 1, 1)}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return cfg, fmt.Errorf("bad -gen entry %q (want key=value)", kv)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return cfg, fmt.Errorf("bad -gen value %q: %w", kv, err)
		}
		switch parts[0] {
		case "docs":
			cfg.Docs = n
		case "versions":
			cfg.Versions = n
		case "elems":
			cfg.InitialElems = n
		case "ops":
			cfg.OpsPerVersion = n
		case "seed":
			cfg.Seed = int64(n)
		default:
			return cfg, fmt.Errorf("unknown -gen key %q", parts[0])
		}
	}
	return cfg, nil
}
