// Package server is the HTTP/JSON query service over the temporal XML
// database: the wire face of the paper's operators. It goes through the
// same public facade entry points external users call (txmldb.DB's
// QueryContext/Explain), threads per-request deadlines into plan
// execution, applies two-level admission control (bounded in-flight
// executions plus a bounded wait queue — overflow is rejected with 429
// and Retry-After), recovers per-request panics, streams large results,
// and feeds an internal/metrics registry exposed on /metrics.
//
// Endpoints:
//
//	POST /query    {"query": "...", "timeout_ms": 0}  (or GET ?q=...)
//	GET  /explain  ?q=...                             (or POST, same body)
//	GET  /healthz  liveness + uptime + doc count (always 200 while up)
//	GET  /readyz   readiness: 503 while draining or while the engine's
//	               resilience tier reports degraded/failing
//	GET  /metrics  Prometheus-style text exposition
//
// Shutdown ordering is: flip /readyz to 503 (so load balancers stop
// routing here), wait the drain grace, stop accepting, drain in-flight
// requests, then (in the caller, cmd/txserved) close the durable store —
// so a committed response always means a committed write-ahead log.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"txmldb"
	"txmldb/internal/metrics"
)

// Engine is the surface the server serves: the query language, plus the
// counters /metrics, /healthz and /readyz report. *txmldb.DB and
// *txmldb.ShardedDB implement it. Methods returning ok=false (no cache,
// not durable, no commit batching, no resilience tier) keep their metric
// family out of the exposition entirely. Tests substitute stub engines
// that embed a real one to exercise overload and timeout paths
// deterministically.
type Engine interface {
	QueryContext(ctx context.Context, src string) (*txmldb.Result, error)
	Explain(src string) (string, error)
	// Docs lists every document; /healthz reports the count.
	Docs() []txmldb.DocID
	// IOStats are the storage tier's buffer-pool counters.
	IOStats() txmldb.IOStats
	// CacheStats are the version-reconstruction cache counters.
	CacheStats() (txmldb.CacheStats, bool)
	// PoolStats are the shared worker pool's counters. Per-request
	// concurrency composes with admission control: the gate bounds
	// in-flight queries, the pool bounds the total worker goroutines those
	// queries fan out to.
	PoolStats() txmldb.PoolStats
	// CheckpointStats are the checkpoint & compaction counters; ok is
	// false on non-durable engines.
	CheckpointStats() (txmldb.CheckpointStats, bool)
	WALSegments() int64
	// CommitBatchStats are the WAL group-commit batcher's counters; ok is
	// false unless PageConfig.GroupWindow > 0.
	CommitBatchStats() (txmldb.GroupStats, bool)
	// Health snapshots the resilience tier (ok is false when it is off):
	// /readyz and the txserved_health_* / txserved_breaker_* metrics derive
	// from it, and 503 responses take their Retry-After from RetryAfter.
	Health() (txmldb.HealthSnapshot, bool)
	RetryAfter() time.Duration
}

var (
	_ Engine = (*txmldb.DB)(nil)
	_ Engine = (*txmldb.ShardedDB)(nil)
)

// shardStatser is the one optional engine surface, implemented by sharded
// engines (txmldb.ShardedDB): the txserved_shard_* per-shard metric family
// is derived from its snapshots, and /readyz reports shard-aware
// readiness — one failing shard degrades the ensemble (single-document
// traffic for the other shards still succeeds), it does not take
// readiness down; only every shard failing does.
type shardStatser interface {
	Shards() int
	ShardStats() []txmldb.ShardStats
	ShardHealth() []txmldb.ShardHealth
}

// Config parameterizes a Server. Zero values select the defaults noted
// on each field.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default 8).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default 32).
	MaxQueue int
	// QueueWait bounds how long a queued request waits before being
	// rejected with 429 (default 1s).
	QueueWait time.Duration
	// QueryTimeout is the per-query execution deadline (default 30s). A
	// request's timeout_ms may shorten it but never extend it.
	QueryTimeout time.Duration
	// SlowQuery is the slow-query log threshold (default 500ms; negative
	// disables the log).
	SlowQuery time.Duration
	// DrainGrace is how long /readyz reports 503 before a shutting-down
	// server stops accepting connections, giving load balancers a window
	// to route traffic away while queries still succeed (default 0: flip
	// readiness and stop accepting immediately).
	DrainGrace time.Duration
	// AccessLog receives one structured line per request; nil disables.
	AccessLog *log.Logger
	// ErrorLog receives panics and internal errors; nil uses log.Default().
	ErrorLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 500 * time.Millisecond
	}
	if c.ErrorLog == nil {
		c.ErrorLog = log.Default()
	}
	return c
}

// Server is the HTTP query service.
type Server struct {
	engine Engine
	cfg    Config
	gate   *gate
	mux    *http.ServeMux
	reg    *metrics.Registry
	start  time.Time

	// draining flips /readyz to 503 before the listener stops accepting,
	// so load balancers drain traffic while in-flight (and grace-window)
	// queries still complete.
	draining atomic.Bool

	mRequests    *metrics.Counter
	mQueries     *metrics.Counter
	mRows        *metrics.Counter
	mParseErrs   *metrics.Counter
	mTimeouts    *metrics.Counter
	mCanceled    *metrics.Counter
	mRejected    *metrics.Counter
	mInternal    *metrics.Counter
	mUnavailable *metrics.Counter
	mPanics      *metrics.Counter
	mSlow        *metrics.Counter
	mInFlight    *metrics.Gauge
	mQueued      *metrics.Gauge
	mLatency     *metrics.Histogram
}

// New builds a Server over an engine.
func New(engine Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		engine: engine,
		cfg:    cfg,
		gate:   newGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		reg:    reg,
		start:  time.Now(),

		mRequests:    reg.Counter("txserved_http_requests_total", "HTTP requests received"),
		mQueries:     reg.Counter("txserved_queries_total", "queries executed successfully"),
		mRows:        reg.Counter("txserved_result_rows_total", "result rows returned"),
		mParseErrs:   reg.Counter("txserved_errors_parse_total", "requests rejected with a query syntax error"),
		mTimeouts:    reg.Counter("txserved_errors_timeout_total", "queries aborted by deadline expiry"),
		mCanceled:    reg.Counter("txserved_errors_canceled_total", "queries aborted because the client disconnected (499)"),
		mRejected:    reg.Counter("txserved_rejected_total", "requests rejected by admission control (429)"),
		mInternal:    reg.Counter("txserved_errors_internal_total", "queries failed with an internal error"),
		mUnavailable: reg.Counter("txserved_errors_unavailable_total", "queries rejected with 503 by the resilience tier (breaker open or degraded mode)"),
		mPanics:      reg.Counter("txserved_panics_total", "request handlers recovered from a panic"),
		mSlow:        reg.Counter("txserved_slow_queries_total", "queries slower than the slow-query threshold"),
		mInFlight:    reg.Gauge("txserved_inflight_queries", "queries executing now"),
		mQueued:      reg.Gauge("txserved_queued_requests", "requests waiting for an execution slot"),
		mLatency:     reg.Histogram("txserved_query_latency_ms", "query latency in milliseconds", nil),
	}
	s.registerEngineMetrics()
	s.registerShardMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Registry exposes the server's metrics registry (benchmarks read it).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// registerEngineMetrics pulls engine-owned counters — the storage tier's
// buffer pool, the worker pool, checkpoints, group commit, the resilience
// tier and the shared version-reconstruction cache — into the /metrics
// exposition; a family whose subsystem is off is left out.
func (s *Server) registerEngineMetrics() {
	e := s.engine
	s.reg.CounterFunc("txserved_pagestore_cache_hits_total",
		"extent reads served by the buffer pool",
		func() int64 { return e.IOStats().CacheHits })
	s.reg.CounterFunc("txserved_pagestore_cache_misses_total",
		"extent reads that fell through the buffer pool to the backend",
		func() int64 { return e.IOStats().CacheMisses })
	s.reg.CounterFunc("txserved_pagestore_cache_evictions_total",
		"extents evicted from the buffer pool by its page budget",
		func() int64 { return e.IOStats().CacheEvictions })
	s.reg.CounterFunc("txserved_pagestore_extent_reads_total",
		"extent reads that touched the simulated disk",
		func() int64 { return e.IOStats().ExtentRead })

	pool := func(f func(txmldb.PoolStats) int64) func() int64 {
		return func() int64 { return f(e.PoolStats()) }
	}
	s.reg.GaugeFunc("txserved_pool_workers",
		"worker-pool concurrency bound",
		pool(func(st txmldb.PoolStats) int64 { return int64(st.Workers) }))
	s.reg.CounterFunc("txserved_pool_tasks_submitted_total",
		"tasks handed to the worker pool",
		pool(func(st txmldb.PoolStats) int64 { return st.Submitted }))
	s.reg.CounterFunc("txserved_pool_tasks_completed_total",
		"worker-pool tasks that ran to completion",
		pool(func(st txmldb.PoolStats) int64 { return st.Completed }))
	s.reg.CounterFunc("txserved_pool_tasks_cancelled_total",
		"worker-pool tasks abandoned by cancellation or an earlier error",
		pool(func(st txmldb.PoolStats) int64 { return st.Cancelled }))
	s.reg.CounterFunc("txserved_pool_tasks_panicked_total",
		"worker-pool tasks that panicked (captured and returned as errors)",
		pool(func(st txmldb.PoolStats) int64 { return st.Panicked }))
	s.reg.GaugeFunc("txserved_pool_active_tasks",
		"worker-pool tasks executing now (pool depth)",
		pool(func(st txmldb.PoolStats) int64 { return st.Active }))
	s.reg.GaugeFunc("txserved_pool_queued_tasks",
		"tasks waiting for a worker slot now",
		pool(func(st txmldb.PoolStats) int64 { return st.Queued }))
	s.reg.CounterFunc("txserved_pool_queue_wait_ms_total",
		"total time tasks spent waiting for a worker slot",
		pool(func(st txmldb.PoolStats) int64 { return st.QueueWait.Milliseconds() }))
	// Per-operator speedup proxy (task-time / wall-time), scaled by
	// 1000 because the registry is integer-valued.
	for _, scope := range []string{"scan", "diff", "reconstruct"} {
		scope := scope
		//txvet:ignore metricname per-scope gauge family: prefix is literal and the suffixes are the compile-time scope constants above
		s.reg.GaugeFunc("txserved_pool_speedup_milli_"+scope,
			"per-operator parallel speedup proxy x1000 (task time / wall time) for scope "+scope,
			func() int64 {
				sc, ok := e.PoolStats().Scopes[scope]
				if !ok {
					return 0
				}
				return int64(sc.Speedup() * 1000)
			})
	}

	if _, durable := e.CheckpointStats(); durable {
		cks := func(f func(txmldb.CheckpointStats) int64) func() int64 {
			return func() int64 { st, _ := e.CheckpointStats(); return f(st) }
		}
		s.reg.CounterFunc("txserved_checkpoint_total",
			"checkpoints published",
			cks(func(st txmldb.CheckpointStats) int64 { return int64(st.Runs) }))
		s.reg.CounterFunc("txserved_checkpoint_errors_total",
			"checkpoint attempts that failed",
			cks(func(st txmldb.CheckpointStats) int64 { return int64(st.Errors) }))
		s.reg.GaugeFunc("txserved_checkpoint_last_bytes",
			"size of the last published checkpoint image",
			cks(func(st txmldb.CheckpointStats) int64 { return st.LastBytes }))
		s.reg.GaugeFunc("txserved_checkpoint_last_ms",
			"wall time of the last checkpoint run in milliseconds",
			cks(func(st txmldb.CheckpointStats) int64 { return st.LastDuration.Milliseconds() }))
		s.reg.CounterFunc("txserved_checkpoint_segments_deleted_total",
			"write-ahead-log segments reclaimed by checkpoint compaction",
			cks(func(st txmldb.CheckpointStats) int64 { return int64(st.SegmentsDeleted) }))
		s.reg.GaugeFunc("txserved_wal_segments",
			"write-ahead-log segments currently on disk",
			e.WALSegments)
	}

	if _, batching := e.CommitBatchStats(); batching {
		gcs := func(f func(txmldb.GroupStats) int64) func() int64 {
			return func() int64 { st, _ := e.CommitBatchStats(); return f(st) }
		}
		s.reg.CounterFunc("txserved_commit_batch_commits_total",
			"commits that went through the WAL group-commit batcher",
			gcs(func(st txmldb.GroupStats) int64 { return st.Commits }))
		s.reg.CounterFunc("txserved_commit_batch_batches_total",
			"batches flushed, i.e. fsyncs actually issued",
			gcs(func(st txmldb.GroupStats) int64 { return st.Batches }))
		s.reg.CounterFunc("txserved_commit_batch_failures_total",
			"commits that failed with their batch's shared fsync error",
			gcs(func(st txmldb.GroupStats) int64 { return st.Failures }))
		s.reg.GaugeFunc("txserved_commit_batch_max_batch",
			"largest number of commits amortized into a single fsync",
			gcs(func(st txmldb.GroupStats) int64 { return st.MaxBatch }))
	}

	if _, enabled := e.Health(); enabled {
		hsnap := func(f func(txmldb.HealthSnapshot) int64) func() int64 {
			return func() int64 { snap, _ := e.Health(); return f(snap) }
		}
		s.reg.GaugeFunc("txserved_health_state",
			"overall engine health (0 healthy, 1 degraded, 2 failing)",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return int64(h.State) }))
		s.reg.GaugeFunc("txserved_health_state_backend",
			"backend I/O path health (0 healthy, 1 degraded, 2 failing)",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return int64(h.Backend.State) }))
		s.reg.GaugeFunc("txserved_health_state_data",
			"data integrity health (0 healthy, 1 degraded/corrupt, 2 failing)",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return int64(h.Data.State) }))
		s.reg.GaugeFunc("txserved_breaker_state",
			"backend-read circuit breaker position (0 closed, 1 half-open, 2 open)",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return int64(h.Breaker.State) }))
		s.reg.CounterFunc("txserved_breaker_opens_total",
			"times the circuit breaker tripped open",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return h.Breaker.Opens }))
		s.reg.CounterFunc("txserved_breaker_fast_fails_total",
			"backend reads rejected fast while the breaker was open",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return h.Breaker.FastFails }))
		s.reg.CounterFunc("txserved_breaker_probes_total",
			"half-open probe reads admitted by the breaker",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return h.Breaker.Probes }))
		s.reg.CounterFunc("txserved_degraded_reads_total",
			"reads served from cache or the current snapshot while degraded",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return h.DegradedServes }))
		s.reg.CounterFunc("txserved_degraded_rejected_total",
			"writes and cache-miss reads rejected while degraded",
			hsnap(func(h txmldb.HealthSnapshot) int64 { return h.DegradedRejects }))
	}

	if _, enabled := e.CacheStats(); !enabled {
		return
	}
	vc := func(f func(txmldb.CacheStats) int64) func() int64 {
		return func() int64 { st, _ := e.CacheStats(); return f(st) }
	}
	s.reg.CounterFunc("txserved_vcache_lookups_total",
		"version-cache lookups", vc(func(st txmldb.CacheStats) int64 { return st.Lookups }))
	s.reg.CounterFunc("txserved_vcache_hits_total",
		"version-cache exact hits", vc(func(st txmldb.CacheStats) int64 { return st.Hits }))
	s.reg.CounterFunc("txserved_vcache_misses_total",
		"version-cache misses", vc(func(st txmldb.CacheStats) int64 { return st.Misses }))
	s.reg.CounterFunc("txserved_vcache_collapsed_flights_total",
		"version-cache misses collapsed into another goroutine's reconstruction",
		vc(func(st txmldb.CacheStats) int64 { return st.CollapsedFlights }))
	s.reg.CounterFunc("txserved_vcache_evictions_total",
		"version-cache entries evicted by the byte budget",
		vc(func(st txmldb.CacheStats) int64 { return st.Evictions }))
	s.reg.CounterFunc("txserved_vcache_invalidations_total",
		"version-cache entries dropped by document writes",
		vc(func(st txmldb.CacheStats) int64 { return st.Invalidations }))
	s.reg.GaugeFunc("txserved_vcache_resident_bytes",
		"deep size of all cached version trees",
		vc(func(st txmldb.CacheStats) int64 { return st.ResidentBytes }))
	s.reg.GaugeFunc("txserved_vcache_entries",
		"cached version trees resident now",
		vc(func(st txmldb.CacheStats) int64 { return st.Entries }))
}

// registerShardMetrics publishes the txserved_shard_* family for sharded
// engines: one labeled series per shard (shard="NN"), sampled from the
// router's per-shard counters. A single-engine deployment exposes none of
// these — the family's presence is itself the sharding signal.
func (s *Server) registerShardMetrics() {
	ss, ok := s.engine.(shardStatser)
	if !ok {
		return
	}
	n := ss.Shards()
	s.reg.Gauge("txserved_shards", "engine shards behind this server").Set(int64(n))
	stat := func(i int, f func(txmldb.ShardStats) int64) func() int64 {
		return func() int64 { return f(ss.ShardStats()[i]) }
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%02d", i)
		s.reg.LabeledCounterFunc("txserved_shard_ops_total",
			"operations admitted through the shard's gate", "shard", label,
			stat(i, func(st txmldb.ShardStats) int64 { return st.Ops }))
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%02d", i)
		s.reg.LabeledGaugeFunc("txserved_shard_active_ops",
			"operations executing inside the shard's engine now", "shard", label,
			stat(i, func(st txmldb.ShardStats) int64 { return st.Active }))
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%02d", i)
		s.reg.LabeledGaugeFunc("txserved_shard_queue_depth",
			"operations waiting for the shard's admission gate now", "shard", label,
			stat(i, func(st txmldb.ShardStats) int64 { return st.Queued }))
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%02d", i)
		s.reg.LabeledGaugeFunc("txserved_shard_docs",
			"documents homed on the shard", "shard", label,
			stat(i, func(st txmldb.ShardStats) int64 { return int64(st.Docs) }))
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("%02d", i)
		s.reg.LabeledGaugeFunc("txserved_shard_health_state",
			"shard health (0 healthy, 1 degraded, 2 failing)", "shard", label,
			stat(i, func(st txmldb.ShardStats) int64 { return int64(st.Health) }))
	}
	// Checkpoint/WAL series only when the shards are durable.
	if st := ss.ShardStats(); n > 0 && st[0].Durable {
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("%02d", i)
			s.reg.LabeledCounterFunc("txserved_shard_checkpoint_total",
				"checkpoints published by the shard", "shard", label,
				stat(i, func(st txmldb.ShardStats) int64 { return int64(st.CheckpointRuns) }))
		}
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("%02d", i)
			s.reg.LabeledGaugeFunc("txserved_shard_wal_segments",
				"write-ahead-log segments the shard has on disk", "shard", label,
				stat(i, func(st txmldb.ShardStats) int64 { return st.WALSegments }))
		}
	}
}

// Handler returns the full middleware stack: panic recovery, request
// counting and access logging around the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		started := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				s.cfg.ErrorLog.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !lw.wrote {
					writeError(lw, http.StatusInternalServerError, errorBody{Kind: "internal", Message: "internal server error"})
				}
			}
			if s.cfg.AccessLog != nil {
				s.cfg.AccessLog.Printf("method=%s path=%s status=%d dur_ms=%.3f bytes=%d remote=%s",
					r.Method, r.URL.Path, lw.status, float64(time.Since(started))/float64(time.Millisecond),
					lw.bytes, r.RemoteAddr)
			}
		}()
		s.mux.ServeHTTP(lw, r)
	})
}

// Run serves on l until ctx is canceled, then gracefully shuts down in
// readiness-first order: /readyz flips to 503 while the listener still
// accepts (for Config.DrainGrace, so load balancers route traffic away
// without failing in-flight or just-arrived requests), then the listener
// closes and in-flight requests drain (up to drainTimeout). It returns
// the serve error, or nil after a clean drain.
func (s *Server) Run(ctx context.Context, l net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.Handler(), ErrorLog: s.cfg.ErrorLog}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Readiness goes down BEFORE the listener: a request admitted during
	// the grace window still succeeds, but health checks steer new traffic
	// elsewhere. Closing the listener first would hard-fail the requests a
	// balancer sends before its next /readyz poll.
	s.draining.Store(true)
	if s.cfg.DrainGrace > 0 {
		grace := time.NewTimer(s.cfg.DrainGrace)
		select {
		case err := <-errc:
			grace.Stop()
			return err
		case <-grace.C:
		}
	}
	//txvet:ignore ctxflow deliberate fresh root: the serve ctx is already done when the drain deadline starts
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return hs.Shutdown(dctx)
}

// Draining reports whether the server has begun shutting down (readiness
// is already failing; the listener may still be accepting for the grace
// window).
func (s *Server) Draining() bool { return s.draining.Load() }

// loggingWriter captures status and byte count for the access log, and
// whether anything was written (panic recovery can only send an error
// response on an untouched connection).
type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *loggingWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *loggingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// --- request / response shapes ---

// queryRequest is the POST /query body.
type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMs shortens the server's query deadline for this request;
	// it can never extend it.
	TimeoutMs int64 `json:"timeout_ms"`
}

// errorBody is the typed error envelope: {"error": {...}}.
type errorBody struct {
	Kind    string `json:"kind"` // parse | timeout | overload | bad_request | unavailable | canceled | internal
	Message string `json:"message"`
	// Position of a parse error in the query text (1-based; present only
	// for kind "parse").
	Line   int `json:"line,omitempty"`
	Col    int `json:"col,omitempty"`
	Offset int `json:"offset,omitempty"`
}

func writeError(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]errorBody{"error": body})
}

// readQueryRequest accepts GET ?q=...&timeout_ms=... or a POST JSON body.
func readQueryRequest(r *http.Request) (queryRequest, error) {
	if r.Method == http.MethodGet {
		q := r.URL.Query().Get("q")
		if q == "" {
			return queryRequest{}, errors.New("missing q parameter")
		}
		var tmo int64
		if t := r.URL.Query().Get("timeout_ms"); t != "" {
			var err error
			if tmo, err = strconv.ParseInt(t, 10, 64); err != nil {
				return queryRequest{}, fmt.Errorf("bad timeout_ms: %v", err)
			}
		}
		return queryRequest{Query: q, TimeoutMs: tmo}, nil
	}
	var req queryRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return req, err
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, errors.New("empty query")
	}
	return req, nil
}

// --- handlers ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errorBody{Kind: "bad_request", Message: "use GET or POST"})
		return
	}
	req, err := readQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Kind: "bad_request", Message: err.Error()})
		return
	}

	// Admission: reserve an execution slot or reject with Retry-After.
	s.mQueued.Set(s.gate.queueDepth())
	if err := s.gate.acquire(r.Context()); err != nil {
		if errors.Is(err, errOverload) {
			s.mRejected.Inc()
			w.Header().Set("Retry-After", retryAfterSecs(s.cfg.QueueWait))
			writeError(w, http.StatusTooManyRequests, errorBody{Kind: "overload", Message: "server overloaded, retry later"})
			return
		}
		// Client went away while queued.
		s.mCanceled.Inc()
		writeError(w, statusClientClosedRequest, errorBody{Kind: "canceled", Message: "client closed request"})
		return
	}
	defer s.gate.release()
	s.mInFlight.Inc()
	defer s.mInFlight.Dec()

	timeout := s.cfg.QueryTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	started := time.Now()
	res, err := s.engine.QueryContext(ctx, req.Query)
	elapsed := time.Since(started)
	s.mLatency.ObserveDuration(elapsed)
	if s.cfg.SlowQuery > 0 && elapsed > s.cfg.SlowQuery {
		s.mSlow.Inc()
		s.cfg.ErrorLog.Printf("slow query: dur_ms=%.1f query=%q", float64(elapsed)/float64(time.Millisecond), req.Query)
	}
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	s.mQueries.Inc()
	s.mRows.Add(int64(len(res.Rows)))
	streamResult(w, res, elapsed)
}

// retryAfterSecs renders a Retry-After header value, rounding up to whole
// seconds.
func retryAfterSecs(d time.Duration) string {
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the server produced a response.
const statusClientClosedRequest = 499

// writeQueryError maps an execution error to a typed response.
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *txmldb.ParseError
	switch {
	case errors.As(err, &pe):
		s.mParseErrs.Inc()
		writeError(w, http.StatusBadRequest, errorBody{
			Kind: "parse", Message: pe.Msg, Line: pe.Line, Col: pe.Col, Offset: pe.Offset,
		})
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, errorBody{Kind: "timeout", Message: "query exceeded its deadline"})
	case errors.Is(err, context.Canceled):
		s.mCanceled.Inc()
		writeError(w, statusClientClosedRequest, errorBody{Kind: "canceled", Message: "client closed request"})
	case errors.Is(err, txmldb.ErrCircuitOpen), errors.Is(err, txmldb.ErrDegraded):
		// The resilience tier rejected the operation: breaker open on a
		// cache-miss read, or a write while degraded. 503 + Retry-After
		// (the breaker's remaining open window) tells well-behaved clients
		// when the half-open probes could have recovered the engine.
		s.mUnavailable.Inc()
		w.Header().Set("Retry-After", retryAfterSecs(s.engine.RetryAfter()))
		writeError(w, http.StatusServiceUnavailable, errorBody{Kind: "unavailable", Message: err.Error()})
	default:
		s.mInternal.Inc()
		s.cfg.ErrorLog.Printf("query failed: %v (%s %s)", err, r.Method, r.URL.Path)
		writeError(w, http.StatusInternalServerError, errorBody{Kind: "internal", Message: err.Error()})
	}
}

// streamResult writes the result as one JSON object, row by row with
// periodic flushes so large answers stream instead of buffering whole in
// memory a second time.
func streamResult(w http.ResponseWriter, res *txmldb.Result, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	cols, _ := json.Marshal(res.Columns)
	fmt.Fprintf(w, `{"columns":%s,"rows":[`, cols)
	for i, row := range res.Rows {
		if i > 0 {
			io.WriteString(w, ",")
		}
		enc, err := json.Marshal(jsonRow(row))
		if err != nil {
			enc = []byte(`null`)
		}
		w.Write(enc)
		if flusher != nil && i%64 == 63 {
			flusher.Flush()
		}
	}
	degraded := ""
	if res.Degraded {
		// Flag answers served while the resilience tier was degraded: the
		// rows are correct (cache / current-snapshot served), but clients
		// monitoring freshness or coverage should know the engine's state.
		degraded = `"degraded":true,`
	}
	fmt.Fprintf(w, `],%s"row_count":%d,"metrics":{"pattern_matches":%d,"reconstructions":%d,"rows_examined":%d},"elapsed_ms":%.3f}`,
		degraded, len(res.Rows), res.Metrics.PatternMatches, res.Metrics.Reconstructions, res.Metrics.RowsExamined,
		float64(elapsed)/float64(time.Millisecond))
	io.WriteString(w, "\n")
}

// jsonRow converts one result row into JSON-encodable values: element
// lists become lists of XML strings, timestamps render in the language's
// own format, scalars pass through.
func jsonRow(row []any) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch x := v.(type) {
		case []txmldb.Elem:
			xs := make([]string, len(x))
			for j, el := range x {
				xs[j] = el.Node.String()
			}
			out[i] = xs
		case txmldb.Time:
			out[i] = x.String()
		default:
			out[i] = v
		}
	}
	return out
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := readQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Kind: "bad_request", Message: err.Error()})
		return
	}
	plan, err := s.engine.Explain(req.Query)
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"plan": plan})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":   "ok",
		"uptime_s": int64(time.Since(s.start) / time.Second),
	}
	resp["docs"] = len(s.engine.Docs())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleReadyz is readiness, distinct from /healthz liveness: it answers
// 503 while the server is draining or while the engine's resilience tier
// reports degraded/failing, so load balancers stop routing here while the
// process itself stays alive (and /healthz keeps returning 200). The body
// always carries the full picture — overall state, per-component states,
// breaker position — so an operator curling it sees why.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	ready := !draining
	resp := map[string]any{"draining": draining}
	ss, sharded := s.engine.(shardStatser)
	if snap, enabled := s.engine.Health(); enabled {
		if snap.State != txmldb.StateHealthy {
			ready = false
		}
		if sharded && snap.State == txmldb.StateDegraded && !draining {
			// Shard-aware readiness: the aggregate is Degraded whenever any
			// single shard is sick, but the other shards keep serving their
			// documents — staying ready avoids a one-shard outage draining
			// the whole fleet. Only every shard failing (the aggregate
			// Failing) takes readiness down.
			ready = true
		}
		resp["state"] = snap.State.String()
		resp["components"] = map[string]string{
			"backend": snap.Backend.State.String(),
			"data":    snap.Data.State.String(),
		}
		resp["breaker"] = snap.Breaker.State.String()
		resp["degraded_reads"] = snap.DegradedServes
		resp["degraded_rejects"] = snap.DegradedRejects
	}
	if sharded {
		shards := make([]map[string]any, 0, ss.Shards())
		for _, sh := range ss.ShardHealth() {
			entry := map[string]any{"shard": sh.Shard}
			if sh.Enabled {
				entry["state"] = sh.State.String()
				entry["breaker"] = sh.Breaker.String()
			} else {
				entry["state"] = "untracked"
			}
			shards = append(shards, entry)
		}
		resp["shards"] = shards
	}
	resp["ready"] = ready
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.Header().Set("Retry-After", retryAfterSecs(s.engine.RetryAfter()))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}
