// Package txmldb is a temporal XML database: a from-scratch Go
// implementation of the system described in Kjetil Nørvåg, "Algorithms for
// Temporal Query Operators in XML Databases" (EDBT 2002 Workshops).
//
// The database stores every version of every XML document — the current
// version complete, previous versions as chains of completed deltas that
// apply both forward and backward — indexes all words (including element
// names) in a temporal full-text index, and executes the paper's temporal
// query operators: TPatternScan, TPatternScanAll, DocHistory,
// ElementHistory, CreTime, DelTime, PreviousTS, NextTS, CurrentTS,
// Reconstruct and Diff. A SELECT/FROM/WHERE temporal query language with
// snapshot timestamps, the EVERY keyword and NOW-relative time arithmetic
// runs on top of the operators.
//
// # Quick start
//
//	db := txmldb.Open(txmldb.Config{})
//	id, _ := db.PutXML("http://guide.com/restaurants.xml",
//	    strings.NewReader(`<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>`),
//	    txmldb.Date(2001, time.January, 1))
//	db.UpdateXML(id, strings.NewReader(`...new version...`), txmldb.Date(2001, time.January, 15))
//
//	res, _ := db.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
//	fmt.Println(res.Doc().Pretty())
//
// Identity follows the paper's Section 3: every element carries a
// persistent XID that survives updates (maintained by the XyDiff-style
// change detector); an EID is (document, XID); a TEID adds the version
// timestamp. All intervals are half-open transaction-time intervals
// [start, end), with Forever as the open upper bound of current versions.
package txmldb

import (
	"time"

	"txmldb/internal/checkpoint"
	"txmldb/internal/core"
	"txmldb/internal/diff"
	"txmldb/internal/doctime"
	"txmldb/internal/fti"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/parallel"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/query"
	"txmldb/internal/resilience"
	"txmldb/internal/shard"
	"txmldb/internal/similarity"
	"txmldb/internal/store"
	"txmldb/internal/tdocgen"
	"txmldb/internal/vcache"
	"txmldb/internal/warehouse"
	"txmldb/internal/xmltree"
)

// DB is a temporal XML database. Open one with Open; it is safe for
// concurrent use.
type DB = core.DB

// Config parameterizes Open.
type Config = core.Config

// IndexKind selects the full-text-index maintenance alternative
// (Section 7.2 of the paper): IndexVersions, IndexDeltas or IndexBoth.
type IndexKind = core.IndexKind

// Index alternatives.
const (
	IndexVersions = core.IndexVersions
	IndexDeltas   = core.IndexDeltas
	IndexBoth     = core.IndexBoth
)

// Open creates an empty database.
func Open(cfg Config) *DB { return core.Open(cfg) }

// OpenDurable opens (or creates) a crash-safe database stored in a
// write-ahead log under dir. Committed versions survive process crashes:
// reopening replays the log, truncates any torn tail and rebuilds all
// in-memory indexes. Close the database to release the log file.
func OpenDurable(cfg Config, dir string) (*DB, error) { return core.OpenDurable(cfg, dir) }

// Sharding tier (DESIGN.md §3i): a ShardedDB partitions documents across
// N independent engines by a stable URL hash, routes single-document
// primitives to the owning shard and scatter-gathers the pattern scans
// with a deterministic merge — results are byte-identical to a single
// engine at every shard count. The temporal operators are composed over
// those primitives by the same code as DB's, so it exposes the same query
// surface and the query planner, CLI and txserved run unmodified on top
// of it.
type (
	// ShardedDB is a DocID-partitioned ensemble of engines behind one
	// router. Open one with OpenSharded or OpenShardedDurable.
	ShardedDB = shard.Router
	// ShardConfig parameterizes the router and its engines.
	ShardConfig = shard.Config
	// ShardStats is one shard's serving counters, from
	// (*ShardedDB).ShardStats.
	ShardStats = shard.Stats
	// ShardHealth is one shard's health, from (*ShardedDB).ShardHealth.
	ShardHealth = shard.ShardHealth
)

// OpenSharded creates an empty in-memory sharded database.
func OpenSharded(cfg ShardConfig) *ShardedDB { return shard.Open(cfg) }

// OpenShardedDurable opens (or creates) a durable sharded database under
// root: a shards.json manifest, one crash-safe engine per shard-NN/
// subdirectory, and an append-only global DocID map. Reopening with a
// different shard count fails with ErrShardCountMismatch.
func OpenShardedDurable(cfg ShardConfig, root string) (*ShardedDB, error) {
	return shard.OpenDurable(cfg, root)
}

// ShardLayout inspects a durable root: it reports the shard count and
// per-shard data directories when root holds a sharded database, ok=false
// for a plain single-engine datadir.
func ShardLayout(root string) (shards int, dirs []string, ok bool, err error) {
	return shard.Layout(root)
}

// ShardDirName returns the name of shard i's subdirectory under a durable
// root ("shard-00", "shard-01", …).
func ShardDirName(i int) string { return shard.ShardDirName(i) }

// Typed sharding errors, matched with errors.Is.
var (
	// ErrShardCountMismatch reports a durable root opened with a shard
	// count different from its manifest.
	ErrShardCountMismatch = shard.ErrShardCountMismatch
)

// Durability and corruption-detection types (the storage fault model is
// described in DESIGN.md, "Durability & fault model").
type (
	// FsckReport is a structured storage-verification report.
	FsckReport = store.FsckReport
	// FsckProblem is one damaged extent and the versions it makes
	// unreachable.
	FsckProblem = store.FsckProblem
	// WALStats are write-ahead-log counters (write amplification etc.).
	WALStats = pagestore.WALStats

	// GroupStats are WAL group-commit counters (fsync amortization), from
	// (*DB).CommitBatchStats / (*ShardedDB).CommitBatchStats. Enable
	// batching with PageConfig.GroupWindow.
	GroupStats = pagestore.GroupStats
)

// Typed write-path errors surfaced by group commit (match with errors.Is).
var (
	// ErrGroupCommit marks a commit that failed because its batch's shared
	// fsync failed; the concrete error attributes the batch.
	ErrGroupCommit = pagestore.ErrGroupCommit
)

// Epoch-pinned snapshot reads: (*DB).Epoch returns the commit horizon,
// WithEpoch pins a context to it, and every read on that context observes
// the store exactly as of the pin while concurrent writers proceed.
// QueryContext pins automatically; these are for multi-query pinning.
var (
	// WithEpoch returns a context carrying the commit-horizon pin e.
	WithEpoch = store.WithEpoch
	// EpochOf reports the pin carried by a context, if any.
	EpochOf = store.EpochOf
)

// Typed storage errors, matched with errors.Is.
var (
	// ErrCorrupt reports an extent whose checksum no longer matches.
	ErrCorrupt = pagestore.ErrCorrupt
	// ErrUnreachable reports a version that cannot be reconstructed
	// because the chain it depends on is damaged.
	ErrUnreachable = store.ErrUnreachable
)

// Checkpoint & compaction subsystem (DESIGN.md §3h): durable databases
// periodically snapshot their live state into checksummed checkpoint
// images, so reopening replays only the log suffix behind the checkpoint
// instead of the full history; log segments wholly covered by a published
// checkpoint are reclaimed, and (*DB).Vacuum applies a version retention
// policy before compacting.
type (
	// CheckpointConfig parameterizes the subsystem (Config.Checkpoint);
	// the zero value means manual checkpoints only.
	CheckpointConfig = checkpoint.Config
	// CheckpointRunStats describes one checkpoint run, from
	// (*DB).Checkpoint.
	CheckpointRunStats = checkpoint.RunStats
	// CheckpointStats aggregates a database's checkpoint activity, from
	// (*DB).CheckpointStats.
	CheckpointStats = core.CheckpointStats
	// OpenReport describes how OpenDurable recovered the database, from
	// (*DB).OpenReport.
	OpenReport = core.OpenReport
	// Retention is a version retention policy for (*DB).Vacuum.
	Retention = store.Retention
	// RetentionPolicy selects which versions Vacuum keeps.
	RetentionPolicy = store.RetentionPolicy
	// VacuumReport summarizes what a Vacuum pruned and freed.
	VacuumReport = store.VacuumReport
)

// Retention policies.
const (
	// KeepAll prunes nothing (still intersperses snapshots).
	KeepAll = store.KeepAll
	// KeepLast keeps the newest Retention.KeepLast versions per document.
	KeepLast = store.KeepLast
	// KeepSince keeps versions alive at or after Retention.KeepSince.
	KeepSince = store.KeepSince
)

// Typed checkpoint and retention errors, matched with errors.Is.
var (
	// ErrPruned reports a version removed by a retention policy.
	ErrPruned = store.ErrPruned
	// ErrNotDurable reports a checkpoint request against a database
	// without a durable segmented backend.
	ErrNotDurable = core.ErrNotDurable
	// ErrCheckpointBusy reports a checkpoint request while another run is
	// in flight.
	ErrCheckpointBusy = core.ErrCheckpointBusy
)

// Resilience tier (Config.Resilience): a circuit breaker around backend
// reads plus per-component health state machines driving degraded,
// cache-first serving. (*DB).Health snapshots it; the txserved server maps
// it onto /readyz and /metrics.
type (
	// ResilienceConfig enables and parameterizes the tier (zero value:
	// disabled).
	ResilienceConfig = resilience.Config
	// BreakerConfig parameterizes the circuit breaker around backend reads.
	BreakerConfig = resilience.BreakerConfig
	// HealthConfig parameterizes the per-component health hysteresis.
	HealthConfig = resilience.HealthConfig
	// HealthSnapshot is a consistent view of the tier, from (*DB).Health.
	HealthSnapshot = resilience.Snapshot
	// HealthState is a component's health: healthy, degraded or failing.
	HealthState = resilience.State
	// BreakerState is the circuit breaker's position.
	BreakerState = resilience.BreakerState
)

// Health states and breaker positions, for matching HealthSnapshot fields.
const (
	StateHealthy  = resilience.Healthy
	StateDegraded = resilience.Degraded
	StateFailing  = resilience.Failing

	BreakerClosed   = resilience.BreakerClosed
	BreakerHalfOpen = resilience.BreakerHalfOpen
	BreakerOpen     = resilience.BreakerOpen
)

// Typed serving errors of the resilience tier, matched with errors.Is.
var (
	// ErrCircuitOpen reports a backend read failed fast because the
	// circuit breaker is open.
	ErrCircuitOpen = resilience.ErrCircuitOpen
	// ErrDegraded reports a write (or other coverage-requiring operation)
	// rejected while the engine serves in degraded mode.
	ErrDegraded = resilience.ErrDegraded
)

// Temporal identity types (Section 3 of the paper).
type (
	// Time is a transaction-time instant in milliseconds since the epoch.
	Time = model.Time
	// Interval is a half-open transaction-time interval [Start, End).
	Interval = model.Interval
	// DocID identifies a stored document.
	DocID = model.DocID
	// XID is a persistent per-document element identifier.
	XID = model.XID
	// EID identifies an element in a document, independent of time.
	EID = model.EID
	// TEID identifies one version of one element.
	TEID = model.TEID
	// VersionNo numbers a document's versions, starting at 1.
	VersionNo = model.VersionNo
)

// Forever is the open upper bound of current versions' validity.
const Forever = model.Forever

// Always is the interval covering all of transaction time.
var Always = model.Always

// Date returns the instant at midnight UTC of the given day.
func Date(year int, month time.Month, day int) Time { return model.Date(year, month, day) }

// TimeOf converts a time.Time.
func TimeOf(t time.Time) Time { return model.TimeOf(t) }

// XML tree types.
type (
	// Node is one node of an XML tree (element or text).
	Node = xmltree.Node
	// Attr is an element attribute.
	Attr = xmltree.Attr
)

// ParseXML parses an XML document into a tree.
var ParseXML = xmltree.ParseString

// Pattern trees (Section 6: the PatternScan family's input).
type (
	// Pattern is a pattern-tree node.
	Pattern = pattern.PNode
	// ValuePred is a word-containment predicate on a pattern node.
	ValuePred = pattern.ValuePred
	// Match is one pattern-scan result.
	Match = pattern.Match
)

// Pattern axes.
const (
	// Child is the isParentOf relationship.
	Child = pattern.Child
	// Descendant is the isAscendantOf relationship (the // axis).
	Descendant = pattern.Descendant
)

// Storage and result types.
type (
	// StoreConfig configures the version store and its simulated disk.
	StoreConfig = store.Config
	// PageConfig configures the simulated paged disk.
	PageConfig = pagestore.Config
	// CacheConfig configures the shared version-reconstruction cache
	// (set Config.Cache; MaxBytes <= 0 disables it).
	CacheConfig = vcache.Config
	// CacheStats are the version-cache counters, from (*DB).CacheStats.
	CacheStats = vcache.Stats
	// IOStats are simulated-disk counters.
	IOStats = pagestore.IOStats
	// PoolStats are the shared worker pool's counters, from
	// (*DB).PoolStats (sized by Config.Workers).
	PoolStats = parallel.Stats
	// PoolScopeStats are the pool's per-operator counters, including the
	// task-time/wall-time speedup proxy.
	PoolScopeStats = parallel.ScopeStats
	// VersionInfo is one entry of a document's delta index.
	VersionInfo = store.VersionInfo
	// VersionTree is a reconstructed document version.
	VersionTree = store.VersionTree
	// DocInfo is document metadata.
	DocInfo = store.DocInfo
	// Result is an executed query.
	Result = plan.Result
	// QueryMetrics counts the work a query performed (pattern matches,
	// reconstructions, rows examined).
	QueryMetrics = plan.Metrics
	// Elem is an element value inside a query result row.
	Elem = plan.Elem
	// Script is a completed edit script (delta) between two versions.
	Script = diff.Script
	// Posting is a temporal full-text-index entry.
	Posting = fti.Posting
	// Query is a parsed query.
	Query = query.Query
	// ParseError is a query syntax error carrying the byte offset and
	// 1-based line/column of the offending token; match it with errors.As.
	ParseError = query.ParseError
)

// ParseQuery parses a temporal query without executing it.
var ParseQuery = query.Parse

// Query execution entry points, shared by library users, the CLI and the
// txserved HTTP server:
//
//	(*DB).Query(src)                 — parse and execute
//	(*DB).QueryContext(ctx, src)     — with cancellation/deadline support
//	(*DB).Explain(src)               — operator plan without executing
//
// See the DB method documentation in internal/core and the examples in
// example_test.go.

// Similarity helpers (Section 7.4).
var (
	// ShallowEqual compares element name, attributes and direct text.
	ShallowEqual = similarity.ShallowEqual
	// DeepEqual compares whole subtrees.
	DeepEqual = similarity.DeepEqual
	// SimilarityScore is the Theobald/Weikum-style similarity in [0,1].
	SimilarityScore = similarity.Score
	// Similar applies SimilarityScore with a threshold (the ~ operator).
	Similar = similarity.Similar
)

// Placement policies of the simulated disk.
const (
	// Unclustered scatters extents (the paper's delta worst case).
	Unclustered = pagestore.Unclustered
	// Clustered groups a document's extents in arenas.
	Clustered = pagestore.Clustered
)

// Workload generation (the TDocGen-style corpus generator) and the
// warehouse crawl simulation (Section 3.1 of the paper).
type (
	// WorkloadConfig parameterizes the deterministic document generator.
	WorkloadConfig = tdocgen.Config
	// Workload generates evolving document corpora.
	Workload = tdocgen.Generator
	// WorkloadVersion is one generated document state.
	WorkloadVersion = tdocgen.Version
	// Source is a simulated web document with its true change history.
	Source = warehouse.Source
	// Crawler fetches sources into a DB at retrieval timestamps.
	Crawler = warehouse.Crawler
	// CrawlStats summarizes a crawl run (fetches, missed versions,
	// staleness).
	CrawlStats = warehouse.Stats
)

// NewWorkload returns a deterministic corpus generator.
func NewWorkload(cfg WorkloadConfig) *Workload { return tdocgen.New(cfg) }

// DocTimeEntry is one hit of a document-time range query (Section 3.1 of
// the paper): an element carrying a timestamp inside the document content.
type DocTimeEntry = doctime.Entry

// GenerateSources builds a synthetic web from a workload configuration.
var GenerateSources = warehouse.GenerateSources
