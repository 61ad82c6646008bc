// Package store implements the physical storage model of Section 7.1 of the
// paper: every document is stored as one complete current version plus a
// chain of completed deltas, each delta kept as a separate XML document on
// the simulated disk. A per-document delta index maps version numbers to
// timestamps and extent references; with an in-memory delta index,
// PreviousTS/NextTS/CurrentTS are pure index lookups (Section 7.3.7).
//
// Optionally the store intersperses full snapshots every k versions, which
// bounds the number of deltas a reconstruction has to apply (Section 7.3.3).
package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/resilience"
	"txmldb/internal/xmltree"
)

// Config parameterizes a Store.
type Config struct {
	// Pages configures the storage tier (in-memory by default; set
	// Pages.Backend to a WAL backend for durability).
	Pages pagestore.Config
	// SnapshotEvery stores a full snapshot every k-th version (0 = never).
	SnapshotEvery int
	// ReadRetries bounds how often a transient read fault
	// (pagestore.ErrTransient) is retried before giving up. Zero means the
	// default of 3; negative disables retries.
	ReadRetries int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// attempt (plus up to 50% seeded jitter). Zero means the default of
	// 200µs.
	RetryBackoff time.Duration
	// RetrySeed seeds the backoff jitter so fault runs replay identically.
	// Zero means 1.
	RetrySeed int64
	// Resilience, when non-nil, wraps backend reads in the tier's circuit
	// breaker and feeds read outcomes into its health machines. A nil tier
	// preserves the raw retry behaviour.
	Resilience *resilience.Tier
}

// VersionInfo is one entry of a document's delta index.
type VersionInfo struct {
	Ver   model.VersionNo
	Stamp model.Time
	// End is the timestamp at which this version stopped being current:
	// the next version's stamp, the document deletion time, or Forever.
	End model.Time
	// DeltaToNext references the completed delta document transforming this
	// version into the next one; zero for the current version.
	DeltaToNext pagestore.Ref
	// Snapshot references a full serialization of this version, if one was
	// stored; zero otherwise. The current version always has one.
	Snapshot pagestore.Ref
	// Pruned marks a version whose extents were reclaimed by a retention
	// vacuum. The entry itself stays — version numbers are positional in the
	// delta index — but both refs are zero and the version cannot be
	// materialized anymore (ErrPruned).
	Pruned bool
	// Epoch is the store-wide commit epoch at which this version was
	// published. It is runtime-only (never persisted; versions recovered
	// from disk carry 0, visible at every pin) and drives the snapshot
	// isolation of epoch-pinned readers: a reader pinned at epoch E never
	// selects a version with Epoch > E.
	Epoch uint64
}

// Interval returns the transaction-time validity of the version.
func (v VersionInfo) Interval() model.Interval {
	return model.Interval{Start: v.Stamp, End: v.End}
}

// DocInfo describes a stored document.
type DocInfo struct {
	ID       model.DocID
	Name     string
	RootXID  model.XID
	Created  model.Time
	Deleted  model.Time // Forever while the document is live
	Versions int
}

// Live reports whether the document currently exists.
func (d DocInfo) Live() bool { return d.Deleted == model.Forever }

type docEntry struct {
	id      model.DocID
	name    string
	nextXID model.XID
	created model.Time
	deleted model.Time
	rootXID model.XID

	cur      *xmltree.Node // cached current version; nil if unrecoverable
	curErr   error         // why cur is nil after a degraded recovery
	versions []VersionInfo // index 0 = version 1

	// wmu is the per-document write latch: the single serialization point
	// of the concurrent write path. A writer holds it from version-number
	// assignment through publication, so two writers never stage the same
	// successor; writers of different documents proceed fully in parallel.
	// Lock order: wmu before s.mu (publication takes s.mu.Lock while
	// holding wmu).
	wmu sync.Mutex

	// deletedEpoch is the store epoch at which the deletion was published
	// (0 while live or when recovered from disk). Pinned readers treat a
	// deletion published after their pin as not yet having happened.
	deletedEpoch uint64
}

func (d *docEntry) curInfo() *VersionInfo { return &d.versions[len(d.versions)-1] }

// Store is the version store. It is safe for concurrent use, including
// concurrent writers: mutations stage their extents and metadata outside
// the global lock (serialized per document by the entry's write latch),
// wait for the commit's durability point — where the pagestore's
// group-commit batcher amortizes one fsync across concurrent commits — and
// only then publish the new version under a brief write lock. Readers
// therefore never block on a writer's fsync, and a reader pinned to an
// epoch (WithEpoch) gets a consistent snapshot while writers advance.
type Store struct {
	mu      sync.RWMutex
	cfg     Config
	pages   *pagestore.Store
	docs    map[model.DocID]*docEntry
	byName  map[string]model.DocID
	nextDoc model.DocID

	// epoch is the commit horizon: incremented under s.mu at every
	// publication, stamped onto the published version. Starts at 1 so that
	// 0 stays the "no pin" sentinel and recovered versions (epoch 0) are
	// visible at every pin.
	epoch uint64

	// pendingNames holds names claimed by in-flight Puts that have not
	// published yet, so two concurrent creates of the same name cannot both
	// proceed to their durability point.
	pendingNames map[string]bool

	// jmu guards jrnd: retry-backoff jitter is drawn concurrently by
	// readers that only hold s.mu.RLock.
	jmu  sync.Mutex
	jrnd *rand.Rand

	// ckptCommits counts durable commits since the last checkpoint; the
	// checkpoint trigger polls it. Mutated under s.mu (writers hold the
	// write lock), read under RLock.
	ckptCommits int

	// deltas counts the completed deltas reconstructions have applied.
	deltas atomic.Int64
}

// New returns an empty store.
func New(cfg Config) *Store {
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = 1
	}
	return &Store{
		cfg:          cfg,
		pages:        pagestore.New(cfg.Pages),
		docs:         make(map[model.DocID]*docEntry),
		byName:       make(map[string]model.DocID),
		epoch:        1,
		pendingNames: make(map[string]bool),
		jrnd:         rand.New(rand.NewSource(seed)),
	}
}

// Resilience returns the resilience tier the store feeds, nil when
// disabled.
func (s *Store) Resilience() *resilience.Tier { return s.cfg.Resilience }

// DeltasApplied reports how many completed deltas reconstructions and
// history walks have applied, forward or inverted, since the store opened.
func (s *Store) DeltasApplied() int64 { return s.deltas.Load() }

// Pages exposes the simulated disk, mainly for I/O accounting in benchmarks.
func (s *Store) Pages() *pagestore.Store { return s.pages }

// Durable reports whether the store survives a process crash.
func (s *Store) Durable() bool { return s.pages.Durable() }

// Close releases the storage backend. The store is unusable afterwards.
func (s *Store) Close() error { return s.pages.Close() }

var (
	// ErrNotFound reports an unknown document.
	ErrNotFound = fmt.Errorf("store: document not found")
	// ErrDeleted reports an operation that needs a live document.
	ErrDeleted = fmt.Errorf("store: document is deleted")
	// ErrExists reports a Put under a name that is currently live.
	ErrExists = fmt.Errorf("store: document already exists")
	// ErrNoVersion reports that no version was valid at the requested time.
	ErrNoVersion = fmt.Errorf("store: no version valid at that time")
	// ErrStale reports an update whose timestamp does not advance the
	// document's history.
	ErrStale = fmt.Errorf("store: timestamp not newer than current version")
	// ErrUnreachable reports a version that cannot be reconstructed
	// because an extent it depends on is corrupt or missing. The error
	// chain also carries the underlying pagestore error
	// (pagestore.ErrCorrupt or pagestore.ErrUnknownExtent) and names the
	// broken delta or snapshot.
	ErrUnreachable = errors.New("store: version unreachable")
)

// readExtentCtx reads one extent, retrying transient faults with bounded
// exponential backoff; permanent faults (corruption, unknown extents) are
// returned at once. The backoff sleeps abort as soon as ctx is canceled,
// so a caller that gave up never blocks in a retry sleep. When a
// resilience tier is configured, the read first consults its circuit
// breaker — failing fast with ErrCircuitOpen while it is open — and the
// final outcome (not each attempt) is fed back into the tier.
func (s *Store) readExtentCtx(ctx context.Context, ref pagestore.Ref) ([]byte, error) {
	return s.readThrough(ctx, ref, s.cfg.Resilience)
}

// readExtentRaw reads with transient retries but bypasses the circuit
// breaker and records nothing in the resilience tier. Fsck uses it: a
// diagnostic walk must see the device's true state even while the breaker
// is open, and its verdict enters the tier wholesale via RecordFsck.
func (s *Store) readExtentRaw(ref pagestore.Ref) ([]byte, error) {
	return s.readThrough(context.Background(), ref, nil)
}

// readThrough is the retry loop of both reads; res may be nil.
func (s *Store) readThrough(ctx context.Context, ref pagestore.Ref, res *resilience.Tier) ([]byte, error) {
	if err := res.AllowRead(); err != nil {
		return nil, err
	}
	retries := s.cfg.ReadRetries
	switch {
	case retries == 0:
		retries = 3
	case retries < 0:
		retries = 0
	}
	backoff := s.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 200 * time.Microsecond
	}
	for attempt := 0; ; attempt++ {
		data, err := s.pages.Read(ref)
		if err == nil {
			res.RecordReadOK()
			return data, nil
		}
		if !errors.Is(err, pagestore.ErrTransient) || attempt >= retries {
			if errors.Is(err, pagestore.ErrCorrupt) || errors.Is(err, pagestore.ErrUnknownExtent) {
				// The device answered; the bytes are wrong. Integrity
				// problem, not an I/O-path problem.
				res.RecordCorruption()
			} else {
				res.RecordIOFailure()
			}
			return data, err
		}
		// Transient: back off exponentially with up to +50% seeded jitter
		// (decorrelates retry herds without breaking replayability), but
		// give up immediately if the caller's context dies meanwhile.
		d := backoff << attempt
		d += s.jitter(d / 2)
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			// Says nothing about device health: release any half-open
			// probe slot without recording an outcome.
			res.ReleaseRead()
			return nil, fmt.Errorf("store: read of page %d canceled in retry backoff: %w", ref.Start, ctx.Err())
		case <-timer.C:
		}
	}
}

// Probe reads one extent through the circuit breaker — the current
// snapshot of the lowest-numbered document — so that the resilience tier
// sees the device although serving it does not need to (the current
// version and cache-resident versions are in memory). It fails when there
// is no extent to read.
func (s *Store) Probe() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ref pagestore.Ref
	low := model.DocID(0)
	for id, d := range s.docs {
		if snap := d.curInfo().Snapshot; !snap.Zero() && (ref.Zero() || id < low) {
			ref, low = snap, id
		}
	}
	if ref.Zero() {
		return errors.New("store: no extent to probe")
	}
	_, err := s.readExtentCtx(context.Background(), ref)
	return err
}

// jitter draws a seeded random duration in [0, max).
func (s *Store) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return time.Duration(s.jrnd.Int63n(int64(max)))
}

// commitStaged makes a staged single-document mutation durable *before*
// it is published: on a durable backend the staged entry goes into the
// batch as its metadata record, then Commit blocks until the durability
// point — the batch shares one backend commit with every other batch in
// its group. It returns whether a durable commit happened (so the caller
// counts it toward the checkpoint trigger after publishing). The staged
// entry and the batch are private to the calling writer; no lock is held
// across the fsync, which is the whole point of the concurrent write path.
// A failed commit left nothing in the backend: the caller just drops the
// batch.
//
// The metadata record is a single-document upsert — O(doc) per commit, and
// commutative across concurrently staged documents, which is what lets
// writers share a group.
func (s *Store) commitStaged(b *pagestore.Batch, staged *docEntry) (bool, error) {
	durable := s.pages.Durable()
	if durable {
		s.mu.RLock()
		nextDoc := int64(s.nextDoc)
		s.mu.RUnlock()
		delta, err := marshalDocDelta(staged, nextDoc)
		if err != nil {
			return false, fmt.Errorf("store: serialize meta delta: %w", err)
		}
		b.SetMetaDelta(delta)
	}
	if err := b.Commit(); err != nil {
		return false, fmt.Errorf("store: commit: %w", err)
	}
	return durable, nil
}

// CommitsSinceCheckpoint reports how many durable commits happened since
// the last NoteCheckpoint (or open). Checkpoint triggers poll it.
func (s *Store) CommitsSinceCheckpoint() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ckptCommits
}

// NoteCheckpoint resets the commit counter after a published checkpoint.
func (s *Store) NoteCheckpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptCommits = 0
}

// Put stores tree as version 1 of a new document under name. The tree is
// annotated in place with fresh XIDs and stamp t. If a document with the
// same name existed before, it must be deleted; the new document gets a new
// DocID (XIDs are never shared across document incarnations).
//
// The write is staged: the DocID and name are claimed under a brief global
// lock, the snapshot extent and metadata are staged in a batch and
// committed with no lock held (sharing a group commit with concurrent
// writers), and the document becomes visible — atomically, with a fresh
// epoch — only after the durability point. A failed commit leaves the
// store exactly as before, minus a DocID gap.
func (s *Store) Put(name string, tree *xmltree.Node, t model.Time) (model.DocID, error) {
	if err := tree.Validate(); err != nil {
		return 0, fmt.Errorf("store: put %q: %w", name, err)
	}
	s.mu.Lock()
	if prev, ok := s.byName[name]; ok {
		if s.docs[prev].deleted == model.Forever {
			s.mu.Unlock()
			return 0, fmt.Errorf("%w: %q", ErrExists, name)
		}
	}
	if s.pendingNames[name] {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %q (concurrent create in flight)", ErrExists, name)
	}
	s.pendingNames[name] = true
	s.nextDoc++
	id := s.nextDoc
	s.mu.Unlock()

	unclaim := func() {
		s.mu.Lock()
		delete(s.pendingNames, name)
		s.mu.Unlock()
	}
	d := &docEntry{
		id:      id,
		name:    name,
		created: t,
		deleted: model.Forever,
	}
	nx := model.XID(0)
	diff.AssignXIDs(tree, func() model.XID { nx++; return nx }, t)
	d.nextXID = nx
	d.rootXID = tree.XID
	d.cur = tree.Clone()
	b := s.pages.Begin()
	ref := b.Write(int(id), xmltree.Marshal(d.cur))
	d.versions = []VersionInfo{{Ver: 1, Stamp: t, End: model.Forever, Snapshot: ref}}
	committed, err := s.commitStaged(b, d)
	if err != nil {
		unclaim()
		return 0, fmt.Errorf("store: put %q: %w", name, err)
	}

	s.mu.Lock()
	s.epoch++
	d.versions[0].Epoch = s.epoch
	s.docs[id] = d
	s.byName[name] = id
	delete(s.pendingNames, name)
	if committed {
		s.ckptCommits++
	}
	s.mu.Unlock()
	return id, nil
}

// Update stores tree as the next version of the document at time t. The
// tree is annotated in place with XIDs (persistent for matched elements,
// fresh for new ones). It returns the new version number and the completed
// delta script that was stored, which index maintenance consumes.
// Update is staged like Put: the writer holds only the document's write
// latch (the single serialization point — version-number assignment and
// everything that depends on it) while diffing, writing extents and
// waiting out the commit's durability point; the global lock is taken just
// long enough to publish the new version under a fresh epoch. Readers —
// including epoch-pinned ones — never wait on the fsync, and a failed
// commit publishes nothing.
func (s *Store) Update(id model.DocID, tree *xmltree.Node, t model.Time) (model.VersionNo, *diff.Script, error) {
	if err := tree.Validate(); err != nil {
		return 0, nil, fmt.Errorf("store: update %d: %w", id, err)
	}
	s.mu.RLock()
	d, ok := s.docs[id]
	s.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	// Under the latch the entry's fields are stable: only the latch holder
	// publishes to this document, and publication itself additionally takes
	// s.mu, so concurrent readers are ordered too.
	if d.deleted != model.Forever {
		return 0, nil, fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	if d.cur == nil {
		return 0, nil, fmt.Errorf("store: update %d: current version unavailable: %w", id, d.curErr)
	}
	cur := *d.curInfo()
	if t <= cur.Stamp {
		return 0, nil, fmt.Errorf("%w: %s <= %s", ErrStale, t, cur.Stamp)
	}
	newVer := cur.Ver + 1
	// XIDs are allocated against a private counter; the entry's high-water
	// mark moves only at publication, so an abandoned stage leaves at most
	// an XID gap and readers never observe a half-advanced counter.
	nx := d.nextXID
	script, annotated, err := diff.Diff(d.cur, tree, diff.Options{
		Alloc:     func() model.XID { nx++; return nx },
		Stamp:     t,
		FromStamp: cur.Stamp,
		FromVer:   cur.Ver,
		ToVer:     newVer,
	})
	if err != nil {
		return 0, nil, fmt.Errorf("store: update %d: %w", id, err)
	}
	// Store the completed delta as its own XML document (Section 7.1).
	b := s.pages.Begin()
	defer b.Release()
	deltaRef := b.Write(int(id), xmltree.Marshal(script.ToXML()))
	// Stage a copy-on-write successor of the delta index: the shared slice
	// is never mutated in place, so readers (pinned or not) keep a
	// consistent view until the publication swap.
	vs := make([]VersionInfo, len(d.versions), len(d.versions)+1)
	copy(vs, d.versions)
	last := &vs[len(vs)-1]
	last.DeltaToNext = deltaRef
	last.End = t
	newInfo := VersionInfo{Ver: newVer, Stamp: t, End: model.Forever}
	newInfo.Snapshot = b.Write(int(id), xmltree.Marshal(annotated))
	// The previous "current" full version is dropped unless it is a
	// snapshot version: the chain of completed deltas replaces it. The
	// free commits with the batch — replay drops the extent and the commit
	// atomically — but the payload stays readable until the deferred
	// Release, after publication, so a concurrent reader that still
	// selects the old version materializes it; after publication such a
	// reader falls forward to the new current snapshot and walks the
	// inverted delta back.
	if !s.isSnapshotVersion(last.Ver) {
		b.Free(last.Snapshot)
		last.Snapshot = pagestore.Ref{}
	}
	vs = append(vs, newInfo)
	staged := &docEntry{
		id: d.id, name: d.name, nextXID: nx,
		created: d.created, deleted: d.deleted, rootXID: d.rootXID,
		versions: vs,
	}
	committed, err := s.commitStaged(b, staged)
	if err != nil {
		return 0, nil, fmt.Errorf("store: update %d: %w", id, err)
	}

	s.mu.Lock()
	s.epoch++
	vs[len(vs)-1].Epoch = s.epoch
	d.versions = vs
	d.cur = annotated
	d.nextXID = nx
	if committed {
		s.ckptCommits++
	}
	s.mu.Unlock()
	return newVer, script, nil
}

// isSnapshotVersion reports whether full serializations of version v are
// retained after it stops being current.
func (s *Store) isSnapshotVersion(v model.VersionNo) bool {
	return s.cfg.SnapshotEvery > 0 && int(v)%s.cfg.SnapshotEvery == 0
}

// Delete marks the document deleted at time t. Its history stays
// queryable. Like Put and Update it stages, waits for the durability
// point, and publishes under a fresh epoch, so a pinned reader whose pin
// precedes the deletion still sees the document live.
func (s *Store) Delete(id model.DocID, t model.Time) error {
	s.mu.RLock()
	d, ok := s.docs[id]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.deleted != model.Forever {
		return fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	if d.cur == nil {
		return fmt.Errorf("store: delete %d: current version unavailable: %w", id, d.curErr)
	}
	cur := *d.curInfo()
	if t <= cur.Stamp {
		return fmt.Errorf("%w: delete at %s <= %s", ErrStale, t, cur.Stamp)
	}
	vs := append([]VersionInfo(nil), d.versions...)
	vs[len(vs)-1].End = t
	staged := &docEntry{
		id: d.id, name: d.name, nextXID: d.nextXID,
		created: d.created, deleted: t, rootXID: d.rootXID,
		versions: vs,
	}
	committed, err := s.commitStaged(s.pages.Begin(), staged)
	if err != nil {
		return fmt.Errorf("store: delete %d: %w", id, err)
	}

	s.mu.Lock()
	s.epoch++
	d.deleted = t
	d.deletedEpoch = s.epoch
	d.versions = vs
	if committed {
		s.ckptCommits++
	}
	s.mu.Unlock()
	return nil
}

// Info returns the document's metadata.
func (s *Store) Info(id model.DocID) (DocInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return DocInfo{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return DocInfo{
		ID: d.id, Name: d.name, RootXID: d.rootXID,
		Created: d.created, Deleted: d.deleted, Versions: len(d.versions),
	}, nil
}

// Lookup resolves a document name to the DocID of its latest incarnation.
func (s *Store) Lookup(name string) (model.DocID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.byName[name]
	return id, ok
}

// Docs returns all document IDs in insertion order.
func (s *Store) Docs() []model.DocID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.DocID, 0, len(s.docs))
	for id := range s.docs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Current returns a copy of the live current version of the document and
// its version info. It fails for deleted documents; use
// ReconstructAtContext for historical access.
func (s *Store) Current(id model.DocID) (*xmltree.Node, VersionInfo, error) {
	cur, info, err := s.Published(id)
	if err != nil {
		return nil, VersionInfo{}, err
	}
	return cur.Clone(), info, nil
}

// Published returns the published current version of the document — the
// annotated tree the store itself keeps, not a copy — and its version
// info. The tree is shared with the store and every later caller, and
// must be treated as read-only; a later Update replaces it rather than
// modifying it. Index maintenance reads it to avoid Current's deep copy.
func (s *Store) Published(id model.DocID) (*xmltree.Node, VersionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return nil, VersionInfo{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if d.deleted != model.Forever {
		return nil, VersionInfo{}, fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	if d.cur == nil {
		return nil, VersionInfo{}, fmt.Errorf("store: current version of doc %d unavailable: %w", id, d.curErr)
	}
	return d.cur, *d.curInfo(), nil
}

// Versions returns the document's delta index: one entry per version in
// ascending order. This is the in-memory structure behind the
// PreviousTS/NextTS/CurrentTS operators.
func (s *Store) Versions(id model.DocID) ([]VersionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return append([]VersionInfo(nil), d.versions...), nil
}

// VersionsContext is Versions honoring an epoch pin carried by ctx: only
// versions published at or before the pin are listed, each reading as it
// did at the pin (the newest visible one as current). A document created
// after the pin reads as not found.
func (s *Store) VersionsContext(ctx context.Context, id model.DocID) ([]VersionInfo, error) {
	e := epochOf(ctx)
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok || !d.visibleAt(e) {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if e == 0 {
		return append([]VersionInfo(nil), d.versions...), nil
	}
	out := make([]VersionInfo, d.visibleLen(e))
	for i := range out {
		out[i] = d.infoAt(i, e)
	}
	return out, nil
}

// VersionAtContext returns the version valid at time t, honoring an epoch
// pin carried by ctx: selection is clamped to the versions published at or before the pin, and
// the returned info reads as it did at the pin.
func (s *Store) VersionAtContext(ctx context.Context, id model.DocID, t model.Time) (VersionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionInfo{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return d.versionAtEpoch(t, epochOf(ctx))
}

func (d *docEntry) versionAt(t model.Time) (VersionInfo, error) {
	// Binary search for the last version with Stamp <= t.
	i := sort.Search(len(d.versions), func(i int) bool { return d.versions[i].Stamp > t }) - 1
	if i < 0 {
		return VersionInfo{}, fmt.Errorf("%w: %s before first version", ErrNoVersion, t)
	}
	v := d.versions[i]
	if !v.Interval().Contains(t) {
		return VersionInfo{}, fmt.Errorf("%w: %s (document deleted)", ErrNoVersion, t)
	}
	return v, nil
}

// PreviousTS returns the version preceding the one valid at t
// (Section 7.3.7: a pure delta-index lookup, no delta reads).
func (s *Store) PreviousTS(id model.DocID, t model.Time) (VersionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionInfo{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	v, err := d.versionAt(t)
	if err != nil {
		return VersionInfo{}, err
	}
	if v.Ver == 1 {
		return VersionInfo{}, fmt.Errorf("%w: version 1 has no predecessor", ErrNoVersion)
	}
	return d.versions[v.Ver-2], nil
}

// NextTS returns the version following the one valid at t.
func (s *Store) NextTS(id model.DocID, t model.Time) (VersionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionInfo{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	v, err := d.versionAt(t)
	if err != nil {
		return VersionInfo{}, err
	}
	if int(v.Ver) >= len(d.versions) {
		return VersionInfo{}, fmt.Errorf("%w: no successor of current version", ErrNoVersion)
	}
	return d.versions[v.Ver], nil
}

// CurrentTS returns the current version's info (no timestamp needed: the
// current version is implicit, Section 6.1).
func (s *Store) CurrentTS(id model.DocID) (VersionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return VersionInfo{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if d.deleted != model.Forever {
		return VersionInfo{}, fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	return *d.curInfo(), nil
}
