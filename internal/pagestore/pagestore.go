// Package pagestore is a page-oriented storage tier with I/O accounting.
//
// The paper's cost arguments (Section 7.2, "Additional notes on indexes")
// are about disk behaviour: "deltas will in many cases be stored unclustered
// (...) As a result each delta read will involve a disk seek in the worst
// case." To make those arguments measurable on a pure-Go substrate, this
// package models a disk as an append-only array of fixed-size pages and
// counts page reads, page writes, seeks (a read that does not continue where
// the previous one ended) and buffer-pool hits. The version store places
// documents, deltas and snapshots here, and the benchmark harness reports
// the counters.
//
// Persistence is pluggable through the Backend interface: the default
// in-memory backend is volatile (the original simulated disk), while the
// segmented write-ahead log (segwal.go) makes every committed extent
// durable across process crashes. Writes are staged in a Batch, the one
// commit unit: its extents, frees and metadata reach the backend together
// at Commit, or not at all. Every extent, on either backend, carries a
// CRC32 checksum computed at write time and verified on every read; a
// mismatch surfaces as ErrCorrupt rather than as downstream XML parse
// failures.
//
// Two placement policies are provided:
//
//   - Unclustered: every write allocates at the current end of the heap, so
//     writes belonging to different documents interleave and a document's
//     delta chain ends up scattered — the paper's worst case.
//   - Clustered: each placement group (one group per document) grows its own
//     arena of contiguous pages, so a document's delta chain is mostly
//     sequential on disk.
package pagestore

import (
	"fmt"
	"sync"
	"time"
)

// Placement selects how extents are laid out on the simulated disk.
type Placement int

const (
	// Unclustered allocates every extent at the end of the heap.
	Unclustered Placement = iota
	// Clustered allocates extents of one group inside per-group arenas.
	Clustered
)

func (p Placement) String() string {
	switch p {
	case Unclustered:
		return "unclustered"
	case Clustered:
		return "clustered"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Config parameterizes a Store.
type Config struct {
	// PageSize is the page size in bytes. Defaults to 4096.
	PageSize int
	// BufferPages is the capacity of the LRU buffer pool, in pages.
	// Zero disables caching.
	BufferPages int
	// Placement is the extent layout policy. Defaults to Unclustered.
	Placement Placement
	// ArenaChunk is the number of pages a clustered group's arena grows by
	// when full. Defaults to 64.
	ArenaChunk int
	// NearDistance is the number of pages the head can move without the
	// move counting as a seek (a short stroke within a track or arena).
	// Zero means only an exact forward continuation is seekless.
	NearDistance int64
	// Backend supplies the persistence tier. Nil selects the volatile
	// in-memory backend. Pass a segmented WAL (OpenSegmentedWAL) for
	// durability, or a fault injector (NewInjector) for failure testing.
	Backend Backend
	// GroupWindow is how long a committing writer that leads a group
	// waits for others to join it before the group's single backend
	// Commit (one write and one fsync on the WAL), or until GroupMaxBatch
	// batches wait. Each caller still blocks until its group's durability
	// point. Zero (the default) waits for nobody: a writer that finds no
	// flush in flight flushes at once, taking along whatever queued
	// behind the previous flush.
	GroupWindow time.Duration
	// GroupMaxBatch caps how many batches share one backend Commit before
	// the group is sealed early. Zero defaults to 64.
	GroupMaxBatch int
}

// IOStats are the accumulated counters of a Store.
type IOStats struct {
	PageReads      int64 // pages transferred from "disk"
	PageWrites     int64 // pages transferred to "disk"
	Seeks          int64 // reads that did not continue at the previous position
	CacheHits      int64 // extent reads served by the buffer pool
	CacheMisses    int64 // reads that fell through the buffer pool to the backend
	CacheEvictions int64 // extents evicted from the buffer pool by its page budget
	ExtentRead     int64 // number of Read calls that touched the disk
}

// Add returns the sum of two counter snapshots.
func (s IOStats) Add(o IOStats) IOStats {
	return IOStats{
		PageReads:      s.PageReads + o.PageReads,
		PageWrites:     s.PageWrites + o.PageWrites,
		Seeks:          s.Seeks + o.Seeks,
		CacheHits:      s.CacheHits + o.CacheHits,
		CacheMisses:    s.CacheMisses + o.CacheMisses,
		CacheEvictions: s.CacheEvictions + o.CacheEvictions,
		ExtentRead:     s.ExtentRead + o.ExtentRead,
	}
}

// Sub returns the difference s - o, for measuring a window of activity.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		PageReads:      s.PageReads - o.PageReads,
		PageWrites:     s.PageWrites - o.PageWrites,
		Seeks:          s.Seeks - o.Seeks,
		CacheHits:      s.CacheHits - o.CacheHits,
		CacheMisses:    s.CacheMisses - o.CacheMisses,
		CacheEvictions: s.CacheEvictions - o.CacheEvictions,
		ExtentRead:     s.ExtentRead - o.ExtentRead,
	}
}

// CostMs converts the counters into simulated milliseconds using a simple
// disk model: 8 ms per seek, 0.05 ms per sequentially transferred page.
func (s IOStats) CostMs() float64 {
	return float64(s.Seeks)*8.0 + float64(s.PageReads+s.PageWrites)*0.05
}

func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d seeks=%d hits=%d (≈%.1f ms)",
		s.PageReads, s.PageWrites, s.Seeks, s.CacheHits, s.CostMs())
}

// Ref locates an extent on the simulated disk.
type Ref struct {
	Start int64 // first page
	Pages int32 // extent length in pages
	Len   int32 // payload length in bytes
}

// Zero reports whether the ref is the zero value (no extent).
func (r Ref) Zero() bool { return r == Ref{} }

// parkedHead is the head position before any read; it is far from every
// page so that the first read always counts as a seek.
const parkedHead int64 = -(1 << 40)

// Store is a paged storage tier over a pluggable Backend. It is safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	cfg     Config
	backend Backend
	next    int64          // next free page in the global heap
	arenas  map[int]*arena // placement group -> arena (clustered only)
	lastPos int64          // page position after the most recent read
	stats   IOStats
	cache   *lruCache
	group   *GroupCommitter
}

type arena struct {
	next, limit int64
}

// New returns a store over cfg.Backend (a fresh in-memory backend when
// nil). For a backend recovered from disk, allocation resumes past the
// highest recovered extent.
func New(cfg Config) *Store {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.ArenaChunk <= 0 {
		cfg.ArenaChunk = 64
	}
	if cfg.Backend == nil {
		cfg.Backend = NewMemory()
	}
	s := &Store{
		cfg:     cfg,
		backend: cfg.Backend,
		next:    cfg.Backend.NextPage(),
		arenas:  make(map[int]*arena),
		lastPos: parkedHead,
	}
	if cfg.BufferPages > 0 {
		s.cache = newLRU(cfg.BufferPages)
	}
	// The backend's Commit is the group's single durability point; the
	// backend serializes its appends internally, so s.mu is never held
	// across the device wait.
	s.group = NewGroupCommitter(s.backend.Commit, cfg.GroupWindow, cfg.GroupMaxBatch)
	return s
}

// PageSize returns the configured page size in bytes.
func (s *Store) PageSize() int { return s.cfg.PageSize }

// Backend returns the persistence tier under the store.
func (s *Store) Backend() Backend { return s.backend }

// Durable reports whether the backend survives a process crash.
func (s *Store) Durable() bool { return s.backend.Durable() }

// pagesFor returns how many pages a payload of n bytes occupies (min 1).
func (s *Store) pagesFor(n int) int32 {
	p := (n + s.cfg.PageSize - 1) / s.cfg.PageSize
	if p == 0 {
		p = 1
	}
	return int32(p)
}

// Batch is one commit unit, private to the writer that builds it: the
// extents it writes, the extents it frees and the metadata records it
// logs. Nothing reaches the backend before Commit, which applies all of it
// or none of it, so a failed commit is undone by dropping the batch.
// After a successful Commit the writer publishes whatever names the new
// extents, then calls Release, which drops the freed ones: until then
// concurrent readers of the previous version table can still read them.
type Batch struct {
	s         *Store
	ops       []pendingOp // in staging order, as they are logged
	freed     []int64     // start pages of the freed extents
	committed bool
}

// Begin starts an empty batch on the store.
func (s *Store) Begin() *Batch { return &Batch{s: s} }

// Write allocates a new extent for a copy of data in the placement group
// and stages it. Group is typically a document identifier. The extent is
// checksummed now and readable once the batch commits.
func (b *Batch) Write(group int, data []byte) Ref {
	s := b.s
	pages := s.pagesFor(len(data))
	s.mu.Lock()
	var start int64
	if s.cfg.Placement == Clustered {
		a := s.arenas[group]
		if a == nil {
			a = &arena{}
			s.arenas[group] = a
		}
		if a.next+int64(pages) > a.limit {
			chunk := int64(s.cfg.ArenaChunk)
			if int64(pages) > chunk {
				chunk = int64(pages)
			}
			a.next = s.next
			a.limit = s.next + chunk
			s.next += chunk
		}
		start = a.next
		a.next += int64(pages)
	} else {
		start = s.next
		s.next += int64(pages)
	}
	s.stats.PageWrites += int64(pages)
	s.mu.Unlock()
	b.ops = append(b.ops, pendingOp{kind: recExtent, start: start, ext: Extent{
		Data:  append([]byte(nil), data...),
		Pages: pages,
		Sum:   Checksum(data),
	}})
	return Ref{Start: start, Pages: pages, Len: int32(len(data))}
}

// Free stages the release of an extent. The pages are not reused (the disk
// is append-only, like the paper's log-structured repositories); once the
// batch commits and is released, the payload is dropped and further reads
// fail. Freeing the zero Ref is a no-op: the zero value means "no extent",
// never the extent at page 0.
func (b *Batch) Free(ref Ref) {
	if ref.Zero() {
		return
	}
	b.ops = append(b.ops, pendingOp{kind: recFree, start: ref.Start})
	b.freed = append(b.freed, ref.Start)
}

// SetMeta stages an opaque metadata blob (the version store's serialized
// delta index); once committed it replaces the previous blob and the
// metadata deltas on top of it.
func (b *Batch) SetMeta(meta []byte) {
	b.ops = append(b.ops, pendingOp{kind: recMeta, meta: append([]byte(nil), meta...)})
}

// SetMetaDelta stages an incremental metadata record on top of the last
// metadata blob.
func (b *Batch) SetMetaDelta(delta []byte) {
	b.ops = append(b.ops, pendingOp{kind: recMetaDelta, meta: append([]byte(nil), delta...)})
}

// Commit makes the batch durable, sharing the backend Commit with every
// batch in its group (see Config.GroupWindow), and returns after the
// group's durability point: nil on success, an error matching
// ErrGroupCommit when the group's commit failed. A failed batch left
// nothing in the backend.
func (b *Batch) Commit() error {
	if err := b.s.group.Commit(b); err != nil {
		return err
	}
	b.committed = true
	return nil
}

// Release drops the extents a committed batch freed, from the backend and
// the buffer pool. Call it after publishing the version table that no
// longer names them. Releasing a batch that did not commit does nothing.
func (b *Batch) Release() {
	if !b.committed || len(b.freed) == 0 {
		return
	}
	s := b.s
	// Backend first: once the pool entries are gone too, no read can
	// bring the extents back.
	s.backend.Release(b)
	if s.cache != nil {
		s.mu.Lock()
		for _, start := range b.freed {
			s.cache.drop(start)
		}
		s.mu.Unlock()
	}
	b.freed = nil
}

// Read returns the payload of the extent, charging page reads and a seek if
// the extent does not start where the previous read ended. Reads served by
// the buffer pool charge nothing but a cache hit. The payload's checksum is
// verified on every read; a mismatch returns an error wrapping ErrCorrupt.
func (s *Store) Read(ref Ref) ([]byte, error) {
	if ref.Zero() {
		return nil, ErrZeroRef
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache != nil {
		if ext, ok := s.cache.get(ref.Start); ok {
			if err := verify(ref, ext); err != nil {
				// A poisoned buffer-pool entry: drop it and fall through
				// to the backend copy.
				s.cache.drop(ref.Start)
			} else {
				s.stats.CacheHits++
				return ext.Data, nil
			}
		}
		s.stats.CacheMisses++
	}
	//txvet:ignore lockhold backend Get is an in-memory lookup; head position and buffer pool must stay consistent with it under s.mu
	ext, err := s.backend.Get(ref.Start)
	if err != nil {
		return nil, fmt.Errorf("pagestore: read of extent at page %d: %w", ref.Start, err)
	}
	if err := verify(ref, ext); err != nil {
		return nil, err
	}
	if dist := ref.Start - s.lastPos; dist < -s.cfg.NearDistance || dist > s.cfg.NearDistance {
		s.stats.Seeks++
	}
	s.stats.PageReads += int64(ref.Pages)
	s.stats.ExtentRead++
	s.lastPos = ref.Start + int64(ref.Pages)
	if s.cache != nil {
		s.stats.CacheEvictions += int64(s.cache.put(ref.Start, ext, int(ref.Pages)))
	}
	return ext.Data, nil
}

// verify checks the extent's payload against its write-time checksum.
func verify(ref Ref, ext Extent) error {
	if int32(len(ext.Data)) != ref.Len || Checksum(ext.Data) != ext.Sum {
		return fmt.Errorf("pagestore: extent at page %d: %w (have %d bytes sum %08x, ref wants %d bytes sum %08x)",
			ref.Start, ErrCorrupt, len(ext.Data), Checksum(ext.Data), ref.Len, ext.Sum)
	}
	return nil
}

// Meta returns the backend's current metadata blob, nil if none.
func (s *Store) Meta() []byte { return s.backend.Meta() }

// MetaDeltas returns the metadata deltas committed since the last full
// snapshot; after recovery, the recovered ones.
func (s *Store) MetaDeltas() [][]byte { return s.backend.MetaDeltas() }

// Provenance reports where the extent's bytes live at rest (segment file
// and offset, or checkpoint image) when the backend tracks origins.
func (s *Store) Provenance(start int64) (string, bool) {
	pb, ok := s.backend.(ProvenanceBackend)
	if !ok {
		return "", false
	}
	return pb.Provenance(start)
}

// GroupStats reports the group committer's amortization counters and
// whether a collection window (Config.GroupWindow) is configured.
func (s *Store) GroupStats() (GroupStats, bool) {
	return s.group.Stats(), s.cfg.GroupWindow > 0
}

// Close releases the backend. The group committer is drained first so
// in-flight commits reach their durability point before the backend goes
// away.
func (s *Store) Close() error {
	s.group.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold Close runs once at shutdown; holding s.mu fences late writers
	return s.backend.Close()
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the I/O counters (the disk contents are kept).
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = IOStats{}
	s.lastPos = parkedHead
}

// DropCache empties the buffer pool, so that the next reads hit the disk.
// Benchmarks use it to measure cold-cache behaviour.
func (s *Store) DropCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache != nil {
		s.cache.clear()
	}
}

// PagesUsed returns the total number of allocated pages, including arena
// slack for clustered placement. This is the storage-size measure used by
// the experiments.
func (s *Store) PagesUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// BytesStored returns the sum of payload sizes of live extents.
func (s *Store) BytesStored() int64 {
	var total int64
	s.backend.Range(func(_ int64, ext Extent) bool {
		total += int64(len(ext.Data))
		return true
	})
	return total
}
