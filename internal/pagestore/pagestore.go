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
// write-ahead-log backend (wal.go) makes every committed extent durable
// across process crashes. Every extent, on either backend, carries a CRC32
// checksum computed at write time and verified on every read; a mismatch
// surfaces as ErrCorrupt rather than as downstream XML parse failures.
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
	// GroupWindow enables WAL group commit: Commit calls collect for up to
	// this window (or until GroupMaxBatch of them wait) and share one
	// backend Commit, so one fsync is amortized across the batch. Each
	// caller still blocks until its batch's durability point. Zero (the
	// default) keeps the synchronous one-fsync-per-commit path.
	GroupWindow time.Duration
	// GroupMaxBatch caps how many commits share one fsync before the batch
	// is sealed early. Zero defaults to 64. Ignored unless GroupWindow > 0.
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
	group   *GroupCommitter  // non-nil when cfg.GroupWindow > 0
	limbo   map[int64]Extent // extents logged free but still readable (see FreeStaged)
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
	if cfg.GroupWindow > 0 {
		// The flush function is the batch's single durability point; the
		// backend serializes appends against its own fsync internally, so
		// s.mu is not held across the device wait.
		s.group = NewGroupCommitter(s.backend.Commit, cfg.GroupWindow, cfg.GroupMaxBatch)
	}
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

// Write stores a copy of data as a new extent belonging to the placement
// group and returns its reference. Group is typically a document identifier.
// The extent is checksummed; durable backends persist it at the next Commit.
func (s *Store) Write(group int, data []byte) (Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pages := s.pagesFor(len(data))
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
	ext := Extent{
		Data:  append([]byte(nil), data...),
		Pages: pages,
		Sum:   Checksum(data),
	}
	//txvet:ignore lockhold backend Put is an in-memory/WAL-buffer append; the allocation cursor and the put must stay atomic under s.mu
	if err := s.backend.Put(start, ext); err != nil {
		return Ref{}, fmt.Errorf("pagestore: write at page %d: %w", start, err)
	}
	s.stats.PageWrites += int64(pages)
	return Ref{Start: start, Pages: pages, Len: int32(len(data))}, nil
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
	//txvet:ignore lockhold backend Get is an in-memory lookup; the limbo fallback, head position and buffer pool must stay consistent with it under s.mu
	ext, err := s.backend.Get(ref.Start)
	if err != nil {
		if lext, ok := s.limbo[ref.Start]; ok {
			// Logged free, not yet published: still readable.
			ext = lext
		} else {
			return nil, fmt.Errorf("pagestore: read of extent at page %d: %w", ref.Start, err)
		}
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

// Free releases an extent. The pages are not reused (the disk is
// append-only, like the paper's log-structured repositories), but the
// payload is dropped and further reads fail. Freeing the zero Ref is a
// no-op: the zero value means "no extent", never the extent at page 0.
func (s *Store) Free(ref Ref) {
	if ref.Zero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold backend Delete is an in-memory unlink; free-list and cache must stay consistent under s.mu
	_ = s.backend.Delete(ref.Start)
	if s.cache != nil {
		s.cache.drop(ref.Start)
	}
	delete(s.limbo, ref.Start)
}

// FreeStaged logs the extent's release so the WAL free record precedes the
// caller's next Commit marker — replay then drops the extent and the commit
// atomically, exactly like a pre-commit Free — but parks the payload in a
// limbo table that keeps it readable. Concurrent readers holding a version
// table that still references the extent (the staged-mutation window
// between the durability point and publication) are thus unaffected. The
// caller must follow up with ReleaseStaged after publishing the successor
// table, or UnfreeStaged after abandoning the commit.
func (s *Store) FreeStaged(ref Ref) {
	if ref.Zero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold backend Get/Delete are in-memory ops; limbo and free state must stay consistent under s.mu
	ext, err := s.backend.Get(ref.Start)
	if err != nil {
		return // already gone; nothing to park
	}
	//txvet:ignore lockhold backend Delete is an in-memory unlink; limbo and free state must stay consistent under s.mu
	if err := s.backend.Delete(ref.Start); err != nil {
		return
	}
	if s.limbo == nil {
		s.limbo = make(map[int64]Extent)
	}
	s.limbo[ref.Start] = ext
}

// ReleaseStaged drops a payload parked by FreeStaged once no published
// version table references the extent any longer.
func (s *Store) ReleaseStaged(ref Ref) {
	if ref.Zero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.limbo, ref.Start)
	if s.cache != nil {
		s.cache.drop(ref.Start)
	}
}

// UnfreeStaged undoes a FreeStaged whose commit was abandoned: the parked
// payload is written back under its original reference, so the published
// version table that still names it keeps working. The rewrite appends a
// fresh extent record, which is harmless on replay — committed alone it
// restores the same bytes at the same pages; uncommitted it is ignored,
// and so is the free record it compensates.
func (s *Store) UnfreeStaged(ref Ref) error {
	if ref.Zero() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ext, ok := s.limbo[ref.Start]
	if !ok {
		return nil
	}
	//txvet:ignore lockhold backend Put is an in-memory/WAL-buffer append; limbo state must stay consistent under s.mu
	if err := s.backend.Put(ref.Start, ext); err != nil {
		return fmt.Errorf("pagestore: unfree of extent at page %d: %w", ref.Start, err)
	}
	delete(s.limbo, ref.Start)
	return nil
}

// SetMeta hands an opaque metadata blob to the backend (the version store's
// serialized delta index); durable backends persist it at the next Commit.
func (s *Store) SetMeta(meta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold PutMeta buffers the delta-index blob in memory; durability is deferred to Commit
	return s.backend.PutMeta(meta)
}

// Meta returns the backend's current metadata blob, nil if none.
func (s *Store) Meta() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold Meta is an in-memory read of the buffered blob
	return s.backend.Meta()
}

// SetMetaDelta hands an incremental metadata record to the backend, on top
// of the last SetMeta blob; durable backends persist it at the next Commit.
func (s *Store) SetMetaDelta(delta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold PutMetaDelta buffers the delta record in memory; durability is deferred to Commit
	return s.backend.PutMetaDelta(delta)
}

// MetaDeltas returns the metadata deltas logged since the last full
// snapshot; after recovery, the committed ones.
func (s *Store) MetaDeltas() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold MetaDeltas is an in-memory read of the buffered records
	return s.backend.MetaDeltas()
}

// Provenance reports where the extent's bytes live at rest (segment file
// and offset, or checkpoint image) when the backend tracks origins.
func (s *Store) Provenance(start int64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pb, ok := s.backend.(ProvenanceBackend)
	if !ok {
		return "", false
	}
	//txvet:ignore lockhold Provenance is an in-memory map lookup
	return pb.Provenance(start)
}

// Commit makes everything written so far durable. With group commit
// enabled (Config.GroupWindow > 0) the call joins the forming batch and
// returns after the batch's shared fsync — nil on success, an error
// matching ErrGroupCommit when the batch's fsync failed. Without it, the
// backend is committed synchronously under the store mutex.
func (s *Store) Commit() error {
	if s.group != nil {
		// The caller's extents were Put under s.mu before this call, and
		// the backend orders appends against its fsync internally, so the
		// batch flush needs no store lock.
		return s.group.Commit()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//txvet:ignore lockhold,fsyncpoint synchronous fallback: with no batcher configured this IS the durability point, and fsync under s.mu is the WAL's documented commit-order discipline
	return s.backend.Commit()
}

// GroupStats reports the group-commit batcher's amortization counters and
// whether batching is enabled at all.
func (s *Store) GroupStats() (GroupStats, bool) {
	if s.group == nil {
		return GroupStats{}, false
	}
	return s.group.Stats(), true
}

// Close releases the backend. The batcher, when present, is drained first
// so in-flight commits reach their durability point before the backend
// goes away.
func (s *Store) Close() error {
	if s.group != nil {
		s.group.Close()
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	//txvet:ignore lockhold Range walks the in-memory extent table for stats; no device I/O involved
	s.backend.Range(func(_ int64, ext Extent) bool {
		total += int64(len(ext.Data))
		return true
	})
	return total
}
