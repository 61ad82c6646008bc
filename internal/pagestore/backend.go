package pagestore

import (
	"errors"
	"hash/crc32"
	"sync"
)

// Typed storage errors. Callers match them with errors.Is; wrapped errors
// carry the page and document context.
var (
	// ErrUnknownExtent reports a read or free of an extent that was never
	// written or was freed.
	ErrUnknownExtent = errors.New("pagestore: unknown extent")
	// ErrCorrupt reports an extent whose payload no longer matches its
	// checksum (bit rot, torn write, or a scripted fault).
	ErrCorrupt = errors.New("pagestore: extent corrupt")
	// ErrTransient reports a fault that may succeed on retry (the fault
	// injector's transient read errors). Permanent faults do not match it.
	ErrTransient = errors.New("pagestore: transient I/O fault")
	// ErrZeroRef reports a Read through the zero Ref, which never names a
	// stored extent.
	ErrZeroRef = errors.New("pagestore: zero extent reference")
)

// Extent is one stored unit as a backend keeps it: the payload, its length
// in pages, and a CRC32 (IEEE) checksum of the payload taken at write time.
type Extent struct {
	Data  []byte
	Pages int32
	Sum   uint32
}

// Checksum returns the CRC32 (IEEE) checksum of a payload; it is the
// checksum policy of the whole storage tier (in-memory and WAL alike).
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Backend is the persistence tier under a Store. The Store keeps the
// accounting, placement and caching logic; a backend only has to remember
// extents and an opaque metadata blob, and to apply each committed Batch
// whole or not at all.
//
// Implementations: the in-memory backend (volatile, the original simulated
// disk), the segmented WAL (durable, see segwal.go) and the fault injector
// (a decorator over either, see fault.go).
type Backend interface {
	// Commit applies a batch atomically: its extents, metadata blob and
	// metadata deltas become visible (and, on a durable backend, survive a
	// crash) together, or — when Commit returns an error — none of them
	// does and the backend is as before. The batch's frees are recorded but
	// the freed extents stay readable until Release.
	Commit(b *Batch) error
	// Release drops the extents a committed batch freed. The Store calls it
	// once no published version table names them any longer.
	Release(b *Batch)
	// Get returns the extent at the start page, or an error wrapping
	// ErrUnknownExtent.
	Get(start int64) (Extent, error)
	// Meta returns the last committed metadata blob (the version store's
	// serialized delta index), nil if none was stored.
	Meta() []byte
	// MetaDeltas returns, in commit order, the incremental metadata records
	// committed since the last metadata blob; after recovery, the committed
	// ones. They keep per-commit metadata cost proportional to the mutated
	// document, not the whole catalog.
	MetaDeltas() [][]byte
	// Range calls fn for every stored extent until fn returns false.
	Range(fn func(start int64, ext Extent) bool)
	// NextPage returns the allocation high-water mark: one past the last
	// page of the highest extent ever stored (used to restart allocation
	// after recovery).
	NextPage() int64
	// Durable reports whether Commit provides crash durability. The
	// version store uses it to decide whether metadata records are worth
	// writing.
	Durable() bool
	// Close releases resources; the backend is unusable afterwards.
	Close() error
}

// Every backend carries the whole contract, delta metadata included; there
// is no capability probing on the write path.
var (
	_ Backend = (*memory)(nil)
	_ Backend = (*SegmentedWAL)(nil)
	_ Backend = (*Injector)(nil)
)

// ProvenanceBackend is an optional backend capability: reporting where an
// extent's bytes live at rest (segment file and offset, or the checkpoint
// image). Fsck uses it to make at-rest-corruption reports actionable.
type ProvenanceBackend interface {
	// Provenance returns a human-readable location for the extent at the
	// start page, and whether one is known.
	Provenance(start int64) (string, bool)
}

// memory is the volatile in-process backend: a map from start page to
// extent. It is the zero-configuration default and preserves the original
// simulated-disk behaviour.
type memory struct {
	mu      sync.Mutex
	extents map[int64]Extent
	meta    []byte
	deltas  [][]byte
	next    int64
}

// NewMemory returns an empty volatile backend.
func NewMemory() Backend { return &memory{extents: make(map[int64]Extent)} }

func (m *memory) Commit(b *Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range b.ops {
		switch op.kind {
		case recExtent:
			m.extents[op.start] = op.ext
			if end := op.start + int64(op.ext.Pages); end > m.next {
				m.next = end
			}
		case recMeta:
			m.meta = op.meta
			m.deltas = nil
		case recMetaDelta:
			m.deltas = append(m.deltas, op.meta)
		}
	}
	return nil
}

func (m *memory) Release(b *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, start := range b.freed {
		delete(m.extents, start)
	}
}

func (m *memory) Get(start int64) (Extent, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ext, ok := m.extents[start]
	if !ok {
		return Extent{}, ErrUnknownExtent
	}
	return ext, nil
}

func (m *memory) Meta() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.meta
}

func (m *memory) MetaDeltas() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deltas
}

func (m *memory) Range(fn func(start int64, ext Extent) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for start, ext := range m.extents {
		if !fn(start, ext) {
			return
		}
	}
}

func (m *memory) NextPage() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

func (m *memory) Durable() bool { return false }

func (m *memory) Close() error { return nil }
