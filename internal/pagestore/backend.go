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
// extents and an opaque metadata blob, and to make both durable on Commit.
//
// Implementations: the in-memory backend (volatile, the original simulated
// disk), the segmented WAL (durable, see segwal.go) and the fault injector
// (a decorator over either, see fault.go).
type Backend interface {
	// Put stores the extent at the given start page, replacing any
	// previous extent there.
	Put(start int64, ext Extent) error
	// Get returns the extent at the start page, or an error wrapping
	// ErrUnknownExtent.
	Get(start int64) (Extent, error)
	// Delete removes the extent; deleting an absent extent is a no-op.
	Delete(start int64) error
	// PutMeta replaces the opaque metadata blob (the version store
	// serializes its delta index into it) and drops the deltas logged on
	// top of the previous one.
	PutMeta(meta []byte) error
	// Meta returns the current metadata blob, nil if none was stored.
	Meta() []byte
	// PutMetaDelta appends an incremental metadata record on top of the
	// last PutMeta blob instead of rewriting it, so that per-commit
	// metadata cost is proportional to the mutated document, not the whole
	// catalog.
	PutMetaDelta(delta []byte) error
	// MetaDeltas returns, in append order, the deltas logged since the last
	// PutMeta; after recovery, the committed ones.
	MetaDeltas() [][]byte
	// Commit is the durability barrier: everything written before it must
	// survive a crash. Volatile backends treat it as a no-op.
	Commit() error
	// Range calls fn for every stored extent until fn returns false.
	Range(fn func(start int64, ext Extent) bool)
	// NextPage returns the allocation high-water mark: one past the last
	// page of the highest extent ever stored (used to restart allocation
	// after recovery).
	NextPage() int64
	// Durable reports whether Commit provides crash durability. The
	// version store uses it to decide whether metadata snapshots are
	// worth writing.
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

func (m *memory) Put(start int64, ext Extent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.extents[start] = ext
	if end := start + int64(ext.Pages); end > m.next {
		m.next = end
	}
	return nil
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

func (m *memory) Delete(start int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.extents, start)
	return nil
}

func (m *memory) PutMeta(meta []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meta = append([]byte(nil), meta...)
	m.deltas = nil
	return nil
}

func (m *memory) Meta() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.meta
}

func (m *memory) PutMetaDelta(delta []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deltas = append(m.deltas, append([]byte(nil), delta...))
	return nil
}

func (m *memory) MetaDeltas() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deltas
}

func (m *memory) Commit() error { return nil }

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
