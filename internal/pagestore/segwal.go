package pagestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The segmented WAL is the durable backend: the log is a directory of
// numbered segment files (wal-00000001.seg, wal-00000002.seg, ...) holding
// the records wal.go defines. Rotation happens only at commit boundaries, so
// a transaction never spans segments and every segment but the active one
// ends exactly at a commit marker. That invariant is what makes compaction
// safe: once a checkpoint image covers the log up to a position (seq, off),
// every segment numbered below seq is dead weight and can be deleted.
//
// On top of the Backend contract the segmented WAL adds:
//
//   - ProvenanceBackend: every live extent remembers which segment file and
//     offset (or checkpoint image) its bytes came from, for fsck triage.
//   - BaseState opens: the checkpoint subsystem hands the recovered image
//     plus a replay start position, and only the log suffix is read.

const (
	segPrefix = "wal-"
	segSuffix = ".seg"

	// legacyWALFile is the single-file WAL name from before segmentation;
	// an existing one is adopted as segment 1 on first segmented open.
	legacyWALFile = "pages.wal"

	// DefaultSegmentBytes is the rotation threshold when the configuration
	// does not set one.
	DefaultSegmentBytes = int64(4 << 20)
)

// SegmentFileName returns the file name of the segment with the given
// sequence number.
func SegmentFileName(seq int64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// parseSegmentName inverts SegmentFileName.
func parseSegmentName(name string) (int64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(mid) != 8 {
		return 0, false
	}
	seq, err := strconv.ParseInt(mid, 10, 64)
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}

// LogPos addresses a committed byte position in the segmented log: a
// segment sequence number and an offset within it. Offsets always land on
// commit boundaries.
type LogPos struct {
	Seq int64
	Off int64
}

// ExtentOrigin records where a live extent's bytes were last persisted.
// Seq 0 means the extent was restored from a checkpoint image rather than
// replayed from a segment.
type ExtentOrigin struct {
	Seq int64
	Off int64
}

// String renders the origin the way fsck reports it.
func (o ExtentOrigin) String() string {
	if o.Seq == 0 {
		return "checkpoint image"
	}
	return fmt.Sprintf("%s@%d", SegmentFileName(o.Seq), o.Off)
}

// BaseState is a recovered image handed to OpenSegmentedWAL by the
// checkpoint subsystem: the extent table, metadata and allocation mark as
// of Pos, so replay starts at Pos instead of segment 1.
type BaseState struct {
	Extents map[int64]Extent // takes ownership
	Meta    []byte
	Next    int64
	Pos     LogPos
}

// SegWALConfig configures OpenSegmentedWAL.
type SegWALConfig struct {
	Dir          string
	SegmentBytes int64      // rotation threshold; DefaultSegmentBytes if <= 0
	Base         *BaseState // optional checkpoint image to replay on top of
}

// Typed segmented-log open errors; the checkpoint opener falls back to an
// older image or a full replay when it sees them.
var (
	// ErrMissingSegments reports a gap in the segment sequence needed for
	// replay (a segment was compacted away or lost).
	ErrMissingSegments = errors.New("pagestore: wal segment missing")
	// ErrBadSegment reports a malformed frame or uncommitted tail in a
	// non-active segment — at-rest corruption in the middle of the log.
	ErrBadSegment = errors.New("pagestore: wal segment corrupt")
)

// SegmentedWAL is the durable segment-rotating backend. Reads are served
// from an in-memory mirror of the extent table (the log is the durability
// story, not the read path — like a log-structured store with a resident
// index). A commit holds only the append lock across its write and fsync
// and applies the batch to the mirror afterwards, so readers never wait
// behind the device.
type SegmentedWAL struct {
	// dmu serializes segment deletion (DropSegmentsBelow).
	dmu sync.Mutex

	// amu is the append lock: it serializes commits and segment rotation,
	// and guards the fields below it.
	amu      sync.Mutex
	dir      string
	segBytes int64
	f        *os.File // active segment
	seq      int64    // active segment sequence number
	off      int64    // committed prefix of the active segment; the next commit starts here
	dirty    bool     // a failed commit may have left bytes past off
	closed   bool

	// mu guards the mirror: the state the committed log describes.
	mu      sync.Mutex
	pos     LogPos // committed position: {seq, off} as of the last commit
	minSeq  int64  // lowest segment file present on disk (written under dmu too)
	extents map[int64]Extent
	origins map[int64]ExtentOrigin
	meta    []byte
	deltas  [][]byte
	next    int64
	stats   WALStats
}

// OpenSegmentedWAL opens (or creates) the segmented log in cfg.Dir and
// replays it — from cfg.Base.Pos when a checkpoint image is supplied, from
// segment 1 otherwise. A torn tail in the active (last) segment is
// truncated back to the last commit; a malformed frame anywhere else fails
// the open with ErrBadSegment.
func OpenSegmentedWAL(cfg SegWALConfig) (*SegmentedWAL, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: create wal dir: %w", err)
	}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		// Adopt a pre-segmentation single-file WAL as segment 1.
		legacy := filepath.Join(cfg.Dir, legacyWALFile)
		if _, err := os.Stat(legacy); err == nil {
			if err := os.Rename(legacy, filepath.Join(cfg.Dir, SegmentFileName(1))); err != nil {
				return nil, fmt.Errorf("pagestore: adopt legacy wal: %w", err)
			}
			if err := syncDir(cfg.Dir); err != nil {
				return nil, err
			}
			segs = []int64{1}
		}
	}

	w := &SegmentedWAL{
		dir:      cfg.Dir,
		segBytes: cfg.SegmentBytes,
		extents:  make(map[int64]Extent),
		origins:  make(map[int64]ExtentOrigin),
	}
	startSeq, startOff := int64(1), int64(0)
	if cfg.Base != nil {
		if cfg.Base.Extents != nil {
			w.extents = cfg.Base.Extents
		}
		for start := range w.extents {
			w.origins[start] = ExtentOrigin{} // from checkpoint image
		}
		w.meta = cfg.Base.Meta
		w.next = cfg.Base.Next
		startSeq, startOff = cfg.Base.Pos.Seq, cfg.Base.Pos.Off
		if startSeq < 1 {
			return nil, fmt.Errorf("%w: base position %+v", ErrBadSegment, cfg.Base.Pos)
		}
	}
	if len(segs) == 0 {
		if cfg.Base != nil {
			return nil, fmt.Errorf("%w: base at %s but no segments on disk",
				ErrMissingSegments, SegmentFileName(startSeq))
		}
		// Fresh store: create segment 1.
		if err := w.createSegmentLocked(1); err != nil {
			return nil, err
		}
		w.minSeq = 1
		return w, nil
	}
	w.minSeq = segs[0]
	maxSeq := segs[len(segs)-1]
	if startSeq > maxSeq {
		return nil, fmt.Errorf("%w: base at %s, newest on disk is %s",
			ErrMissingSegments, SegmentFileName(startSeq), SegmentFileName(maxSeq))
	}
	// Replay needs every segment from startSeq to maxSeq, contiguously.
	present := make(map[int64]bool, len(segs))
	for _, s := range segs {
		present[s] = true
	}
	for s := startSeq; s <= maxSeq; s++ {
		if !present[s] {
			return nil, fmt.Errorf("%w: %s", ErrMissingSegments, SegmentFileName(s))
		}
	}
	for s := startSeq; s <= maxSeq; s++ {
		skip := int64(0)
		if s == startSeq {
			skip = startOff
		}
		if err := w.replaySegment(s, skip, s == maxSeq); err != nil {
			return nil, err
		}
	}
	// Open the last segment for appending; commits write at w.off.
	f, err := os.OpenFile(filepath.Join(cfg.Dir, SegmentFileName(maxSeq)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open wal segment: %w", err)
	}
	w.f = f
	w.seq = maxSeq
	w.pos = LogPos{Seq: maxSeq, Off: w.off}
	return w, nil
}

// listSegments returns the segment sequence numbers present in dir, sorted
// ascending.
func listSegments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pagestore: list wal dir: %w", err)
	}
	var segs []int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// replaySegment reads one segment file and applies its committed records,
// starting at skip bytes in. Only the last segment may carry a torn or
// uncommitted tail (it is truncated); anywhere else that is ErrBadSegment.
func (w *SegmentedWAL) replaySegment(seq, skip int64, last bool) error {
	path := filepath.Join(w.dir, SegmentFileName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("pagestore: read wal segment: %w", err)
	}
	if skip > int64(len(data)) {
		return fmt.Errorf("%w: %s is %d bytes, replay starts at %d",
			ErrBadSegment, SegmentFileName(seq), len(data), skip)
	}
	st := w.applyLog(seq, skip, data[skip:])
	w.stats.SegmentsScanned++
	w.stats.RecoveredBytes += st.committed
	w.stats.ReplayedCommits += st.commits
	w.stats.ReplayedExtents += st.extentsApplied
	tail := int64(len(data)) - skip - st.committed
	w.off = skip + st.committed
	if tail == 0 {
		return nil
	}
	if !last {
		return fmt.Errorf("%w: %s has %d undecodable or uncommitted bytes mid-log",
			ErrBadSegment, SegmentFileName(seq), tail)
	}
	w.stats.TruncatedOnOpen += tail
	if err := os.Truncate(path, w.off); err != nil {
		return fmt.Errorf("pagestore: truncate torn wal tail: %w", err)
	}
	return nil
}

// applyLog decodes data and applies it commit-by-commit: committed records
// mutate the backend state directly, and extents remember the segment/offset
// their frame started at. Decoding stops at the first malformed frame and
// everything after the last commit marker is ignored; it must never panic,
// whatever the input (FuzzWALDecode feeds it arbitrary bytes).
func (w *SegmentedWAL) applyLog(seq, base int64, data []byte) replayState {
	var st replayState
	type segOp struct {
		pendingOp
		origin ExtentOrigin
	}
	var pending []segOp
	off := int64(0)
	for {
		fr, n, err := decodeFrame(data[off:])
		if err != nil {
			break
		}
		switch fr.kind {
		case recExtent:
			ext := Extent{
				Data:  append([]byte(nil), fr.payload...),
				Pages: int32(fr.pages),
				Sum:   Checksum(fr.payload),
			}
			pending = append(pending, segOp{
				pendingOp: pendingOp{kind: recExtent, start: fr.start, ext: ext},
				origin:    ExtentOrigin{Seq: seq, Off: base + off},
			})
		case recFree:
			pending = append(pending, segOp{pendingOp: pendingOp{kind: recFree, start: fr.start}})
		case recMeta:
			pending = append(pending, segOp{pendingOp: pendingOp{kind: recMeta, meta: append([]byte(nil), fr.payload...)}})
		case recMetaDelta:
			pending = append(pending, segOp{pendingOp: pendingOp{kind: recMetaDelta, meta: append([]byte(nil), fr.payload...)}})
		case recCommit:
			for _, op := range pending {
				if op.kind == recFree {
					delete(w.extents, op.start)
					delete(w.origins, op.start)
					continue
				}
				w.applyLocked(op.pendingOp, op.origin)
				if op.kind == recExtent {
					st.extentsApplied++
				}
			}
			pending = pending[:0]
			st.committed = off + int64(n)
			st.commits++
		}
		off += int64(n)
	}
	return st
}

// createSegmentLocked creates the segment file for seq, makes its directory
// entry durable, and switches appends to it. Callers hold w.amu.
func (w *SegmentedWAL) createSegmentLocked(seq int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, SegmentFileName(seq)),
		os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("pagestore: create wal segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			f.Close()
			return fmt.Errorf("pagestore: close wal segment: %w", err)
		}
	}
	w.f = f
	w.seq = seq
	w.off = 0
	w.mu.Lock()
	w.pos = LogPos{Seq: seq}
	w.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory so renames and segment creations survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("pagestore: open wal dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pagestore: sync wal dir: %w", err)
	}
	return nil
}

// Commit logs the batch and makes it durable: its records and a commit
// marker are encoded into one buffer, written with one write and made
// durable with one fsync, all under the append lock; only then is the
// batch applied to the mirror. A write or fsync failure truncates the
// segment back to the last commit, so a failed batch leaves no byte
// behind; until that truncation succeeds, commits are refused. When the
// segment has outgrown the rotation threshold a fresh one is started, so
// the next batch begins at its offset 0; a failed rotation does not fail
// the (durable) commit and is retried before the next batch.
func (w *SegmentedWAL) Commit(b *Batch) error {
	w.amu.Lock()
	defer w.amu.Unlock()
	if w.closed {
		return fmt.Errorf("pagestore: segmented wal %s is closed", w.dir)
	}
	if w.dirty {
		if err := w.truncateLocked(); err != nil {
			return fmt.Errorf("pagestore: wal refuses appends until its failed tail is truncated: %w", err)
		}
	}
	w.rotateLocked()
	size := frameHeaderLen + frameCRCLen
	for _, op := range b.ops {
		size += frameHeaderLen + len(op.payload()) + frameCRCLen
	}
	buf := make([]byte, 0, size)
	for _, op := range b.ops {
		buf = encodeFrame(buf, op.kind, op.start, uint32(op.ext.Pages), op.payload())
	}
	buf = encodeFrame(buf, recCommit, 0, 0, nil)
	if _, err := w.f.WriteAt(buf, w.off); err != nil {
		w.abortLocked()
		return fmt.Errorf("pagestore: append wal batch: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.abortLocked()
		return fmt.Errorf("pagestore: sync wal segment: %w", err)
	}

	w.mu.Lock()
	at := w.off
	for _, op := range b.ops {
		w.applyLocked(op, ExtentOrigin{Seq: w.seq, Off: at})
		if op.kind == recExtent {
			w.stats.PayloadBytes += int64(len(op.ext.Data))
		}
		at += int64(frameHeaderLen + len(op.payload()) + frameCRCLen)
	}
	w.stats.Records += int64(len(b.ops)) + 1
	w.stats.BytesAppended += int64(len(buf))
	w.stats.Commits++
	w.stats.Syncs++
	w.off += int64(len(buf))
	w.pos = LogPos{Seq: w.seq, Off: w.off}
	w.mu.Unlock()
	w.rotateLocked()
	return nil
}

// applyLocked makes one committed record visible in the mirror, an extent
// with the origin of its frame. Frees are the caller's: replay drops the
// extent at once, a live commit only at Release. Callers hold w.mu, or
// own w alone, as replay at open does.
func (w *SegmentedWAL) applyLocked(op pendingOp, origin ExtentOrigin) {
	switch op.kind {
	case recExtent:
		w.extents[op.start] = op.ext
		w.origins[op.start] = origin
		if end := op.start + int64(op.ext.Pages); end > w.next {
			w.next = end
		}
	case recMeta:
		w.meta = op.meta
		w.deltas = nil
	case recMetaDelta:
		w.deltas = append(w.deltas, op.meta)
	}
}

// abortLocked undoes a commit whose write or fsync failed: the segment is
// cut back to the last commit, or marked dirty so the next Commit retries
// the cut before appending.
func (w *SegmentedWAL) abortLocked() {
	w.dirty = true
	_ = w.truncateLocked() // on failure the next Commit retries, and refuses
}

// truncateLocked cuts the active segment back to the last commit and makes
// the cut durable, so a crash cannot bring a failed batch back.
func (w *SegmentedWAL) truncateLocked() error {
	if err := w.f.Truncate(w.off); err != nil {
		return fmt.Errorf("pagestore: truncate failed wal batch: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: sync truncated wal segment: %w", err)
	}
	w.dirty = false
	return nil
}

// rotateLocked starts the next segment once the active one has outgrown
// the rotation threshold. A failure keeps appends in the active segment;
// the next commit tries again.
func (w *SegmentedWAL) rotateLocked() {
	if w.off >= w.segBytes {
		_ = w.createSegmentLocked(w.seq + 1)
	}
}

// Release drops the extents a committed batch freed from the mirror; their
// free records are already in the log.
func (w *SegmentedWAL) Release(b *Batch) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, start := range b.freed {
		delete(w.extents, start)
		delete(w.origins, start)
	}
}

func (w *SegmentedWAL) Get(start int64) (Extent, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ext, ok := w.extents[start]
	if !ok {
		return Extent{}, ErrUnknownExtent
	}
	return ext, nil
}

func (w *SegmentedWAL) Meta() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.meta
}

// MetaDeltas returns the committed metadata deltas recovered or appended
// since the last full metadata snapshot, in order.
func (w *SegmentedWAL) MetaDeltas() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deltas
}

func (w *SegmentedWAL) Range(fn func(start int64, ext Extent) bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for start, ext := range w.extents {
		if !fn(start, ext) {
			return
		}
	}
}

func (w *SegmentedWAL) NextPage() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

func (w *SegmentedWAL) Durable() bool { return true }

// Provenance implements ProvenanceBackend.
func (w *SegmentedWAL) Provenance(start int64) (string, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.origins[start]
	if !ok {
		return "", false
	}
	return o.String(), true
}

// Pos returns the committed log position: the active segment and its
// durable prefix length. A checkpoint capturing the state as of Pos covers
// every earlier segment entirely.
func (w *SegmentedWAL) Pos() LogPos {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pos
}

// Segments returns how many segment files the log currently spans.
func (w *SegmentedWAL) Segments() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pos.Seq - w.minSeq + 1
}

// WALState is a point-in-time image of the backend for checkpointing: the
// extent table (shallow copy — extent payloads are immutable once written),
// the last full metadata snapshot, the allocation mark, and the log
// position the image is current as of.
type WALState struct {
	Extents map[int64]Extent
	Meta    []byte
	Next    int64
	Pos     LogPos
}

// StateSnapshot captures the live state for a checkpoint. The caller must
// ensure no commit races the capture (the engine holds its writer gate).
func (w *SegmentedWAL) StateSnapshot() WALState {
	w.mu.Lock()
	defer w.mu.Unlock()
	extents := make(map[int64]Extent, len(w.extents))
	for start, ext := range w.extents {
		extents[start] = ext
	}
	return WALState{
		Extents: extents,
		Meta:    w.meta,
		Next:    w.next,
		Pos:     w.pos,
	}
}

// removeFile unlinks a dropped segment file; tests swap it to hold an
// unlink in flight.
var removeFile = os.Remove

// DropSegmentsBelow deletes segment files with sequence numbers below
// minSeq (never the active segment) and returns how many were removed. The
// compactor calls it once a published checkpoint covers them.
//
// Drops are serialized with each other, not with commits: the append lock
// is held only to read the active segment, and the unlinks and the
// directory fsync run outside it. Rotation only creates segments above the
// active one, so a commit never touches a file being dropped.
func (w *SegmentedWAL) DropSegmentsBelow(minSeq int64) (int, error) {
	w.dmu.Lock()
	defer w.dmu.Unlock()
	w.amu.Lock()
	active := w.seq
	w.amu.Unlock()
	if minSeq > active {
		minSeq = active
	}
	w.mu.Lock()
	from := w.minSeq
	w.mu.Unlock()
	removed := 0
	for s := from; s < minSeq; s++ {
		err := removeFile(filepath.Join(w.dir, SegmentFileName(s)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, fmt.Errorf("pagestore: drop wal segment: %w", err)
		}
		if err == nil {
			removed++
		}
		w.mu.Lock()
		w.minSeq = s + 1
		w.mu.Unlock()
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Stats returns a snapshot of the WAL counters.
func (w *SegmentedWAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Size returns the byte size of the active segment file.
func (w *SegmentedWAL) Size() (int64, error) {
	w.amu.Lock()
	defer w.amu.Unlock()
	fi, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (w *SegmentedWAL) Close() error {
	w.amu.Lock()
	defer w.amu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}
