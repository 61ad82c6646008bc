package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The write-ahead-log record format, as the segmented WAL (segwal.go)
// appends and replays it: every mutation (extent write, extent free,
// metadata snapshot, per-document metadata delta) is one framed,
// CRC32-checksummed record, and a commit is the records of one group of
// batches followed by a commit-marker record, written together and then
// fsynced. Replay applies records commit-by-commit; a partial record, a
// record with a bad checksum, or complete records not followed by a commit
// marker are a torn tail and are not applied, so a crash at any byte offset
// recovers exactly the committed prefix.
//
// Record frame layout (little-endian):
//
//	offset size field
//	0      1    kind: 'E' extent, 'F' free, 'M' meta, 'D' meta delta, 'C' commit
//	1      8    start page (extent/free; zero otherwise)
//	9      4    extent length in pages (extent; zero otherwise)
//	13     4    payload length in bytes
//	17     n    payload
//	17+n   4    CRC32 (IEEE) over bytes [0, 17+n)
//
// The extent payload checksum handed to readers (Extent.Sum) is recomputed
// from the payload on replay, so it is covered twice: once by the frame CRC
// at rest and once by the Store's per-read verification after recovery.
const (
	recExtent byte = 'E'
	recFree   byte = 'F'
	recMeta   byte = 'M'
	recCommit byte = 'C'
	// recMetaDelta is an incremental metadata record: instead of a full
	// snapshot of the version store's delta index, the payload describes
	// only the mutated document. Replay collects them in order on top of the
	// last full recMeta snapshot; a pre-segmentation pages.wal has none.
	recMetaDelta byte = 'D'

	frameHeaderLen = 17
	frameCRCLen    = 4

	// maxFramePayload bounds a single record; decode rejects anything
	// larger so that a corrupt length field cannot drive allocation.
	maxFramePayload = 1 << 28
)

// WALStats counts write-path activity of a WAL backend. BytesAppended over
// PayloadBytes is the write amplification of the log format (framing,
// metadata records and commit markers on top of extent payloads).
type WALStats struct {
	Records         int64 // records appended (including commit markers)
	Commits         int64 // Commit calls
	Syncs           int64 // fsyncs issued
	BytesAppended   int64 // total bytes appended to the log
	PayloadBytes    int64 // extent payload bytes appended
	RecoveredBytes  int64 // bytes of committed log replayed at open
	TruncatedOnOpen int64 // bytes of torn/uncommitted tail discarded at open
	ReplayedCommits int64 // commit markers applied during open replay
	ReplayedExtents int64 // extent records applied during open replay
	SegmentsScanned int64 // segment files read during open
}

// WriteAmplification returns BytesAppended / PayloadBytes (0 when no
// payload was written yet).
func (w WALStats) WriteAmplification() float64 {
	if w.PayloadBytes == 0 {
		return 0
	}
	return float64(w.BytesAppended) / float64(w.PayloadBytes)
}

// replayState counts what replaying one stretch of log applied.
type replayState struct {
	committed      int64 // offset just past the last applied commit marker
	commits        int64 // commit markers applied
	extentsApplied int64 // extent records applied
}

// pendingOp is one mutation awaiting its commit marker: a record of a
// writer's Batch, or a decoded record during replay.
type pendingOp struct {
	kind  byte
	start int64
	ext   Extent
	meta  []byte
}

// payload returns the bytes the op's frame carries.
func (op pendingOp) payload() []byte {
	if op.kind == recExtent {
		return op.ext.Data
	}
	return op.meta
}

// frame is one decoded WAL record.
type frame struct {
	kind    byte
	start   int64
	pages   uint32
	payload []byte
}

// errBadFrame reports a frame that cannot be decoded (short, oversized,
// unknown kind, or checksum mismatch). During recovery it marks the torn
// tail; it is not surfaced to users.
var errBadFrame = errors.New("pagestore: malformed wal frame")

// decodeFrame decodes the first record in data, returning it and the number
// of bytes consumed. The payload aliases data.
func decodeFrame(data []byte) (frame, int, error) {
	if len(data) < frameHeaderLen+frameCRCLen {
		return frame{}, 0, errBadFrame
	}
	var fr frame
	fr.kind = data[0]
	switch fr.kind {
	case recExtent, recFree, recMeta, recCommit, recMetaDelta:
	default:
		return frame{}, 0, fmt.Errorf("%w: unknown kind %#x", errBadFrame, fr.kind)
	}
	fr.start = int64(binary.LittleEndian.Uint64(data[1:9]))
	fr.pages = binary.LittleEndian.Uint32(data[9:13])
	plen := binary.LittleEndian.Uint32(data[13:17])
	if plen > maxFramePayload {
		return frame{}, 0, fmt.Errorf("%w: payload length %d", errBadFrame, plen)
	}
	total := frameHeaderLen + int(plen) + frameCRCLen
	if len(data) < total {
		return frame{}, 0, errBadFrame
	}
	body := data[:frameHeaderLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[frameHeaderLen+int(plen) : total])
	if Checksum(body) != want {
		return frame{}, 0, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	fr.payload = data[frameHeaderLen : frameHeaderLen+int(plen)]
	// Extents must cover at least the pages their payload needs; a frame
	// that claims zero pages for a non-empty payload would corrupt the
	// allocation high-water mark.
	if fr.kind == recExtent && fr.pages == 0 {
		return frame{}, 0, fmt.Errorf("%w: extent with zero pages", errBadFrame)
	}
	return fr, total, nil
}

// encodeFrame appends one record to buf and returns the extended slice.
func encodeFrame(buf []byte, kind byte, start int64, pages uint32, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(start))
	binary.LittleEndian.PutUint32(hdr[9:13], pages)
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(payload)))
	rec := append(buf, hdr[:]...)
	rec = append(rec, payload...)
	var crc [frameCRCLen]byte
	binary.LittleEndian.PutUint32(crc[:], Checksum(rec[len(buf):]))
	return append(rec, crc[:]...)
}
