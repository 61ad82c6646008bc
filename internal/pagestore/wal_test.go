package pagestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDecodeFrameRejects(t *testing.T) {
	good := encodeFrame(nil, recExtent, 7, 2, []byte("payload"))
	if _, n, err := decodeFrame(good); err != nil || n != len(good) {
		t.Fatalf("decode of valid frame: n=%d err=%v", n, err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:frameHeaderLen-1]},
		{"truncated payload", good[:len(good)-frameCRCLen-2]},
		{"truncated crc", good[:len(good)-1]},
		{"unknown kind", append([]byte{'Z'}, good[1:]...)},
		{"flipped payload byte", flipByte(good, frameHeaderLen)},
		{"flipped crc byte", flipByte(good, len(good)-1)},
		{"zero-page extent", encodeFrame(nil, recExtent, 7, 0, []byte("payload"))},
		{"oversized length field", oversized()},
	}
	for _, tc := range cases {
		if _, _, err := decodeFrame(tc.data); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: err = %v, want errBadFrame", tc.name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// oversized builds a frame whose length field exceeds maxFramePayload with a
// valid CRC, so only the length guard can reject it.
func oversized() []byte {
	b := encodeFrame(nil, recMeta, 0, 0, nil)
	b[13], b[14], b[15], b[16] = 0xff, 0xff, 0xff, 0xff
	// Recompute the CRC over the doctored header.
	sum := Checksum(b[:frameHeaderLen])
	b[17] = byte(sum)
	b[18] = byte(sum >> 8)
	b[19] = byte(sum >> 16)
	b[20] = byte(sum >> 24)
	return b
}

// logImage is what replayLog recovers from a log prefix.
type logImage struct {
	replayState
	extents    map[int64]Extent
	meta       []byte
	metaDeltas [][]byte // committed recMetaDelta payloads since the last full recMeta
	next       int64
}

// replayLog is the reference replay FuzzWALDecode holds the segmented WAL
// to: it decodes a log image and applies it commit-by-commit into a plain
// value, sharing only decodeFrame with SegmentedWAL.applyLog. Decoding stops
// at the first malformed frame and everything after the last commit marker
// is ignored.
func replayLog(data []byte) logImage {
	st := logImage{extents: make(map[int64]Extent)}
	var pending []pendingOp
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
			pending = append(pending, pendingOp{kind: recExtent, start: fr.start, ext: ext})
		case recFree:
			pending = append(pending, pendingOp{kind: recFree, start: fr.start})
		case recMeta, recMetaDelta:
			pending = append(pending, pendingOp{kind: fr.kind, meta: append([]byte(nil), fr.payload...)})
		case recCommit:
			for _, op := range pending {
				switch op.kind {
				case recExtent:
					st.extents[op.start] = op.ext
					if end := op.start + int64(op.ext.Pages); end > st.next {
						st.next = end
					}
					st.extentsApplied++
				case recFree:
					delete(st.extents, op.start)
				case recMeta:
					st.meta = op.meta
					st.metaDeltas = nil
				case recMetaDelta:
					st.metaDeltas = append(st.metaDeltas, op.meta)
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

// FuzzWALDecode feeds arbitrary bytes to the recovery path as the only
// segment of a log. The invariants: replay never panics, never reports more
// committed bytes than it was given, and OpenSegmentedWAL recovers exactly
// what the reference replay does, truncating the rest.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFrame(nil, recCommit, 0, 0, nil))
	log := encodeFrame(nil, recExtent, 0, 1, []byte("seed extent"))
	log = encodeFrame(log, recMeta, 0, 0, []byte("seed meta"))
	log = encodeFrame(log, recCommit, 0, 0, nil)
	f.Add(log)
	f.Add(log[:len(log)-3])
	withDelta := encodeFrame(log, recMetaDelta, 0, 0, []byte("seed delta"))
	withDelta = encodeFrame(withDelta, recFree, 0, 0, nil)
	f.Add(encodeFrame(withDelta, recCommit, 0, 0, nil))
	f.Add([]byte{'E', 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := replayLog(data)
		if st.committed < 0 || st.committed > int64(len(data)) {
			t.Fatalf("committed offset %d outside [0, %d]", st.committed, len(data))
		}
		for start, ext := range st.extents {
			if ext.Sum != Checksum(ext.Data) {
				t.Fatalf("recovered extent %d with stale checksum", start)
			}
			if ext.Pages <= 0 {
				t.Fatalf("recovered extent %d with %d pages", start, ext.Pages)
			}
		}
		dir := t.TempDir()
		path := filepath.Join(dir, SegmentFileName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		w, err := OpenSegmentedWAL(SegWALConfig{Dir: dir})
		if err != nil {
			t.Fatalf("OpenSegmentedWAL on fuzz input: %v", err)
		}
		defer w.Close()
		count := 0
		w.Range(func(start int64, ext Extent) bool {
			count++
			want, ok := st.extents[start]
			if !ok || !bytes.Equal(want.Data, ext.Data) || want.Pages != ext.Pages || want.Sum != ext.Sum {
				t.Fatalf("OpenSegmentedWAL and replayLog disagree on extent %d", start)
			}
			return true
		})
		if count != len(st.extents) {
			t.Fatalf("OpenSegmentedWAL recovered %d extents, replayLog %d", count, len(st.extents))
		}
		if !bytes.Equal(w.Meta(), st.meta) {
			t.Fatalf("Meta = %q, replayLog %q", w.Meta(), st.meta)
		}
		if got := w.MetaDeltas(); !reflect.DeepEqual(got, st.metaDeltas) {
			t.Fatalf("MetaDeltas = %q, replayLog %q", got, st.metaDeltas)
		}
		if np := w.NextPage(); np != st.next {
			t.Fatalf("NextPage = %d, replayLog %d", np, st.next)
		}
		ws := w.Stats()
		if ws.RecoveredBytes != st.committed || ws.TruncatedOnOpen != int64(len(data))-st.committed ||
			ws.ReplayedCommits != st.commits || ws.ReplayedExtents != st.extentsApplied {
			t.Fatalf("open stats = %+v, replayLog %+v over %d bytes", ws, st.replayState, len(data))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != st.committed {
			t.Fatalf("segment after open: size %v, err %v; want truncated to %d", fi, err, st.committed)
		}
	})
}
