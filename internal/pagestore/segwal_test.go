package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openSeg(t *testing.T, dir string, segBytes int64) *SegmentedWAL {
	t.Helper()
	w, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("OpenSegmentedWAL(%s): %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// The backend-level tests build batches record by record, at the start
// pages they choose, instead of through a Store's allocator.

func putOp(start int64, data []byte, pages int32) pendingOp {
	return pendingOp{kind: recExtent, start: start, ext: Extent{Data: data, Pages: pages, Sum: Checksum(data)}}
}

func freeOp(start int64) pendingOp  { return pendingOp{kind: recFree, start: start} }
func metaOp(meta string) pendingOp  { return pendingOp{kind: recMeta, meta: []byte(meta)} }
func deltaOp(meta string) pendingOp { return pendingOp{kind: recMetaDelta, meta: []byte(meta)} }

// segCommit commits one batch of the given records and releases its frees.
func segCommit(t *testing.T, w *SegmentedWAL, ops ...pendingOp) {
	t.Helper()
	b := &Batch{ops: ops}
	for _, op := range ops {
		if op.kind == recFree {
			b.freed = append(b.freed, op.start)
		}
	}
	if err := w.Commit(b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	w.Release(b)
}

// segPut commits a one-extent batch.
func segPut(t *testing.T, w *SegmentedWAL, start int64, data []byte, pages int32) {
	t.Helper()
	segCommit(t, w, putOp(start, data, pages))
}

// appendUncommitted appends records with no commit marker to a closed log's
// active segment: the tail a crash in the middle of a commit's write
// leaves behind.
func appendUncommitted(t *testing.T, dir string, seq int64, ops ...pendingOp) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, SegmentFileName(seq)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, op := range ops {
		buf = encodeFrame(buf, op.kind, op.start, uint32(op.ext.Pages), op.payload())
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegWALPersistReopenAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny rotation threshold: every commit rolls to a new segment.
	w := openSeg(t, dir, 64)
	for i := int64(0); i < 5; i++ {
		segPut(t, w, i, []byte(fmt.Sprintf("extent-%d-payload", i)), 1)
	}
	segCommit(t, w, freeOp(2), putOp(0, []byte("extent-0-rewritten"), 1))
	if segs := w.Segments(); segs < 3 {
		t.Fatalf("Segments() = %d, want rotation to have happened", segs)
	}
	pos := w.Pos()
	if pos.Seq < 3 {
		t.Fatalf("Pos().Seq = %d, want the active segment after rotations", pos.Seq)
	}
	w.Close()

	r := openSeg(t, dir, 64)
	ext, err := r.Get(0)
	if err != nil || string(ext.Data) != "extent-0-rewritten" {
		t.Fatalf("Get(0) after reopen = %q, %v", ext.Data, err)
	}
	if ext.Sum != Checksum(ext.Data) {
		t.Fatalf("recovered checksum %#x does not match payload", ext.Sum)
	}
	if _, err := r.Get(2); !errors.Is(err, ErrUnknownExtent) {
		t.Fatalf("freed extent survived reopen: %v", err)
	}
	// NextPage must clear the high-water mark of every recovered extent,
	// including the freed one (its pages are not reused).
	if np := r.NextPage(); np < 5 {
		t.Fatalf("NextPage after reopen = %d, want >= 5", np)
	}
	for _, i := range []int64{1, 3, 4} {
		ext, err := r.Get(i)
		if err != nil || string(ext.Data) != fmt.Sprintf("extent-%d-payload", i) {
			t.Fatalf("Get(%d) after reopen = %q, %v", i, ext.Data, err)
		}
	}
	st := r.Stats()
	if st.SegmentsScanned < 3 || st.ReplayedCommits != 6 || st.ReplayedExtents != 6 {
		t.Fatalf("replay stats = %+v, want >=3 segments, 6 commits, 6 extents", st)
	}
	if st.TruncatedOnOpen != 0 || st.RecoveredBytes == 0 {
		t.Fatalf("clean reopen stats = %+v, want full recovery, no truncation", st)
	}
	if rp := r.Pos(); rp != pos {
		t.Fatalf("Pos after reopen = %+v, want %+v", rp, pos)
	}
}

func TestSegWALMetaDeltas(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 1<<20)
	segCommit(t, w, metaOp("full-1"))
	for i := 1; i <= 3; i++ {
		segCommit(t, w, deltaOp(fmt.Sprintf("delta-%d", i)))
	}
	w.Close()
	// Uncommitted delta must vanish on reopen.
	appendUncommitted(t, dir, 1, deltaOp("volatile"))

	r := openSeg(t, dir, 1<<20)
	if got := string(r.Meta()); got != "full-1" {
		t.Fatalf("Meta after reopen = %q", got)
	}
	deltas := r.MetaDeltas()
	if len(deltas) != 3 {
		t.Fatalf("MetaDeltas after reopen = %d records, want 3", len(deltas))
	}
	for i, d := range deltas {
		if want := fmt.Sprintf("delta-%d", i+1); string(d) != want {
			t.Fatalf("delta[%d] = %q, want %q", i, d, want)
		}
	}
	// A fresh full snapshot clears the delta tail.
	segCommit(t, r, metaOp("full-2"))
	r.Close()
	r2 := openSeg(t, dir, 1<<20)
	if got := string(r2.Meta()); got != "full-2" {
		t.Fatalf("Meta after snapshot = %q", got)
	}
	if d := r2.MetaDeltas(); len(d) != 0 {
		t.Fatalf("MetaDeltas after full snapshot = %d records, want 0", len(d))
	}
}

func TestSegWALAdoptsLegacyWAL(t *testing.T) {
	dir := t.TempDir()
	// A pre-segmentation log: one file of the same frames, with a full
	// metadata snapshot per commit and no delta records.
	log := encodeFrame(nil, recExtent, 0, 1, []byte("legacy extent"))
	log = encodeFrame(log, recMeta, 0, 0, []byte("legacy meta"))
	log = encodeFrame(log, recCommit, 0, 0, nil)
	if err := os.WriteFile(filepath.Join(dir, legacyWALFile), log, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	w := openSeg(t, dir, 1<<20)
	ext, err := w.Get(0)
	if err != nil || string(ext.Data) != "legacy extent" {
		t.Fatalf("Get(0) after adoption = %q, %v", ext.Data, err)
	}
	if got := string(w.Meta()); got != "legacy meta" {
		t.Fatalf("Meta after adoption = %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyWALFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy wal file still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentFileName(1))); err != nil {
		t.Fatalf("segment 1 missing after adoption: %v", err)
	}
}

func TestSegWALBaseStateSuffixReplay(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 64)
	segPut(t, w, 0, []byte("pre-checkpoint"), 1)
	segPut(t, w, 1, []byte("also pre-checkpoint"), 1)
	base := w.StateSnapshot()
	segPut(t, w, 2, []byte("post-checkpoint"), 1)
	w.Close()

	r, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 64, Base: &BaseState{
		Extents: base.Extents, Meta: base.Meta, Next: base.Next, Pos: base.Pos,
	}})
	if err != nil {
		t.Fatalf("OpenSegmentedWAL with base: %v", err)
	}
	defer r.Close()
	for i, want := range []string{"pre-checkpoint", "also pre-checkpoint", "post-checkpoint"} {
		ext, err := r.Get(int64(i))
		if err != nil || string(ext.Data) != want {
			t.Fatalf("Get(%d) = %q, %v; want %q", i, ext.Data, err, want)
		}
	}
	st := r.Stats()
	if st.ReplayedCommits != 1 || st.ReplayedExtents != 1 {
		t.Fatalf("suffix replay stats = %+v, want exactly the post-checkpoint commit", st)
	}
	// Base extents report checkpoint provenance, replayed ones a segment.
	if p, ok := r.Provenance(0); !ok || p != "checkpoint image" {
		t.Fatalf("Provenance(0) = %q, %v", p, ok)
	}
	if p, ok := r.Provenance(2); !ok || !strings.Contains(p, segSuffix+"@") {
		t.Fatalf("Provenance(2) = %q, %v; want a segment@offset", p, ok)
	}
}

func TestSegWALMissingSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 64)
	for i := int64(0); i < 4; i++ {
		segPut(t, w, i, bytes.Repeat([]byte{byte('a' + i)}, 40), 1)
	}
	if w.Segments() < 3 {
		t.Fatalf("want at least 3 segments, have %d", w.Segments())
	}
	w.Close()

	// A hole in the middle of the sequence must fail a full replay.
	if err := os.Remove(filepath.Join(dir, SegmentFileName(2))); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 64}); !errors.Is(err, ErrMissingSegments) {
		t.Fatalf("open with missing segment = %v, want ErrMissingSegments", err)
	}
}

func TestSegWALBaseBeyondDiskFails(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 1<<20)
	segPut(t, w, 0, []byte("x"), 1)
	w.Close()
	_, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 1 << 20, Base: &BaseState{
		Extents: map[int64]Extent{}, Pos: LogPos{Seq: 9, Off: 0},
	}})
	if !errors.Is(err, ErrMissingSegments) {
		t.Fatalf("open with base beyond disk = %v, want ErrMissingSegments", err)
	}
	// Base offset past the segment's size is at-rest damage, not a crash.
	_, err = OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 1 << 20, Base: &BaseState{
		Extents: map[int64]Extent{}, Pos: LogPos{Seq: 1, Off: 1 << 30},
	}})
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("open with base offset past EOF = %v, want ErrBadSegment", err)
	}
}

func TestSegWALDropSegmentsBelow(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 64)
	for i := int64(0); i < 4; i++ {
		segPut(t, w, i, bytes.Repeat([]byte{byte('a' + i)}, 40), 1)
	}
	active := w.Pos().Seq
	if active < 3 {
		t.Fatalf("want rotations before compaction, active=%d", active)
	}
	removed, err := w.DropSegmentsBelow(active)
	if err != nil {
		t.Fatalf("DropSegmentsBelow: %v", err)
	}
	if removed != int(active-1) {
		t.Fatalf("removed %d segments, want %d", removed, active-1)
	}
	if w.Segments() != 1 {
		t.Fatalf("Segments after drop = %d, want 1", w.Segments())
	}
	// The active segment can never be dropped, even when asked.
	if _, err := w.DropSegmentsBelow(active + 10); err != nil {
		t.Fatalf("DropSegmentsBelow(active+10): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentFileName(active))); err != nil {
		t.Fatalf("active segment deleted: %v", err)
	}
	// Reopening without the dropped prefix needs a base at the survivor.
	state := w.StateSnapshot()
	w.Close()
	if _, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 64}); !errors.Is(err, ErrMissingSegments) {
		t.Fatalf("full replay after compaction = %v, want ErrMissingSegments", err)
	}
	r, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 64, Base: &BaseState{
		Extents: state.Extents, Meta: state.Meta, Next: state.Next, Pos: state.Pos,
	}})
	if err != nil {
		t.Fatalf("base open after compaction: %v", err)
	}
	defer r.Close()
	for i := int64(0); i < 4; i++ {
		if _, err := r.Get(i); err != nil {
			t.Fatalf("Get(%d) after compaction: %v", i, err)
		}
	}
}

// TestSegWALDropDoesNotBlockCommits: compaction deletes segments outside
// the append lock, so a commit completes while an unlink is in flight.
func TestSegWALDropDoesNotBlockCommits(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 64)
	for i := int64(0); i < 4; i++ {
		segPut(t, w, i, bytes.Repeat([]byte{byte('a' + i)}, 40), 1)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	removeFile = func(name string) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return os.Remove(name)
	}
	t.Cleanup(func() { removeFile = os.Remove })

	dropped := make(chan error, 1)
	go func() {
		_, err := w.DropSegmentsBelow(w.Pos().Seq)
		dropped <- err
	}()
	<-entered
	committed := make(chan error, 1)
	go func() { committed <- w.Commit(&Batch{ops: []pendingOp{putOp(10, []byte("during drop"), 1)}}) }()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("Commit during a drop: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		<-dropped
		t.Fatal("Commit blocked behind a segment unlink")
	}
	close(release)
	if err := <-dropped; err != nil {
		t.Fatalf("DropSegmentsBelow: %v", err)
	}
	if got, err := w.Get(10); err != nil || string(got.Data) != "during drop" {
		t.Fatalf("Get(10) = %q, %v", got.Data, err)
	}
}

// TestSegWALTornTailEveryOffset is the crash-at-every-offset property on the
// active segment: truncating it at any byte recovers exactly the last whole
// commit, with earlier (closed) segments intact.
func TestSegWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 200)
	type golden struct {
		pos     LogPos
		extents map[int64]string
		meta    string
		deltas  int
	}
	goldens := []golden{}
	snap := func(extents map[int64]string, meta string, deltas int) {
		goldens = append(goldens, golden{pos: w.Pos(), extents: extents, meta: meta, deltas: deltas})
	}
	segPut(t, w, 0, bytes.Repeat([]byte("a"), 200), 1) // fills segment 1, rotates
	snap(map[int64]string{0: strings.Repeat("a", 200)}, "", 0)
	segCommit(t, w, putOp(1, []byte("bb"), 1), metaOp("m1"))
	snap(map[int64]string{0: strings.Repeat("a", 200), 1: "bb"}, "m1", 0)
	segCommit(t, w, freeOp(1), putOp(2, []byte("ccc"), 1), deltaOp("d1"))
	snap(map[int64]string{0: strings.Repeat("a", 200), 2: "ccc"}, "m1", 1)
	active := w.Pos()
	w.Close()
	if active.Seq != 2 {
		t.Fatalf("test assumes commits 2 and 3 share segment 2, active=%+v", active)
	}

	activePath := filepath.Join(dir, SegmentFileName(active.Seq))
	full, err := os.ReadFile(activePath)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		want := goldens[0]
		for _, g := range goldens {
			if g.pos.Seq < active.Seq || g.pos.Off <= cut {
				want = g
			}
		}
		work := t.TempDir()
		for _, seq := range []int64{1, 2} {
			src := filepath.Join(dir, SegmentFileName(seq))
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatalf("ReadFile(%s): %v", src, err)
			}
			if seq == active.Seq {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(work, SegmentFileName(seq)), data, 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		}
		r, err := OpenSegmentedWAL(SegWALConfig{Dir: work, SegmentBytes: 200})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		count := 0
		r.Range(func(int64, Extent) bool { count++; return true })
		if count != len(want.extents) {
			t.Fatalf("cut=%d: %d extents, want %d", cut, count, len(want.extents))
		}
		for start, payload := range want.extents {
			ext, err := r.Get(start)
			if err != nil || string(ext.Data) != payload {
				t.Fatalf("cut=%d: Get(%d) = %q, %v", cut, start, ext.Data, err)
			}
		}
		if got := string(r.Meta()); got != want.meta {
			t.Fatalf("cut=%d: Meta = %q, want %q", cut, got, want.meta)
		}
		if got := len(r.MetaDeltas()); got != want.deltas {
			t.Fatalf("cut=%d: %d meta deltas, want %d", cut, got, want.deltas)
		}
		// Everything past the last whole commit is cut away, nothing more.
		keep := int64(0)
		if want.pos.Seq == active.Seq {
			keep = want.pos.Off
		}
		if st := r.Stats(); st.TruncatedOnOpen != cut-keep {
			t.Fatalf("cut=%d: TruncatedOnOpen = %d, want %d", cut, st.TruncatedOnOpen, cut-keep)
		}
		r.Close()
	}
}

func TestSegWALUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 1<<20)
	segPut(t, w, 0, []byte("durable"), 1)
	committed, err := w.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	w.Close()
	// Appended but never committed: must vanish on reopen.
	appendUncommitted(t, dir, 1, putOp(1, []byte("volatile"), 1), metaOp("volatile meta"))

	r := openSeg(t, dir, 1<<20)
	if _, err := r.Get(1); !errors.Is(err, ErrUnknownExtent) {
		t.Fatalf("uncommitted extent survived reopen: %v", err)
	}
	if m := r.Meta(); m != nil {
		t.Fatalf("uncommitted meta survived reopen: %q", m)
	}
	if _, err := r.Get(0); err != nil {
		t.Fatalf("committed extent lost: %v", err)
	}
	st := r.Stats()
	if st.RecoveredBytes != committed {
		t.Fatalf("RecoveredBytes = %d, want %d", st.RecoveredBytes, committed)
	}
	if st.TruncatedOnOpen == 0 {
		t.Fatalf("TruncatedOnOpen = 0, want the uncommitted tail counted")
	}
	if sz, _ := r.Size(); sz != committed {
		t.Fatalf("file size after truncation = %d, want %d", sz, committed)
	}
}

func TestSegWALCorruptTailBytes(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 1<<20)
	segPut(t, w, 0, []byte("keep me"), 1)
	keep, _ := w.Size()
	segPut(t, w, 1, []byte("bit-rotted"), 1)
	w.Close()

	// Flip a byte inside the second commit's extent record: the frame CRC
	// fails, replay stops there, and the active segment is cut back to
	// commit one.
	path := filepath.Join(dir, SegmentFileName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[keep+frameHeaderLen] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	r := openSeg(t, dir, 1<<20)
	if _, err := r.Get(0); err != nil {
		t.Fatalf("first commit lost after tail corruption: %v", err)
	}
	if _, err := r.Get(1); !errors.Is(err, ErrUnknownExtent) {
		t.Fatalf("corrupt record replayed: %v", err)
	}
	if sz, _ := r.Size(); sz != keep {
		t.Fatalf("truncated size = %d, want %d", sz, keep)
	}
}

func TestSegWALStatsWriteAmplification(t *testing.T) {
	w := openSeg(t, t.TempDir(), 1<<20)
	payload := bytes.Repeat([]byte("x"), 1000)
	segPut(t, w, 0, payload, 1)
	st := w.Stats()
	if st.Records != 2 || st.Commits != 1 || st.Syncs != 1 {
		t.Fatalf("stats = %+v, want 2 records, 1 commit, 1 sync", st)
	}
	if st.PayloadBytes != int64(len(payload)) {
		t.Fatalf("PayloadBytes = %d, want %d", st.PayloadBytes, len(payload))
	}
	wantAppended := int64(len(payload)) + 2*(frameHeaderLen+frameCRCLen)
	if st.BytesAppended != wantAppended {
		t.Fatalf("BytesAppended = %d, want %d", st.BytesAppended, wantAppended)
	}
	amp := st.WriteAmplification()
	if amp <= 1 || amp > 1.1 {
		t.Fatalf("WriteAmplification = %v, want slightly above 1 for a 1000-byte payload", amp)
	}
	if (WALStats{}).WriteAmplification() != 0 {
		t.Fatalf("zero stats must report zero amplification")
	}
}

func TestSegWALRejectsUseAfterClose(t *testing.T) {
	w := openSeg(t, t.TempDir(), 1<<20)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Commit(&Batch{ops: []pendingOp{putOp(0, []byte("x"), 1)}}); err == nil {
		t.Fatalf("Commit after Close succeeded")
	}
}

func TestSegWALMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 64)
	segPut(t, w, 0, bytes.Repeat([]byte("x"), 60), 1) // rotates
	segPut(t, w, 1, []byte("y"), 1)
	w.Close()

	// Flip a byte inside the closed segment 1: that is at-rest corruption
	// mid-log, which a replay must refuse rather than silently skip.
	p1 := filepath.Join(dir, SegmentFileName(1))
	data, err := os.ReadFile(p1)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[frameHeaderLen] ^= 0xff
	if err := os.WriteFile(p1, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenSegmentedWAL(SegWALConfig{Dir: dir, SegmentBytes: 64}); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("open over mid-log corruption = %v, want ErrBadSegment", err)
	}
}

func TestParseSegmentName(t *testing.T) {
	if name := SegmentFileName(7); name != "wal-00000007.seg" {
		t.Fatalf("SegmentFileName(7) = %q", name)
	}
	for _, ok := range []string{"wal-00000001.seg", "wal-99999999.seg"} {
		if _, got := parseSegmentName(ok); !got {
			t.Errorf("parseSegmentName(%q) rejected", ok)
		}
	}
	for _, bad := range []string{"pages.wal", "wal-0.seg", "wal-00000000.seg",
		"wal-00000001.seg.tmp", "wal--0000001.seg", "ckpt-00000001-000000000000.ckpt"} {
		if seq, got := parseSegmentName(bad); got {
			t.Errorf("parseSegmentName(%q) accepted as %d", bad, seq)
		}
	}
}

// TestSegWALRotationFailureKeepsCommit: a commit whose fsync succeeded is
// durable even when the segment rotation after it fails. The commit
// returns nil, later commits stay in the active segment until rotation
// succeeds, and everything survives a reopen.
func TestSegWALRotationFailureKeepsCommit(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 64)
	// Segment 2 already exists, so creating it with O_EXCL fails.
	if err := os.WriteFile(filepath.Join(dir, SegmentFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	segPut(t, w, 0, bytes.Repeat([]byte("a"), 60), 1) // crosses the threshold
	segPut(t, w, 1, []byte("b"), 1)
	if pos := w.Pos(); pos.Seq != 1 {
		t.Fatalf("Pos = %+v, want appends kept in segment 1 while rotation fails", pos)
	}
	w.Close()

	r := openSeg(t, dir, 64)
	for i, want := range []string{strings.Repeat("a", 60), "b"} {
		ext, err := r.Get(int64(i))
		if err != nil || string(ext.Data) != want {
			t.Fatalf("Get(%d) after reopen = %q, %v", i, ext.Data, err)
		}
	}
}

// TestSegWALFailedCommitLeavesNoBytes: when a commit's write fails, the
// batch is not applied, and the log refuses appends until it has cut the
// active segment back to the last commit; then commits resume and a
// reopen sees exactly the committed batches.
func TestSegWALFailedCommitLeavesNoBytes(t *testing.T) {
	dir := t.TempDir()
	w := openSeg(t, dir, 1<<20)
	segPut(t, w, 0, []byte("committed"), 1)
	keep, _ := w.Size()
	rw := w.f
	path := filepath.Join(dir, SegmentFileName(1))
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.f = ro // writes and truncations now fail
	if err := w.Commit(&Batch{ops: []pendingOp{putOp(1, []byte("failed"), 1)}}); err == nil {
		t.Fatal("commit over a read-only segment succeeded")
	}
	if _, err := w.Get(1); !errors.Is(err, ErrUnknownExtent) {
		t.Fatalf("failed batch applied to the mirror: %v", err)
	}
	// A torn remnant of the failed write past the last commit.
	if err := os.WriteFile(path, append(mustRead(t, path), "torn remnant"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(&Batch{ops: []pendingOp{putOp(2, []byte("refused"), 1)}}); err == nil {
		t.Fatal("commit accepted before the failed tail was truncated")
	}
	w.f = rw
	ro.Close()
	segPut(t, w, 3, []byte("after"), 1)
	if st := w.Stats(); st.Commits != 2 {
		t.Fatalf("Commits = %d, want only the 2 successful ones counted", st.Commits)
	}
	w.Close()

	r := openSeg(t, dir, 1<<20)
	if st := r.Stats(); st.TruncatedOnOpen != 0 || st.ReplayedCommits != 2 {
		t.Fatalf("reopen stats = %+v, want 2 clean commits", st)
	}
	for start, want := range map[int64]string{0: "committed", 3: "after"} {
		if ext, err := r.Get(start); err != nil || string(ext.Data) != want {
			t.Fatalf("Get(%d) = %q, %v", start, ext.Data, err)
		}
	}
	for _, start := range []int64{1, 2} {
		if _, err := r.Get(start); !errors.Is(err, ErrUnknownExtent) {
			t.Fatalf("failed or refused batch at page %d survived: %v", start, err)
		}
	}
	if sz, _ := r.Size(); sz <= keep {
		t.Fatalf("size %d, want the second commit past %d", sz, keep)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
