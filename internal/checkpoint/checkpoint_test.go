package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"txmldb/internal/pagestore"
)

// buildLog creates a segmented log in dir with commits commits (one extent
// each, tiny rotation threshold so segments accumulate) and returns the
// open WAL.
func buildLog(t *testing.T, dir string, commits int) *pagestore.SegmentedWAL {
	t.Helper()
	w, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatalf("OpenSegmentedWAL: %v", err)
	}
	for i := 0; i < commits; i++ {
		commitExtent(t, w, i, []byte(fmt.Sprintf(`{"doc":%d}`, i)))
	}
	return w
}

// commitExtent commits one batch holding extent i (at page i: the log's
// extents are allocated one page each, in order) and, if given, a metadata
// delta.
func commitExtent(t *testing.T, w *pagestore.SegmentedWAL, i int, delta []byte) {
	t.Helper()
	b := pagestore.New(pagestore.Config{Backend: w}).Begin()
	ref := b.Write(0, []byte(fmt.Sprintf("extent-%03d-payload-padding-padding", i)))
	if ref.Start != int64(i) {
		t.Fatalf("extent %d allocated at page %d", i, ref.Start)
	}
	if delta != nil {
		b.SetMetaDelta(delta)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// capture builds a Snapshot from the live WAL plus engine blobs.
func capture(w *pagestore.SegmentedWAL, horizon string, aux map[string][]byte) Snapshot {
	st := w.StateSnapshot()
	return Snapshot{
		Extents: st.Extents,
		Next:    st.Next,
		Pos:     st.Pos,
		Meta:    []byte(`{"catalog":"full"}`),
		Horizon: []byte(horizon),
		Aux:     aux,
	}
}

// verifyExtents asserts the reopened WAL holds exactly the extents written
// by buildLog for the given commit count.
func verifyExtents(t *testing.T, w *pagestore.SegmentedWAL, commits int) {
	t.Helper()
	count := 0
	w.Range(func(int64, pagestore.Extent) bool { count++; return true })
	if count != commits {
		t.Fatalf("recovered %d extents, want %d", count, commits)
	}
	for i := 0; i < commits; i++ {
		want := fmt.Sprintf("extent-%03d-payload-padding-padding", i)
		ext, err := w.Get(int64(i))
		if err != nil || string(ext.Data) != want {
			t.Fatalf("Get(%d) = %q, %v; want %q", i, ext.Data, err, want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 6)
	ck := New(dir, Config{})
	aux := map[string][]byte{"fti": []byte("fti-image"), "tidx": bytes.Repeat([]byte("t"), 1000)}
	stats, err := ck.Run(w, capture(w, `{"docs":6}`, aux))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Extents != 6 || stats.Bytes == 0 || stats.File == "" {
		t.Fatalf("RunStats = %+v", stats)
	}
	if stats.SegmentsDeleted == 0 {
		t.Fatalf("compaction deleted no segments, pos=%+v", w.Pos())
	}
	// Three more commits after the checkpoint.
	for i := 6; i < 9; i++ {
		commitExtent(t, w, i, nil)
	}
	w.Close()

	r, info, err := OpenDir(dir, Config{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer r.Close()
	if !info.UsedCheckpoint || info.CheckpointFile != stats.File {
		t.Fatalf("OpenInfo = %+v, want checkpoint %s used", info, stats.File)
	}
	if string(info.Horizon) != `{"docs":6}` {
		t.Fatalf("Horizon = %q", info.Horizon)
	}
	if string(info.Aux["fti"]) != "fti-image" || len(info.Aux["tidx"]) != 1000 {
		t.Fatalf("Aux round trip failed: %v", info.Aux)
	}
	verifyExtents(t, r, 9)
	if string(r.Meta()) != `{"catalog":"full"}` {
		t.Fatalf("Meta = %q", r.Meta())
	}
	// Only the post-checkpoint suffix was replayed.
	if st := r.Stats(); st.ReplayedCommits != 3 {
		t.Fatalf("ReplayedCommits = %d, want 3 (suffix only)", st.ReplayedCommits)
	}
}

func TestOpenDirNoCheckpointFullReplay(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 4)
	w.Close()
	r, info, err := OpenDir(dir, Config{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer r.Close()
	if info.UsedCheckpoint || info.Fallback != "" {
		t.Fatalf("OpenInfo = %+v, want plain full replay", info)
	}
	verifyExtents(t, r, 4)
	if st := r.Stats(); st.ReplayedCommits != 4 {
		t.Fatalf("ReplayedCommits = %d, want 4", st.ReplayedCommits)
	}
}

func TestOpenDirFreshDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new")
	w, info, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatalf("OpenDir on fresh dir: %v", err)
	}
	defer w.Close()
	if info.UsedCheckpoint {
		t.Fatalf("fresh dir claims a checkpoint: %+v", info)
	}
}

// TestImageTruncationEveryOffset is the crash-during-checkpoint-write
// property: the image truncated at every byte offset must never be
// adopted — every open falls back (older image or full replay) and
// recovers the complete committed state.
func TestImageTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 5)
	ck := New(dir, Config{})
	snap := capture(w, `{"docs":5}`, map[string][]byte{"fti": []byte("img")})
	stats, err := ck.writeImage(snap)
	if err != nil {
		t.Fatalf("writeImage: %v", err)
	}
	w.Close()
	full, err := os.ReadFile(filepath.Join(dir, stats.File))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, have %d", len(segs))
	}
	for cut := 0; cut < len(full); cut++ {
		work := t.TempDir()
		copyDir(t, dir, work)
		if err := os.WriteFile(filepath.Join(work, stats.File), full[:cut], 0o644); err != nil {
			t.Fatalf("truncate image copy: %v", err)
		}
		r, info, err := OpenDir(work, Config{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("cut=%d: OpenDir: %v", cut, err)
		}
		if info.UsedCheckpoint {
			t.Fatalf("cut=%d: torn image %s was adopted", cut, info.CheckpointFile)
		}
		verifyExtents(t, r, 5)
		r.Close()
	}
	// The whole image (cut == len) must be adopted by the scan fallback
	// even though the manifest was never published.
	r, info, err := OpenDir(dir, Config{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("OpenDir on unpublished image: %v", err)
	}
	defer r.Close()
	if !info.UsedCheckpoint || info.CheckpointFile != stats.File {
		t.Fatalf("complete unpublished image not adopted: %+v", info)
	}
	verifyExtents(t, r, 5)
}

// TestManifestTruncationEveryOffset is the crash-during-publish property:
// a torn manifest (or manifest tmp) must never lose data — the open falls
// back to the image scan and recovers everything.
func TestManifestTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 5)
	ck := New(dir, Config{})
	if _, err := ck.Run(w, capture(w, "", nil)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w.Close()
	manifest, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatalf("ReadFile manifest: %v", err)
	}

	for cut := 0; cut <= len(manifest); cut++ {
		for _, target := range []string{ManifestName, manifestTmp} {
			work := t.TempDir()
			copyDir(t, dir, work)
			if target == manifestTmp {
				// Crash before rename: tmp is torn, manifest absent.
				os.Remove(filepath.Join(work, ManifestName))
			}
			if err := os.WriteFile(filepath.Join(work, target), manifest[:cut], 0o644); err != nil {
				t.Fatalf("write torn %s: %v", target, err)
			}
			r, info, err := OpenDir(work, Config{SegmentBytes: 128})
			if err != nil {
				t.Fatalf("cut=%d target=%s: OpenDir: %v", cut, target, err)
			}
			if !info.UsedCheckpoint {
				t.Fatalf("cut=%d target=%s: valid image not found via scan: %+v", cut, target, info)
			}
			verifyExtents(t, r, 5)
			r.Close()
		}
	}
}

// TestCompactionCrashEveryPrefix is the crash-during-compaction property:
// deleting any prefix of the dead segments (the order the compactor walks
// them) must leave the store fully recoverable via the checkpoint.
func TestCompactionCrashEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 6)
	ck := New(dir, Config{})
	// Write + publish but do NOT compact: the dead segments are still there.
	snap := capture(w, "", nil)
	stats, err := ck.writeImage(snap)
	if err != nil {
		t.Fatalf("writeImage: %v", err)
	}
	if err := ck.publish(Manifest{Format: manifestFormat, File: stats.File, Size: stats.Bytes,
		CRC: stats.crc, Seq: snap.Pos.Seq, Off: snap.Pos.Off}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	w.Close()

	deadMax := snap.Pos.Seq - 1
	if deadMax < 2 {
		t.Fatalf("want at least 2 dead segments, pos=%+v", snap.Pos)
	}
	for k := int64(0); k <= deadMax; k++ {
		work := t.TempDir()
		copyDir(t, dir, work)
		// Crash after deleting the first k dead segments.
		for s := int64(1); s <= k; s++ {
			if err := os.Remove(filepath.Join(work, pagestore.SegmentFileName(s))); err != nil {
				t.Fatalf("remove segment %d: %v", s, err)
			}
		}
		r, info, err := OpenDir(work, Config{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("k=%d: OpenDir: %v", k, err)
		}
		if !info.UsedCheckpoint {
			t.Fatalf("k=%d: checkpoint not used: %+v", k, info)
		}
		verifyExtents(t, r, 6)
		r.Close()
	}
}

// TestFallbackToOlderImage damages the newest image while an older one is
// still retained: the open must adopt the older image and replay the longer
// suffix.
func TestFallbackToOlderImage(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 3)
	ck := New(dir, Config{Keep: 2})
	if _, err := ck.Run(w, capture(w, "old", nil)); err != nil {
		t.Fatalf("Run 1: %v", err)
	}
	// More commits, second checkpoint.
	for i := 3; i < 6; i++ {
		commitExtent(t, w, i, nil)
	}
	stats2, err := ck.Run(w, capture(w, "new", nil))
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	w.Close()

	// Corrupt the newest image; its manifest CRC check must fail.
	p2 := filepath.Join(dir, stats2.File)
	img, err := os.ReadFile(p2)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(p2, img, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, info, err := OpenDir(dir, Config{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer r.Close()
	if !info.UsedCheckpoint || info.CheckpointFile == stats2.File {
		t.Fatalf("damaged image adopted or no fallback: %+v", info)
	}
	if string(info.Horizon) != "old" {
		t.Fatalf("fallback image horizon = %q, want the older image's", info.Horizon)
	}
	if info.Fallback == "" {
		t.Fatalf("Fallback reason empty after falling back")
	}
	verifyExtents(t, r, 6)
}

func TestCompactRetention(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 4)
	ck := New(dir, Config{Keep: 1})
	if _, err := ck.Run(w, capture(w, "", nil)); err != nil {
		t.Fatalf("Run 1: %v", err)
	}
	commitExtent(t, w, 4, nil)
	stats2, err := ck.Run(w, capture(w, "", nil))
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	if stats2.CheckpointsDeleted != 1 {
		t.Fatalf("CheckpointsDeleted = %d, want the superseded image dropped", stats2.CheckpointsDeleted)
	}
	images, err := listImages(dir)
	if err != nil {
		t.Fatalf("listImages: %v", err)
	}
	if len(images) != 1 || images[0].name != stats2.File {
		t.Fatalf("retained images = %v, want only %s", images, stats2.File)
	}
	w.Close()
}

func TestParseImageName(t *testing.T) {
	pos := pagestore.LogPos{Seq: 12, Off: 34567}
	name := ImageFileName(pos)
	got, ok := parseImageName(name)
	if !ok || got != pos {
		t.Fatalf("parseImageName(%q) = %+v, %v", name, got, ok)
	}
	for _, bad := range []string{"ckpt-1-2.ckpt", "wal-00000001.seg", "ckpt-00000001-000000000000.ckpt.tmp", ManifestName} {
		if _, ok := parseImageName(bad); ok {
			t.Errorf("parseImageName(%q) accepted", bad)
		}
	}
}

// copyDir clones the flat data directory (segments, images, manifest).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatalf("WriteFile(%s): %v", e.Name(), err)
		}
	}
}

func TestLoadImageRejects(t *testing.T) {
	dir := t.TempDir()
	w := buildLog(t, dir, 2)
	ck := New(dir, Config{})
	stats, err := ck.writeImage(capture(w, "", nil))
	if err != nil {
		t.Fatalf("writeImage: %v", err)
	}
	w.Close()
	path := filepath.Join(dir, stats.File)
	good, _ := os.ReadFile(path)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("NOTCKPT0"), good[8:]...)},
		{"flipped byte", flip(good, len(good)/2)},
		{"missing trailer", good[:len(good)-5]},
		{"trailing garbage", append(append([]byte(nil), good...), 0xde, 0xad)},
	}
	for _, tc := range cases {
		p := filepath.Join(dir, "probe.ckpt.bad")
		if err := os.WriteFile(p, tc.data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if _, err := loadImage(p); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: loadImage = %v, want ErrBadImage", tc.name, err)
		}
	}
	if _, err := loadImage(path); err != nil {
		t.Fatalf("loadImage on pristine image: %v", err)
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}
