package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
)

// docImage is the byte-exact observable state of one document: every
// version's serialized tree, in version order, plus liveness.
type docImage struct {
	Name     string
	Live     bool
	Versions []string
}

// capture serializes the whole store: document name -> image. This is the
// equality notion of the crash tests — two stores are the same if every
// version of every document reconstructs to identical bytes.
func capture(t *testing.T, s *Store) map[string]docImage {
	t.Helper()
	out := make(map[string]docImage)
	for _, id := range s.Docs() {
		info, err := s.Info(id)
		if err != nil {
			t.Fatalf("Info(%d): %v", id, err)
		}
		vs, err := s.Versions(id)
		if err != nil {
			t.Fatalf("Versions(%d): %v", id, err)
		}
		img := docImage{Name: info.Name, Live: info.Live()}
		for _, v := range vs {
			vt, err := s.ReconstructVersion(id, v.Ver)
			if err != nil {
				t.Fatalf("Reconstruct(%d, v%d): %v", id, v.Ver, err)
			}
			img.Versions = append(img.Versions, vt.Root.String())
		}
		out[info.Name] = img
	}
	return out
}

// TestCrashPointRecovery is the crash-at-every-offset property test: run a
// multi-document workload against a WAL-backed store, remember the log size
// and full observable state at every commit, then simulate a crash at every
// byte offset of the log — truncate a copy there, reopen, and require that
// exactly the versions of the last whole commit reconstruct byte-identically
// and that Fsck finds nothing wrong. The workload fits one segment, so the
// active segment is the whole log.
func TestCrashPointRecovery(t *testing.T) {
	dir := t.TempDir()
	s := segStore(t, dir, Config{SnapshotEvery: 2})
	wal := s.Pages().Backend().(*pagestore.SegmentedWAL)

	type golden struct {
		offset int64
		state  map[string]docImage
	}
	goldens := []golden{{offset: 0, state: map[string]docImage{}}}
	snap := func() {
		sz, err := wal.Size()
		if err != nil {
			t.Fatalf("Size: %v", err)
		}
		goldens = append(goldens, golden{offset: sz, state: capture(t, s)})
	}

	// The workload: two documents, updates, a deletion — five commits.
	guide, err := s.Put("guide.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	snap()
	if _, _, err := s.Update(guide, guideV(map[string]string{"Napoli": "15", "Akropolis": "13"}), jan15); err != nil {
		t.Fatal(err)
	}
	snap()
	news, err := s.Put("news.xml", guideV(map[string]string{"Akropolis": "9"}), jan15)
	if err != nil {
		t.Fatal(err)
	}
	snap()
	if _, _, err := s.Update(guide, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	snap()
	if err := s.Delete(news, feb10); err != nil {
		t.Fatal(err)
	}
	snap()
	if pos := wal.Pos(); pos.Seq != 1 {
		t.Fatalf("test assumes a one-segment log, active segment is %d", pos.Seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(filepath.Join(dir, pagestore.SegmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != goldens[len(goldens)-1].offset {
		t.Fatalf("log size %d != last commit offset %d", len(full), goldens[len(goldens)-1].offset)
	}

	crashDir := filepath.Join(dir, "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		want := goldens[0]
		for _, g := range goldens {
			if g.offset <= cut {
				want = g
			}
		}
		path := filepath.Join(crashDir, pagestore.SegmentFileName(1))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: crashDir})
		if err != nil {
			t.Fatalf("cut=%d: OpenSegmentedWAL: %v", cut, err)
		}
		rs, err := Open(Config{Pages: pagestore.Config{Backend: wal}, SnapshotEvery: 2})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := capture(t, rs)
		if !reflect.DeepEqual(got, want.state) {
			t.Fatalf("cut=%d: recovered state does not match commit at offset %d:\ngot  %#v\nwant %#v",
				cut, want.offset, got, want.state)
		}
		if rep := rs.Fsck(); !rep.Clean() {
			t.Fatalf("cut=%d: fsck after recovery:\n%s", cut, rep)
		}
		rs.Close()
	}
}

// TestDurableReopenContinuesWriting: a cleanly closed store reopens with
// its full history and accepts further writes that survive the next reopen.
func TestDurableReopenContinuesWriting(t *testing.T) {
	dir := t.TempDir()
	s := segStore(t, dir, Config{})
	id, err := s.Put("guide.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "17"}), jan15); err != nil {
		t.Fatal(err)
	}
	before := capture(t, s)
	s.Close()

	r := segStore(t, dir, Config{})
	if got := capture(t, r); !reflect.DeepEqual(got, before) {
		t.Fatalf("state after reopen differs:\ngot  %#v\nwant %#v", got, before)
	}
	rid, ok := r.Lookup("guide.xml")
	if !ok || rid != id {
		t.Fatalf("Lookup after reopen = (%d, %v), want (%d, true)", rid, ok, id)
	}
	if _, _, err := r.Update(rid, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatalf("Update after reopen: %v", err)
	}
	id2, err := r.Put("news.xml", guideV(map[string]string{"Akropolis": "9"}), jan31)
	if err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
	if id2 == rid {
		t.Fatalf("document ID %d reused after reopen", id2)
	}
	after := capture(t, r)
	r.Close()

	r2 := segStore(t, dir, Config{})
	defer r2.Close()
	if got := capture(t, r2); !reflect.DeepEqual(got, after) {
		t.Fatalf("state after second reopen differs:\ngot  %#v\nwant %#v", got, after)
	}
}

// TestRecoveryWithLostCurrentSnapshot: when the current version's snapshot
// extent is unreadable at reopen, the store still opens — history up to an
// intact snapshot reconstructs, current-version operations fail with the
// recovery error, and Fsck names the damage.
func TestRecoveryWithLostCurrentSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := segStore(t, dir, Config{SnapshotEvery: 2})
	id, err := s.Put("guide.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "17"}), jan15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	vs, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	curSnap := vs[2].Snapshot
	if curSnap.Zero() || vs[1].Snapshot.Zero() {
		t.Fatalf("expected snapshots at v2 (SnapshotEvery) and v3 (current): %+v", vs)
	}
	s.Close()

	// Reopen with the current version's snapshot extent dropped (an
	// unreadable sector discovered during recovery).
	wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inj := pagestore.NewInjector(wal, 1)
	if err := inj.DropExtent(curSnap.Start); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Pages: pagestore.Config{Backend: inj}, SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("recovery must tolerate a lost current snapshot: %v", err)
	}
	defer r.Close()

	// Versions 1 and 2 reach the intact snapshot at v2.
	for _, ver := range []model.VersionNo{1, 2} {
		if _, err := r.ReconstructVersion(id, ver); err != nil {
			t.Fatalf("v%d must reconstruct via the v2 snapshot: %v", ver, err)
		}
	}
	// Version 3 and the cached current version are gone.
	if _, err := r.ReconstructVersion(id, 3); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("v3 = %v, want ErrUnreachable", err)
	}
	if _, _, err := r.Current(id); err == nil {
		t.Fatalf("Current over a lost snapshot succeeded")
	}
	if _, _, err := r.Update(id, guideV(map[string]string{"Napoli": "20"}), feb10); err == nil {
		t.Fatalf("Update over a lost current version succeeded")
	}
	if err := r.Delete(id, feb10); err == nil {
		t.Fatalf("Delete over a lost current version succeeded")
	}
	rep := r.Fsck()
	if rep.Clean() {
		t.Fatalf("fsck missed the lost snapshot")
	}
	kinds := map[string]bool{}
	for _, p := range rep.Problems {
		kinds[p.Kind] = true
	}
	if !kinds["snapshot"] || !kinds["current"] {
		t.Fatalf("fsck problems = %s, want snapshot and current kinds", rep)
	}
}

// TestStagedCommitThroughInjector: a fault injector over the segmented WAL
// is a full backend — commits take the staged path and log one per-document
// metadata delta each (never a full-table snapshot), and a reopen through an
// injector recovers the table from those deltas.
func TestStagedCommitThroughInjector(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Store, *pagestore.Injector) {
		t.Helper()
		wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir})
		if err != nil {
			t.Fatalf("OpenSegmentedWAL: %v", err)
		}
		inj := pagestore.NewInjector(wal, 1)
		s, err := Open(Config{Pages: pagestore.Config{Backend: inj}})
		if err != nil {
			wal.Close()
			t.Fatalf("Open: %v", err)
		}
		return s, inj
	}
	s, inj := open()
	id, err := s.Put("guide.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "17"}), jan15); err != nil {
		t.Fatal(err)
	}
	news, err := s.Put("news.xml", guideV(map[string]string{"Akropolis": "9"}), jan15)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(news, jan31); err != nil {
		t.Fatal(err)
	}
	if got := len(inj.MetaDeltas()); got != 4 {
		t.Fatalf("%d metadata deltas logged for 4 commits, want 4", got)
	}
	if m := inj.Meta(); m != nil {
		t.Fatalf("a commit rewrote the full table (%d bytes); only vacuum may", len(m))
	}
	want := capture(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, rinj := open()
	defer r.Close()
	if got := len(rinj.MetaDeltas()); got != 4 {
		t.Fatalf("%d metadata deltas recovered through the injector, want 4", got)
	}
	if got := capture(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after reopen differs:\ngot  %#v\nwant %#v", got, want)
	}
	if _, _, err := r.Update(id, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatalf("Update after reopen: %v", err)
	}
}

func TestFsckCleanStore(t *testing.T) {
	s, _ := figure1Store(t, Config{})
	rep := s.Fsck()
	if !rep.Clean() {
		t.Fatalf("fsck of a healthy store:\n%s", rep)
	}
	// Figure 1: one doc, three versions, two deltas plus the current
	// snapshot.
	if rep.Docs != 1 || rep.Versions != 3 || rep.Extents != 3 {
		t.Fatalf("fsck counters = %+v", rep)
	}
}

// TestFsckBlastRadius: a corrupt delta's report lists exactly the versions
// that extent alone makes unreachable.
func TestFsckBlastRadius(t *testing.T) {
	s, id, inj := figure1FaultStore(t)
	vs, _ := s.Versions(id)
	if err := inj.CorruptExtent(vs[1].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	rep := s.Fsck()
	if len(rep.Problems) != 1 {
		t.Fatalf("fsck problems = %s, want exactly one", rep)
	}
	p := rep.Problems[0]
	if p.Kind != "delta" || p.Ver != 2 {
		t.Fatalf("problem = %+v, want delta at version 2", p)
	}
	if !errors.Is(p.Err, pagestore.ErrCorrupt) {
		t.Fatalf("problem error = %v, want ErrCorrupt", p.Err)
	}
	// The 2→3 delta carries versions 1 and 2 (both reach the current
	// snapshot only through it).
	want := []model.VersionNo{1, 2}
	if !reflect.DeepEqual(p.Unreachable, want) {
		t.Fatalf("Unreachable = %v, want %v", p.Unreachable, want)
	}
	if rep.String() == "" || p.String() == "" {
		t.Fatalf("reports must render")
	}
}

// TestFsckLostSnapshotBlastRadius: with the only snapshot gone, every
// version is attributed to it.
func TestFsckLostSnapshotBlastRadius(t *testing.T) {
	s, id, inj := figure1FaultStore(t)
	vs, _ := s.Versions(id)
	if err := inj.DropExtent(vs[2].Snapshot.Start); err != nil {
		t.Fatal(err)
	}
	rep := s.Fsck()
	if len(rep.Problems) != 1 {
		t.Fatalf("fsck problems = %s, want exactly one", rep)
	}
	p := rep.Problems[0]
	if p.Kind != "snapshot" || !errors.Is(p.Err, pagestore.ErrUnknownExtent) {
		t.Fatalf("problem = %+v, want lost snapshot", p)
	}
	want := []model.VersionNo{1, 2, 3}
	if !reflect.DeepEqual(p.Unreachable, want) {
		t.Fatalf("Unreachable = %v, want %v", p.Unreachable, want)
	}
}
