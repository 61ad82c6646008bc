package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"txmldb/internal/pagestore"
)

// TestFailedCommitAtEveryCut: commits that fail after their records are in
// the log — an update, a create and a delete, each followed by a
// successful commit of another document — must leave nothing behind that
// the next commit marker makes durable. The log is cut at every byte; each
// cut reopens to exactly the state of the last successful commit before
// it, and Fsck finds nothing wrong.
func TestFailedCommitAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inj := pagestore.NewInjector(wal, 1).Script(
		pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultPermanent, At: 2},
		pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultPermanent, At: 3},
		pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultPermanent, At: 5},
	)
	s, err := Open(Config{Pages: pagestore.Config{Backend: inj}})
	if err != nil {
		t.Fatal(err)
	}

	type golden struct {
		offset int64
		state  map[string]docImage
	}
	goldens := []golden{{offset: 0, state: map[string]docImage{}}}
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sz, err := wal.Size()
		if err != nil {
			t.Fatal(err)
		}
		goldens = append(goldens, golden{offset: sz, state: capture(t, s)})
	}
	failed := func(err error) {
		t.Helper()
		if err == nil {
			t.Fatal("the injected commit fault did not fail the write")
		}
	}

	// Commits 2, 3 and 5 fail; 4 is the first marker after a failure.
	guide, err := s.Put("guide.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	ok(err)
	_, _, err = s.Update(guide, guideV(map[string]string{"Napoli": "17"}), jan15)
	failed(err)
	_, err = s.Put("news.xml", guideV(map[string]string{"Akropolis": "9"}), jan15)
	failed(err)
	other, err := s.Put("other.xml", guideV(map[string]string{"Roma": "11"}), jan15)
	ok(err)
	failed(s.Delete(other, jan31))
	_, _, err = s.Update(guide, guideV(map[string]string{"Napoli": "18"}), jan31)
	ok(err)
	_, err = s.Put("news.xml", guideV(map[string]string{"Akropolis": "10"}), feb10)
	ok(err)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(filepath.Join(dir, pagestore.SegmentFileName(1)))
	if err != nil {
		t.Fatal(err)
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
		if err := os.WriteFile(filepath.Join(crashDir, pagestore.SegmentFileName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rw, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: crashDir})
		if err != nil {
			t.Fatalf("cut=%d: OpenSegmentedWAL: %v", cut, err)
		}
		rs, err := Open(Config{Pages: pagestore.Config{Backend: rw}})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if rep := rs.Fsck(); !rep.Clean() {
			t.Fatalf("cut=%d: fsck after recovery:\n%s", cut, rep)
		}
		if got := capture(t, rs); !reflect.DeepEqual(got, want.state) {
			t.Fatalf("cut=%d: recovered state is not the commit at offset %d:\ngot  %#v\nwant %#v",
				cut, want.offset, got, want.state)
		}
		rs.Close()
	}
}
