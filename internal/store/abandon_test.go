package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
)

// TestFailedCommitAtEveryCut: failed commits — an update, a create and a
// delete, each followed by a successful commit of another document — must
// leave nothing behind in the log: the segment is exactly as long after a
// failed write as before it. The log is cut at every byte; each cut
// reopens to exactly the state of the last successful commit before it,
// and Fsck finds nothing wrong.
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
		sz, err := wal.Size()
		if err != nil {
			t.Fatal(err)
		}
		if last := goldens[len(goldens)-1].offset; sz != last {
			t.Fatalf("a failed write left %d bytes in the log", sz-last)
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

// TestFailedGroupCommitAtEveryCut: two writers commit concurrently
// through a 1 ms group window while two commit faults are armed, so a
// group fails with both writers' batches in it, or with one of them while
// the other's batch commits in the next group. The log is cut at every
// byte. Each cut must reopen Fsck-clean to a prefix of the acknowledged
// commits — per document, a prefix of its acknowledged versions, never a
// version whose write failed — and the full log to all of them.
func TestFailedGroupCommitAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inj := pagestore.NewInjector(wal, 1).Script(
		pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultPermanent, At: 3},
		pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultPermanent, At: 6},
	)
	s, err := Open(Config{Pages: pagestore.Config{Backend: inj, GroupWindow: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, updates = 2, 5
	ids := make([]model.DocID, writers)
	for w := range ids {
		if ids[w], err = s.Put(fmt.Sprintf("doc%d.xml", w), guideV(map[string]string{"Napoli": "0"}), jan1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	failures := make([]int, writers)
	for w := range ids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= updates; i++ {
				tree := guideV(map[string]string{"Napoli": fmt.Sprintf("%d%d", w, i)})
				if _, _, err := s.Update(ids[w], tree, jan1+model.Time(i)); err != nil {
					failures[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if failures[0]+failures[1] < 2 {
		t.Fatalf("the two armed commit faults failed %d writes", failures[0]+failures[1])
	}
	acked := capture(t, s) // failed writes never publish
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
	seen := make(map[string]int) // versions recovered at the previous cut
	for cut := int64(0); cut <= int64(len(full)); cut++ {
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
		got := capture(t, rs)
		for name, img := range got {
			want, ok := acked[name]
			if !ok || len(img.Versions) > len(want.Versions) ||
				!reflect.DeepEqual(img.Versions, want.Versions[:len(img.Versions)]) {
				t.Fatalf("cut=%d: %s recovered versions that are not a prefix of its acknowledged ones:\ngot  %q\nwant %q",
					cut, name, img.Versions, want.Versions)
			}
			if len(img.Versions) < seen[name] {
				t.Fatalf("cut=%d: %s lost versions a shorter cut recovered", cut, name)
			}
			seen[name] = len(img.Versions)
		}
		if cut == int64(len(full)) && !reflect.DeepEqual(got, acked) {
			t.Fatalf("full log does not recover every acknowledged commit:\ngot  %#v\nwant %#v", got, acked)
		}
		rs.Close()
	}
}

// TestOpenLogWithFencedFailures opens testdata/failed-commits, a log
// written before commits were batched, when a failed commit left its
// records in the segment and cancelled them with a second metadata record:
// the document's published entry again (a fence) or, for a create, an
// entry without versions (a withdrawal). It holds a failed update, a
// failed create and a failed delete, each followed by a successful commit
// that made both records durable. It must open to the table of the
// successful commits alone, Fsck-clean, and take a write.
func TestOpenLogWithFencedFailures(t *testing.T) {
	// What the log's successful commits did, replayed on a fresh store.
	want := New(Config{})
	guide, err := want.Put("guide.xml", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.Put("other.xml", guideV(map[string]string{"Roma": "11"}), jan15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := want.Update(guide, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	if _, err := want.Put("news.xml", guideV(map[string]string{"Akropolis": "10"}), feb10); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir() // opening may truncate: work on a copy
	data, err := os.ReadFile(filepath.Join("testdata", "failed-commits", pagestore.SegmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, pagestore.SegmentFileName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := segStore(t, dir, Config{})
	if rep := s.Fsck(); !rep.Clean() {
		t.Fatalf("fsck:\n%s", rep)
	}
	if got := capture(t, s); !reflect.DeepEqual(got, capture(t, want)) {
		t.Fatalf("recovered table:\n got  %#v\nwant %#v", got, capture(t, want))
	}
	id, ok := s.Lookup("guide.xml")
	if !ok {
		t.Fatal("guide.xml not found")
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "19"}), feb10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := want.Update(guide, guideV(map[string]string{"Napoli": "19"}), feb10); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := segStore(t, dir, Config{})
	defer r.Close()
	if got := capture(t, r); !reflect.DeepEqual(got, capture(t, want)) {
		t.Fatalf("table after a write and a reopen:\n got  %#v\nwant %#v", got, capture(t, want))
	}
	if rep := r.Fsck(); !rep.Clean() {
		t.Fatalf("fsck after a write:\n%s", rep)
	}
}
