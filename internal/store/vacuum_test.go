package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
)

// buildHistory stores one document with n versions stamped jan1+0, +1, ….
func buildHistory(t *testing.T, s *Store, n int) model.DocID {
	t.Helper()
	id, err := s.Put("doc.xml", guideV(map[string]string{"Napoli": "v1"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= n; v++ {
		tree := guideV(map[string]string{"Napoli": fmt.Sprintf("v%d", v)})
		if _, _, err := s.Update(id, tree, jan1+model.Time(v-1)); err != nil {
			t.Fatal(err)
		}
	}
	return id
}

func TestVacuumKeepLast(t *testing.T) {
	s := New(Config{})
	id := buildHistory(t, s, 10)
	// Remember the survivors' rendered form before the vacuum.
	want := make(map[model.VersionNo]string)
	for v := model.VersionNo(7); v <= 10; v++ {
		vt, err := s.ReconstructVersion(id, v)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = vt.Root.String()
	}
	rep, err := s.Vacuum(Retention{Policy: KeepLast, KeepLast: 4, Granule: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsPruned != 6 {
		t.Fatalf("pruned %d versions, want 6", rep.VersionsPruned)
	}
	if rep.ExtentsFreed == 0 || rep.BytesFreed == 0 {
		t.Fatalf("no space reclaimed: %+v", rep)
	}
	if rep.SnapshotsAdded == 0 {
		t.Fatalf("no snapshot interspersed at the boundary: %+v", rep)
	}
	vs, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 10 {
		t.Fatalf("version entries = %d, want 10 (stubs stay)", len(vs))
	}
	for _, v := range vs[:6] {
		if !v.Pruned || !v.DeltaToNext.Zero() || !v.Snapshot.Zero() {
			t.Fatalf("version %d not a pruned stub: %+v", v.Ver, v)
		}
	}
	// Pruned versions fail with ErrPruned; survivors reconstruct unchanged.
	if _, err := s.ReconstructVersion(id, 3); !errors.Is(err, ErrPruned) {
		t.Fatalf("reconstruct pruned version: %v", err)
	}
	for v, w := range want {
		vt, err := s.ReconstructVersion(id, v)
		if err != nil {
			t.Fatalf("survivor %d: %v", v, err)
		}
		if vt.Root.String() != w {
			t.Fatalf("survivor %d changed after vacuum", v)
		}
	}
	// History walks cover only the surviving suffix.
	hist, err := s.DocHistoryContext(context.Background(), id, model.Always)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 || hist[len(hist)-1].Info.Ver != 7 {
		t.Fatalf("history after vacuum: %d versions, oldest %d", len(hist), hist[len(hist)-1].Info.Ver)
	}
	if !s.Fsck().Clean() {
		t.Fatalf("fsck after vacuum: %s", s.Fsck())
	}
}

func TestVacuumKeepSince(t *testing.T) {
	s := New(Config{})
	id := buildHistory(t, s, 8)
	// Versions valid at or after jan1+5 survive: version 6 (End jan1+6) on.
	rep, err := s.Vacuum(Retention{Policy: KeepSince, KeepSince: jan1 + 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsPruned != 5 {
		t.Fatalf("pruned %d versions, want 5: %+v", rep.VersionsPruned, rep)
	}
	if _, err := s.ReconstructVersion(id, 5); !errors.Is(err, ErrPruned) {
		t.Fatalf("version 5: %v", err)
	}
	if _, err := s.ReconstructVersion(id, 6); err != nil {
		t.Fatalf("version 6 should survive: %v", err)
	}
}

func TestVacuumKeepAllOnlyIntersperses(t *testing.T) {
	s := New(Config{})
	id := buildHistory(t, s, 6)
	rep, err := s.Vacuum(Retention{Policy: KeepAll, Granule: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsPruned != 0 || rep.ExtentsFreed != 0 {
		t.Fatalf("keep-all reclaimed space: %+v", rep)
	}
	for v := model.VersionNo(1); v <= 6; v++ {
		if _, err := s.ReconstructVersion(id, v); err != nil {
			t.Fatalf("version %d after keep-all vacuum: %v", v, err)
		}
	}
}

func TestVacuumAlwaysKeepsCurrent(t *testing.T) {
	s := New(Config{})
	id := buildHistory(t, s, 3)
	if _, err := s.Vacuum(Retention{Policy: KeepLast, KeepLast: 0}); err != nil {
		t.Fatal(err)
	}
	cur, _, err := s.Current(id)
	if err != nil || cur == nil {
		t.Fatalf("current after aggressive vacuum: %v", err)
	}
	// A deleted document keeps its last version too.
	if err := s.Delete(id, feb10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vacuum(Retention{Policy: KeepSince, KeepSince: model.Forever - 1}); err != nil {
		t.Fatal(err)
	}
	vs, _ := s.Versions(id)
	if vs[len(vs)-1].Pruned {
		t.Fatal("last version of deleted doc was pruned")
	}
}

// segStore opens a store over a segmented WAL in dir.
func segStore(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	sw, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatalf("OpenSegmentedWAL: %v", err)
	}
	cfg.Pages.Backend = sw
	s, err := Open(cfg)
	if err != nil {
		sw.Close()
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestMetaDeltaRecovery(t *testing.T) {
	// On a delta-capable backend every commit logs one per-document upsert;
	// reopening must rebuild the same table from base + deltas alone.
	dir := t.TempDir()
	s := segStore(t, dir, Config{SnapshotEvery: 2})
	buildHistory(t, s, 7)
	if _, err := s.Put("other.xml", guideV(map[string]string{"Milano": "1"}), feb10); err != nil {
		t.Fatal(err)
	}
	want := capture(t, s)
	if n := s.CommitsSinceCheckpoint(); n != 8 {
		t.Fatalf("CommitsSinceCheckpoint = %d, want 8", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := segStore(t, dir, Config{SnapshotEvery: 2})
	defer s2.Close()
	got := capture(t, s2)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("doc %q lost on reopen", name)
		}
		if g.Live != w.Live || len(g.Versions) != len(w.Versions) {
			t.Fatalf("doc %q shape changed: %+v vs %+v", name, g, w)
		}
		for i := range w.Versions {
			if g.Versions[i] != w.Versions[i] {
				t.Fatalf("doc %q version %d differs after reopen", name, i+1)
			}
		}
	}
}

func TestVacuumSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := segStore(t, dir, Config{})
	id := buildHistory(t, s, 6)
	if _, err := s.Vacuum(Retention{Policy: KeepLast, KeepLast: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := segStore(t, dir, Config{})
	defer s2.Close()
	vs, err := s2.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		wantPruned := i < 4
		if v.Pruned != wantPruned {
			t.Fatalf("version %d pruned=%v after reopen, want %v", v.Ver, v.Pruned, wantPruned)
		}
	}
	if _, err := s2.ReconstructVersion(id, 2); !errors.Is(err, ErrPruned) {
		t.Fatalf("pruned version after reopen: %v", err)
	}
	if _, err := s2.ReconstructVersion(id, 5); err != nil {
		t.Fatalf("survivor after reopen: %v", err)
	}
	if !s2.Fsck().Clean() {
		t.Fatalf("fsck: %s", s2.Fsck())
	}
}

// versionAnswers is what the store answers for every version of doc id:
// its serialized tree, or the error's text.
func versionAnswers(t *testing.T, s *Store, id model.DocID) []string {
	t.Helper()
	vs, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, v := range vs {
		vt, err := s.ReconstructVersion(id, v.Ver)
		if err != nil {
			out = append(out, fmt.Sprintf("v%d: %v", v.Ver, err))
			continue
		}
		out = append(out, vt.Root.String())
	}
	return out
}

// TestFailedVacuumMatchesReopen: a vacuum whose commit fails changes
// nothing — the live store answers every version exactly as a reopen of
// its log does — and a later vacuum that commits prunes as usual, live and
// after a reopen.
func TestFailedVacuumMatchesReopen(t *testing.T) {
	dir := t.TempDir()
	wal, err := pagestore.OpenSegmentedWAL(pagestore.SegWALConfig{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// Six commits build the history; the seventh is the vacuum's.
	inj := pagestore.NewInjector(wal, 1).Script(
		pagestore.FaultRule{Op: pagestore.FaultCommit, Kind: pagestore.FaultPermanent, At: 7})
	s, err := Open(Config{Pages: pagestore.Config{Backend: inj}})
	if err != nil {
		t.Fatal(err)
	}
	id := buildHistory(t, s, 6)
	ret := Retention{Policy: KeepLast, KeepLast: 2}
	if _, err := s.Vacuum(ret); err == nil {
		t.Fatal("vacuum succeeded through an armed commit fault")
	}
	live := versionAnswers(t, s, id)
	reopened := segStore(t, dir, Config{})
	if got := versionAnswers(t, reopened, id); !reflect.DeepEqual(live, got) {
		t.Fatalf("after a failed vacuum the live store and a reopen disagree:\nlive     %q\nreopened %q", live, got)
	}
	reopened.Pages().Backend().Close()

	rep, err := s.Vacuum(ret)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsPruned != 4 {
		t.Fatalf("VersionsPruned = %d, want 4", rep.VersionsPruned)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := segStore(t, dir, Config{})
	defer s2.Close()
	if _, err := s2.ReconstructVersion(id, 2); !errors.Is(err, ErrPruned) {
		t.Fatalf("pruned version after reopen: %v", err)
	}
	if _, err := s2.ReconstructVersion(id, 5); err != nil {
		t.Fatalf("survivor after reopen: %v", err)
	}
	if rep := s2.Fsck(); !rep.Clean() {
		t.Fatalf("fsck: %s", rep)
	}
}
