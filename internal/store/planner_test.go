package store

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

const plannedVersions = 64

// plannedStore stores one 64-version tdocgen document at the given
// snapshot interval over a fault-injectable backend and returns the
// serialization of every version as it was put (want[v-1] is version v).
func plannedStore(t testing.TB, every int) (*Store, model.DocID, *pagestore.Injector, []string) {
	t.Helper()
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	s := New(Config{SnapshotEvery: every, ReadRetries: -1, Pages: pagestore.Config{Backend: inj}})
	hist := tdocgen.New(tdocgen.Config{Seed: 7, InitialElems: 12, Versions: plannedVersions, OpsPerVersion: 3}).History(0)
	id, err := s.Put("doc", hist[0].Tree, hist[0].At)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{string(xmltree.Marshal(hist[0].Tree))}
	for _, v := range hist[1:] {
		if _, _, err := s.Update(id, v.Tree, v.At); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(xmltree.Marshal(v.Tree)))
	}
	return s, id, inj, want
}

// plannedReads is the plan's extent reads for version v of an n-version
// document: none for the current version; otherwise one snapshot read
// plus one delta per version between v and the nearest retained snapshot
// on either side, the current version's snapshot extent included.
func plannedReads(v, n, every int) int64 {
	if v == n {
		return 0
	}
	best := n - v
	for s := every; every > 0 && s < n; s += every {
		best = min(best, max(s-v, v-s))
	}
	return int64(1 + best)
}

// residentOnly is a hook holding exactly the given trees.
func residentOnly(trees ...VersionTree) Resident {
	return func(v model.VersionNo) *xmltree.Node {
		for _, t := range trees {
			if t.Info.Ver == v {
				return t.Root
			}
		}
		return nil
	}
}

// TestPlannerReconstructsEveryVersion: at every snapshot interval, every
// version reconstructs byte-identical to the tree that was put, reading
// exactly the extents the plan names — 0 for the current version, and at
// SnapshotEvery 32, 2 for v33 (forward from 32) and 17 for v48 (the ends
// tie: forward from 32, or back from the current version's snapshot).
func TestPlannerReconstructsEveryVersion(t *testing.T) {
	for _, every := range []int{0, 1, 8, 32} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			s, id, _, want := plannedStore(t, every)
			for v := 1; v <= plannedVersions; v++ {
				s.Pages().ResetStats()
				vt, err := s.ReconstructVersion(id, model.VersionNo(v))
				if err != nil {
					t.Fatalf("v%d: %v", v, err)
				}
				if got := string(xmltree.Marshal(vt.Root)); got != want[v-1] {
					t.Fatalf("v%d differs from the tree that was put", v)
				}
				if vt.Info.Ver != model.VersionNo(v) {
					t.Fatalf("v%d: info %+v", v, vt.Info)
				}
				if got, plan := s.Pages().Stats().ExtentRead, plannedReads(v, plannedVersions, every); got != plan {
					t.Fatalf("v%d: %d extent reads, plan says %d", v, got, plan)
				}
			}
			if every == 32 {
				if plannedReads(33, plannedVersions, 32) != 2 || plannedReads(48, plannedVersions, 32) != 17 {
					t.Fatal("plannedReads disagrees with the documented plan")
				}
			}
		})
	}
}

// TestPlannerWalksMatchReconstruct: the history walk (newest first) and
// Walk (oldest first) hand over the bytes that were put.
func TestPlannerWalksMatchReconstruct(t *testing.T) {
	for _, every := range []int{0, 8} {
		s, id, _, want := plannedStore(t, every)
		hist, err := s.DocHistoryContext(context.Background(), id, model.Always)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != plannedVersions {
			t.Fatalf("SnapshotEvery %d: history has %d versions", every, len(hist))
		}
		for i, vt := range hist {
			if v := plannedVersions - i; vt.Info.Ver != model.VersionNo(v) || string(xmltree.Marshal(vt.Root)) != want[v-1] {
				t.Fatalf("SnapshotEvery %d: history[%d] is not version %d as put", every, i, v)
			}
		}
		vs, _ := s.Versions(id)
		for _, r := range [][2]int{{1, plannedVersions}, {5, 20}, {33, 40}, {63, 64}} {
			next := r[0]
			iv := model.Interval{Start: vs[r[0]-1].Stamp, End: vs[r[1]-1].End}
			err := s.Walk(id, iv, nil, func(vt VersionTree, err error) error {
				if err != nil {
					return err
				}
				if vt.Info.Ver != model.VersionNo(next) || string(xmltree.Marshal(vt.Root)) != want[next-1] {
					return fmt.Errorf("walk handed over version %d, want %d as put", vt.Info.Ver, next)
				}
				next++
				return nil
			})
			if err != nil || next != r[1]+1 {
				t.Fatalf("SnapshotEvery %d: Walk(%d..%d): %v (stopped before %d)", every, r[0], r[1], err, next)
			}
		}
	}
}

// TestPlannerRoutesAroundCorruptSnapshot: an unreadable snapshot sends
// the plan past it — here forward from the snapshot below instead of back
// from the corrupt one above.
func TestPlannerRoutesAroundCorruptSnapshot(t *testing.T) {
	s, id, inj, want := plannedStore(t, 8)
	vs, _ := s.Versions(id)
	if err := inj.CorruptExtent(vs[15].Snapshot.Start); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{14, 15, 16, 17} {
		vt, err := s.ReconstructVersion(id, model.VersionNo(v))
		if err != nil {
			t.Fatalf("v%d around a corrupt snapshot: %v", v, err)
		}
		if string(xmltree.Marshal(vt.Root)) != want[v-1] {
			t.Fatalf("v%d around a corrupt snapshot differs from the tree that was put", v)
		}
	}
	// Fsck's blast radius follows the plan: a lost delta between two
	// snapshots strands no version, each side reaching its own snapshot.
	vs, _ = s.Versions(id)
	if err := inj.DropExtent(vs[11].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	rep := s.Fsck()
	if len(rep.Problems) != 2 {
		t.Fatalf("fsck = %s, want the corrupt snapshot and the lost delta", rep)
	}
	for _, p := range rep.Problems {
		if len(p.Unreachable) != 0 {
			t.Fatalf("fsck strands versions the plan reaches: %s", rep)
		}
	}
	for v := 9; v <= 16; v++ {
		if _, err := s.ReconstructVersion(id, model.VersionNo(v)); err != nil {
			t.Fatalf("v%d next to a lost delta: %v", v, err)
		}
	}
	// A lost delta with no snapshot below leaves the versions under it
	// unreachable; Walk hands each over with its error and goes on.
	s, id, inj, want = plannedStore(t, 0)
	vs, _ = s.Versions(id)
	if err := inj.DropExtent(vs[39].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	var reached, lost int
	err := s.Walk(id, model.Always, nil, func(vt VersionTree, err error) error {
		switch v := int(vt.Info.Ver); {
		case v <= 40 && errors.Is(err, ErrUnreachable) && errors.Is(err, pagestore.ErrUnknownExtent):
			lost++
		case v > 40 && err == nil && string(xmltree.Marshal(vt.Root)) == want[v-1]:
			reached++
		default:
			return fmt.Errorf("version %d: %v", v, err)
		}
		return nil
	})
	if err != nil || lost != 40 || reached != plannedVersions-40 {
		t.Fatalf("walk over a lost delta: %v, %d lost, %d reached", err, lost, reached)
	}
}

// TestPlannerUsesResidentBase: a version the hook holds is the base when
// it is the cheapest, forward or back; a resident run is walked without
// reading an extent.
func TestPlannerUsesResidentBase(t *testing.T) {
	s, id, _, want := plannedStore(t, 0)
	ctx := context.Background()
	base, err := s.ReconstructVersion(id, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []model.VersionNo{39, 41, 44} {
		s.Pages().ResetStats()
		vt, err := s.ReconstructWith(ctx, id, v, residentOnly(base))
		if err != nil {
			t.Fatal(err)
		}
		if string(xmltree.Marshal(vt.Root)) != want[v-1] {
			t.Fatalf("v%d from resident v40 differs from the tree that was put", v)
		}
		if got, dist := s.Pages().Stats().ExtentRead, int64(max(v-40, 40-v)); got != dist {
			t.Fatalf("v%d from resident v40: %d extent reads, want %d", v, got, dist)
		}
	}

	hist, err := s.DocHistoryContext(ctx, id, model.Always)
	if err != nil {
		t.Fatal(err)
	}
	s.Pages().ResetStats()
	again, err := s.DocHistoryWith(ctx, id, model.Always, residentOnly(hist...))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Pages().Stats().ExtentRead; got != 0 || len(again) != len(hist) {
		t.Fatalf("resident history: %d extent reads, %d versions", got, len(again))
	}
}

// TestPlannerLooksOnlyAtNearestBases: the plan asks the hook about the
// versions between the target and its nearest base on each side, not
// about the whole history: at SnapshotEvery 1 every older version is its
// own snapshot, so a reconstruction asks about two versions at most.
func TestPlannerLooksOnlyAtNearestBases(t *testing.T) {
	s, id, _, _ := plannedStore(t, 1)
	for v := model.VersionNo(1); v < plannedVersions; v++ {
		asked := 0
		hook := func(model.VersionNo) *xmltree.Node { asked++; return nil }
		if _, err := s.ReconstructWith(context.Background(), id, v, hook); err != nil {
			t.Fatal(err)
		}
		if asked > 2 {
			t.Fatalf("v%d: the plan asked the hook about %d versions, want at most 2", v, asked)
		}
	}
}

// TestReconstructFromMatchesReconstructVersion: with any one version
// resident, every version of a short history reconstructs what the
// hook-less plan does, whether the resident base lies before or after it.
func TestReconstructFromMatchesReconstructVersion(t *testing.T) {
	const n = 8
	ctx := context.Background()
	for _, every := range []int{0, 3} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			s, id, _, _ := plannedStore(t, every)
			for from := model.VersionNo(1); from <= n; from++ {
				b, err := s.ReconstructVersion(id, from)
				if err != nil {
					t.Fatal(err)
				}
				for to := model.VersionNo(1); to <= n; to++ {
					got, err := s.ReconstructWith(ctx, id, to, residentOnly(b))
					if err != nil {
						t.Fatalf("v%d with v%d resident: %v", to, from, err)
					}
					plain, err := s.ReconstructVersion(id, to)
					if err != nil {
						t.Fatal(err)
					}
					if got.Info != plain.Info || !xmltree.Equal(got.Root, plain.Root) {
						t.Fatalf("v%d with v%d resident differs from the plain plan", to, from)
					}
				}
			}
		})
	}
}

// TestReconstructFromDoesNotMutateBase: the planner never modifies a
// resident tree (the cache hands cache-owned trees in), whether it steps
// forward or back from it or walks a run through it, and the resident
// version itself comes back as a copy.
func TestReconstructFromDoesNotMutateBase(t *testing.T) {
	s, id, _, _ := plannedStore(t, 0)
	ctx := context.Background()
	base, err := s.ReconstructVersion(id, 40)
	if err != nil {
		t.Fatal(err)
	}
	before := string(xmltree.Marshal(base.Root))
	for _, v := range []model.VersionNo{39, 40, 41, 44} {
		vt, err := s.ReconstructWith(ctx, id, v, residentOnly(base))
		if err != nil {
			t.Fatal(err)
		}
		if vt.Root == base.Root {
			t.Fatalf("v%d: the planner handed out the resident tree itself", v)
		}
	}
	if _, err := s.DocHistoryWith(ctx, id, model.Always, residentOnly(base)); err != nil {
		t.Fatal(err)
	}
	if string(xmltree.Marshal(base.Root)) != before {
		t.Fatal("the planner modified a resident tree")
	}
}

// TestReconstructFromErrors: an unknown document or an out-of-range
// version is an error with a resident base at hand too; a resident base
// newer than the target, or a hook holding nothing, is not.
func TestReconstructFromErrors(t *testing.T) {
	s, id, _, want := plannedStore(t, 0)
	ctx := context.Background()
	base, err := s.ReconstructVersion(id, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructWith(ctx, id+99, 4, residentOnly(base)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown doc: err = %v, want ErrNotFound", err)
	}
	for _, v := range []model.VersionNo{0, plannedVersions + 1} {
		if _, err := s.ReconstructWith(ctx, id, v, residentOnly(base)); err == nil {
			t.Fatalf("out-of-range version %d accepted", v)
		}
	}
	for _, res := range []Resident{residentOnly(base), residentOnly()} {
		vt, err := s.ReconstructWith(ctx, id, 38, res)
		if err != nil {
			t.Fatal(err)
		}
		if string(xmltree.Marshal(vt.Root)) != want[37] {
			t.Fatal("v38 differs from the tree that was put")
		}
	}
}

// TestWalkAlongsideWriter: Walk's fn runs outside the store's lock, so it
// may call back into the store while a writer commits — with the lock held
// across fn, the writer waiting for it would block the callback — and
// every version handed over is still the one that was put.
func TestWalkAlongsideWriter(t *testing.T) {
	s, id, _, want := plannedStore(t, 8)
	vs, _ := s.Versions(id)
	last := vs[len(vs)-1].Stamp
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 20; i++ {
			tree := xmltree.Elem("guide", xmltree.ElemText("name", fmt.Sprintf("w%d", i)))
			if _, _, err := s.Update(id, tree, last+model.Time(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	next := 1
	err := s.Walk(id, model.Interval{Start: vs[0].Stamp, End: last + 1}, nil, func(vt VersionTree, err error) error {
		if err != nil {
			return err
		}
		if _, err := s.Versions(id); err != nil {
			return err
		}
		if vt.Info.Ver != model.VersionNo(next) || string(xmltree.Marshal(vt.Root)) != want[next-1] {
			return fmt.Errorf("walk handed over version %d, want %d as put", vt.Info.Ver, next)
		}
		next++
		return nil
	})
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if err != nil || next != plannedVersions+1 {
		t.Fatalf("walk alongside a writer: %v (stopped before %d)", err, next)
	}
}
