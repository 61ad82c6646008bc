package store

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// chainStore builds one document with n versions, version i holding text
// "v<i>", so forward replay is observable at every distance.
func chainStore(t testing.TB, n int, cfg Config) (*Store, model.DocID) {
	t.Helper()
	s := New(cfg)
	id, err := s.Put("doc", xmltree.Elem("doc", xmltree.ElemText("val", "v1")), jan1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		tree := xmltree.Elem("doc", xmltree.ElemText("val", fmt.Sprintf("v%d", i)))
		if _, _, err := s.Update(id, tree, jan1+model.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s, id
}

// TestReconstructFromMatchesReconstructVersion replays every (base, to)
// pair forward and compares with the backward-walking reconstruction.
func TestReconstructFromMatchesReconstructVersion(t *testing.T) {
	for _, snap := range []int{0, 3} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", snap), func(t *testing.T) {
			const n = 8
			s, id := chainStore(t, n, Config{SnapshotEvery: snap})
			for from := model.VersionNo(1); from <= n; from++ {
				base, err := s.ReconstructVersion(id, from)
				if err != nil {
					t.Fatal(err)
				}
				for to := from; to <= n; to++ {
					got, err := s.ReconstructFromContext(context.Background(), id, base, to)
					if err != nil {
						t.Fatalf("ReconstructFrom(%d→%d): %v", from, to, err)
					}
					want, err := s.ReconstructVersion(id, to)
					if err != nil {
						t.Fatal(err)
					}
					if got.Info != want.Info {
						t.Fatalf("%d→%d: info %+v, want %+v", from, to, got.Info, want.Info)
					}
					if !xmltree.Equal(got.Root, want.Root) {
						t.Fatalf("%d→%d: tree differs", from, to)
					}
				}
			}
		})
	}
}

// TestReconstructFromDoesNotMutateBase: the caller's base tree must stay
// intact (the cache hands cache-owned trees in).
func TestReconstructFromDoesNotMutateBase(t *testing.T) {
	s, id := chainStore(t, 6, Config{})
	base, err := s.ReconstructVersion(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := base.Root.Clone()
	if _, err := s.ReconstructFromContext(context.Background(), id, base, 6); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(base.Root, snapshot) {
		t.Fatal("ReconstructFrom mutated the base tree")
	}
}

func TestReconstructFromErrors(t *testing.T) {
	s, id := chainStore(t, 4, Config{})
	base, err := s.ReconstructVersion(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructFromContext(context.Background(), id+99, base, 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown doc: err = %v, want ErrNotFound", err)
	}
	if _, err := s.ReconstructFromContext(context.Background(), id, base, 99); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := s.ReconstructFromContext(context.Background(), id, base, 2); err == nil {
		t.Fatal("base newer than target accepted")
	}
	if _, err := s.ReconstructFromContext(context.Background(), id, VersionTree{}, 4); err == nil {
		t.Fatal("zero base accepted")
	}
}
