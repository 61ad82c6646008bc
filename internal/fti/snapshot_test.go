package fti

import (
	"testing"

	"txmldb/internal/model"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		build func() Snapshotter
	}{
		{func() Snapshotter { return NewVersionIndex() }},
		{func() Snapshotter { return NewDeltaIndex() }},
		{func() Snapshotter { return NewBothIndex() }},
	}
	for _, c := range cases {
		orig := c.build()
		t.Run(orig.Name(), func(t *testing.T) {
			loadFigure1(t, orig)
			blob, err := orig.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			restored := c.build()
			if err := restored.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			// Restored index answers every lookup like the original.
			for _, word := range []string{"Napoli", "Akropolis", "15", "18", "nothere"} {
				for _, at := range []model.Time{jan1, jan15, jan26, jan31, feb10} {
					if got, want := len(restored.LookupT(word, at)), len(orig.LookupT(word, at)); got != want {
						t.Errorf("LookupT(%q, %s) = %d postings, want %d", word, at, got, want)
					}
				}
				if got, want := len(restored.Lookup(word)), len(orig.Lookup(word)); got != want {
					t.Errorf("Lookup(%q) = %d postings, want %d", word, got, want)
				}
				if got, want := len(restored.LookupH(word)), len(orig.LookupH(word)); got != want {
					t.Errorf("LookupH(%q) = %d postings, want %d", word, got, want)
				}
			}
		})
	}
}

func TestSnapshotRestoredIndexAcceptsUpdates(t *testing.T) {
	// A restored index must carry enough state (open occurrences, live
	// counts) to keep indexing new versions correctly.
	orig := NewBothIndex()
	s, id := loadFigure1(t, orig)
	blob, err := orig.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewBothIndex()
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	// Apply the same fourth version to both and compare.
	next := guideXML([2]string{"Milano", "22"})
	_, script, err := s.Update(id, next, feb10)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, _ := s.Current(id)
	for _, ix := range []Index{orig, restored} {
		if err := ix.AddVersion(id, cur, script, feb10); err != nil {
			t.Fatal(err)
		}
	}
	for _, word := range []string{"Napoli", "Milano", "18", "22"} {
		for _, at := range []model.Time{jan26, feb10} {
			if got, want := len(restored.LookupT(word, at)), len(orig.LookupT(word, at)); got != want {
				t.Errorf("LookupT(%q, %s) = %d postings, want %d", word, at, got, want)
			}
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	for _, ix := range []Snapshotter{NewVersionIndex(), NewDeltaIndex(), NewBothIndex()} {
		if err := ix.RestoreState([]byte("not gob")); err == nil {
			t.Errorf("%s: garbage restore should fail", ix.Name())
		}
	}
}
