package store

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

func TestEpochPinnedReadIgnoresLaterWrites(t *testing.T) {
	s := New(Config{})
	id, err := s.Put("doc", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "15", "Akropolis": "13"}), jan15); err != nil {
		t.Fatal(err)
	}
	pin := s.Epoch()
	ctx := WithEpoch(context.Background(), pin)
	v2 := guideV(map[string]string{"Napoli": "15", "Akropolis": "13"})

	// A write after the pin is invisible to the pinned reader...
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructVersionContext(ctx, id, 3); err == nil {
		t.Fatal("pinned reader reconstructed a version published after the pin")
	}
	vt, err := s.ReconstructAtContext(ctx, id, feb10)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Info.Ver != 2 || vt.Info.End != model.Forever || !vt.Info.DeltaToNext.Zero() {
		t.Fatalf("pinned read at %s: info = %+v, want version 2 reading as current", feb10, vt.Info)
	}
	if !xmltree.Equal(vt.Root, v2) {
		t.Fatal("pinned read content differs from version 2")
	}
	// ...but visible to an unpinned one.
	cur, err := s.ReconstructAtContext(context.Background(), id, feb10)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Info.Ver != 3 {
		t.Fatalf("unpinned read at %s: version %d, want 3", feb10, cur.Info.Ver)
	}

	// The delta closing version 2 was published after the pin.
	if _, err := s.ReadDeltaContext(ctx, id, 2); err == nil {
		t.Fatal("pinned reader read a delta published after the pin")
	}
	if _, err := s.ReadDeltaContext(ctx, id, 1); err != nil {
		t.Fatalf("delta 1→2 predates the pin: %v", err)
	}

	// History is clamped the same way.
	hist, err := s.DocHistoryContext(ctx, id, model.Interval{Start: jan1, End: model.Forever})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("pinned history: %d versions, want 2", len(hist))
	}
	if hist[0].Info.Ver != 2 || hist[0].Info.End != model.Forever {
		t.Fatalf("pinned history newest = %+v, want version 2 reading as current", hist[0].Info)
	}
}

func TestEpochPinnedDeletionInvisible(t *testing.T) {
	s := New(Config{})
	id, err := s.Put("doc", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	pin := s.Epoch()
	ctx := WithEpoch(context.Background(), pin)
	if err := s.Delete(id, jan15); err != nil {
		t.Fatal(err)
	}

	// Unpinned: the document ended at jan15.
	if _, err := s.ReconstructAtContext(context.Background(), id, jan31); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("unpinned read past deletion: %v, want ErrNoVersion", err)
	}
	// Pinned before the deletion: the document is still live.
	vt, err := s.ReconstructAtContext(ctx, id, jan31)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Info.Ver != 1 || vt.Info.End != model.Forever {
		t.Fatalf("pinned read past invisible deletion: %+v", vt.Info)
	}
	if _, deleted, ok := s.PinnedHorizon(id, pin); !ok || deleted != model.Forever {
		t.Fatalf("PinnedHorizon(%d, %d): deleted=%s ok=%v, want live", id, pin, deleted, ok)
	}
	if _, deleted, ok := s.PinnedHorizon(id, 0); !ok || deleted != jan15 {
		t.Fatalf("PinnedHorizon(%d, live): deleted=%s ok=%v, want %s", id, deleted, ok, jan15)
	}
}

func TestEpochPinnedDocumentInvisible(t *testing.T) {
	s := New(Config{})
	pin := s.Epoch()
	ctx := WithEpoch(context.Background(), pin)
	id, err := s.Put("doc", guideV(map[string]string{"Napoli": "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructAtContext(ctx, id, jan15); err == nil {
		t.Fatal("pinned reader saw a document created after the pin")
	}
	hist, err := s.DocHistoryContext(ctx, id, model.Interval{Start: jan1, End: model.Forever})
	if err != nil || len(hist) != 0 {
		t.Fatalf("pinned history of invisible doc: %d versions, err %v", len(hist), err)
	}
	info, err := s.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ClampInfoContext(ctx, id, VersionInfo{Ver: 1, Stamp: info.Created}); err == nil {
		t.Fatal("ClampInfoContext passed a version of an invisible document")
	}
}

// TestConcurrentWriterEpochSnapshot drives disjoint-document writers against
// readers that pin an epoch and require a consistent snapshot: no version
// stamped after the pin, version numbers dense, the newest visible version
// reading as current, and every version's content matching its number (each
// write encodes its version into the document).
func TestConcurrentWriterEpochSnapshot(t *testing.T) {
	s := New(Config{})
	const writers = 4
	const updates = 40

	doc := func(ver int) *xmltree.Node {
		return xmltree.Elem("doc", xmltree.ElemText("ver", strconv.Itoa(ver)))
	}
	ids := make([]model.DocID, writers)
	for w := range ids {
		id, err := s.Put(fmt.Sprintf("doc-%d", w), doc(1), model.Time(1))
		if err != nil {
			t.Fatal(err)
		}
		ids[w] = id
	}

	var writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 2; i <= updates; i++ {
				if _, _, err := s.Update(ids[w], doc(i), model.Time(i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := s.Epoch()
				ctx := WithEpoch(context.Background(), pin)
				for _, id := range ids {
					hist, err := s.DocHistoryContext(ctx, id, model.Interval{Start: 0, End: model.Forever})
					if err != nil {
						t.Errorf("pinned history: %v", err)
						return
					}
					for i, vt := range hist {
						if vt.Info.Epoch > pin {
							t.Errorf("pinned at %d, observed version stamped epoch %d", pin, vt.Info.Epoch)
							return
						}
						wantVer := model.VersionNo(len(hist) - i)
						if vt.Info.Ver != wantVer {
							t.Errorf("pinned history not dense: position %d has version %d, want %d", i, vt.Info.Ver, wantVer)
							return
						}
						want := doc(int(vt.Info.Ver))
						if !xmltree.Equal(vt.Root, want) {
							t.Errorf("version %d content does not match its number", vt.Info.Ver)
							return
						}
					}
					if len(hist) > 0 {
						newest := hist[0].Info
						if newest.End != model.Forever || !newest.DeltaToNext.Zero() {
							t.Errorf("newest visible version %d not reading as current: %+v", newest.Ver, newest)
							return
						}
					}
				}
			}
		}()
	}
	// Readers hammer pinned snapshots for as long as the writers run.
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	// Quiesced: every doc must be at version `updates` with matching content.
	for w, id := range ids {
		cur, info, err := s.Current(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Ver != model.VersionNo(updates) {
			t.Fatalf("doc %d: final version %d, want %d", w, info.Ver, updates)
		}
		if !xmltree.Equal(cur, doc(updates)) {
			t.Fatalf("doc %d: final content does not match version %d", w, updates)
		}
	}
}
