package store

import (
	"context"
	"errors"
	"sync"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
)

// figure1FaultStore is figure1Store over a fault-injected backend, so
// failure tests corrupt storage through the injector instead of reaching
// into pagestore internals.
func figure1FaultStore(t *testing.T) (*Store, model.DocID, *pagestore.Injector) {
	t.Helper()
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	s, id := figure1Store(t, Config{Pages: pagestore.Config{Backend: inj}})
	return s, id, inj
}

// TestReconstructFailsOnLostDelta injects storage corruption: a dropped
// delta extent must surface as a typed reconstruction error, not a panic or
// a silently wrong tree.
func TestReconstructFailsOnLostDelta(t *testing.T) {
	s, id, inj := figure1FaultStore(t)
	vs, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the delta 1→2; version 1 becomes unreachable, versions 2 and 3
	// are ahead of the break and stay readable.
	if err := inj.DropExtent(vs[0].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	_, err = s.ReconstructVersion(id, 1)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reconstruction over a lost delta = %v, want ErrUnreachable", err)
	}
	if !errors.Is(err, pagestore.ErrUnknownExtent) {
		t.Fatalf("error chain loses the storage cause: %v", err)
	}
	if _, err := s.ReconstructVersion(id, 3); err != nil {
		t.Fatalf("current version must stay readable: %v", err)
	}
	// Version 2 also needs the 2→3 delta only, so it still reconstructs.
	if _, err := s.ReconstructVersion(id, 2); err != nil {
		t.Fatalf("version 2 needs only the 2→3 delta: %v", err)
	}
}

// TestReconstructFailsOnLostSnapshot removes the current version's full
// serialization.
func TestReconstructFailsOnLostSnapshot(t *testing.T) {
	s, id, inj := figure1FaultStore(t)
	vs, _ := s.Versions(id)
	if err := inj.DropExtent(vs[2].Snapshot.Start); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReconstructVersion(id, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("reconstruction without any snapshot = %v, want ErrUnreachable", err)
	}
	// The in-memory current version is unaffected.
	if _, _, err := s.Current(id); err != nil {
		t.Fatalf("cached current version must survive: %v", err)
	}
}

// TestCorruptedDeltaDocument flips a bit inside a stored delta: checksum
// verification must surface it as pagestore.ErrCorrupt, and reconstruction
// through it as ErrUnreachable naming the broken link.
func TestCorruptedDeltaDocument(t *testing.T) {
	s, id, inj := figure1FaultStore(t)
	vs, _ := s.Versions(id)
	if err := inj.CorruptExtent(vs[1].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	_, err := s.ReadDelta(id, 2)
	if !errors.Is(err, pagestore.ErrCorrupt) {
		t.Fatalf("reading a bit-flipped delta = %v, want ErrCorrupt", err)
	}
	// Versions 1 and 2 depend on the 2→3 delta; both become unreachable,
	// and the error names both the version and the storage cause.
	for _, ver := range []model.VersionNo{1, 2} {
		_, err := s.ReconstructVersion(id, ver)
		if !errors.Is(err, ErrUnreachable) || !errors.Is(err, pagestore.ErrCorrupt) {
			t.Fatalf("v%d over corrupt delta = %v, want ErrUnreachable wrapping ErrCorrupt", ver, err)
		}
	}
	if _, err := s.ReconstructVersion(id, 3); err != nil {
		t.Fatalf("version ahead of the corruption must stay readable: %v", err)
	}
}

// TestTransientReadFaultIsRetried: bounded retries absorb a transient fault
// window shorter than the retry budget.
func TestTransientReadFaultIsRetried(t *testing.T) {
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	s, id := figure1Store(t, Config{
		Pages:       pagestore.Config{Backend: inj},
		ReadRetries: 3,
	})
	reads := inj.Reads()
	// The next two backend reads fail transiently; the retry loop rides
	// through them.
	inj.Script(pagestore.FaultRule{Op: pagestore.FaultRead, Kind: pagestore.FaultTransient, At: reads + 1, Count: 2})
	if _, err := s.ReconstructVersion(id, 1); err != nil {
		t.Fatalf("reconstruction under transient faults: %v", err)
	}
	if inj.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2 transient faults absorbed", inj.Fired())
	}
}

// TestTransientFaultExhaustsRetries: a fault window longer than the retry
// budget surfaces the transient error.
func TestTransientFaultExhaustsRetries(t *testing.T) {
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	s, id := figure1Store(t, Config{
		Pages:       pagestore.Config{Backend: inj},
		ReadRetries: 2,
	})
	reads := inj.Reads()
	inj.Script(pagestore.FaultRule{Op: pagestore.FaultRead, Kind: pagestore.FaultTransient, At: reads + 1, Count: 1 << 30})
	_, err := s.ReconstructVersion(id, 1)
	if !errors.Is(err, pagestore.ErrTransient) {
		t.Fatalf("exhausted retries = %v, want ErrTransient surfaced", err)
	}
}

// TestConcurrentReadersWithWriter runs parallel reconstructions, history
// scans and TS lookups while a writer appends versions.
func TestConcurrentReadersWithWriter(t *testing.T) {
	s := New(Config{SnapshotEvery: 4})
	id, err := s.Put("doc", guideV(map[string]string{"Napoli": "0"}), 1000)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				vs, err := s.Versions(id)
				if err != nil {
					errs <- err
					return
				}
				target := model.VersionNo(len(vs)/2 + 1)
				if _, err := s.ReconstructVersion(id, target); err != nil {
					errs <- err
					return
				}
				if _, err := s.DocHistoryContext(context.Background(), id, model.Interval{Start: 1000, End: 1000 + writes + 1}); err != nil {
					errs <- err
					return
				}
				if _, err := s.CurrentTS(id); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		price := map[string]string{"Napoli": string(rune('0' + i%10))}
		if _, _, err := s.Update(id, guideV(price), model.Time(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent reader: %v", err)
	}
	// Final consistency: all versions reconstruct.
	for v := 1; v <= writes+1; v++ {
		if _, err := s.ReconstructVersion(id, model.VersionNo(v)); err != nil {
			t.Fatalf("post-run reconstruct v%d: %v", v, err)
		}
	}
}

// TestWriterPreservesOldReconstructions: a tree handed out by the store
// must not be mutated by later updates.
func TestReconstructedTreesAreIsolated(t *testing.T) {
	s, id := figure1Store(t, Config{})
	vt, err := s.ReconstructVersion(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := vt.Root.String()
	if _, _, err := s.Update(id, guideV(map[string]string{"Napoli": "99"}), feb10); err != nil {
		t.Fatal(err)
	}
	if vt.Root.String() != before {
		t.Fatal("previously reconstructed tree was mutated by an update")
	}
	// And mutating the returned tree must not corrupt the store.
	vt.Root.Children[0].Detach()
	if _, err := s.ReconstructVersion(id, 2); err != nil {
		t.Fatal(err)
	}
}

func TestCurrentReturnsCopy(t *testing.T) {
	s, id := figure1Store(t, Config{})
	cur, _, err := s.Current(id)
	if err != nil {
		t.Fatal(err)
	}
	cur.Children[0].Detach() // vandalize the returned tree
	again, _, err := s.Current(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.ChildElements("restaurant")) != 1 {
		t.Fatal("Current must hand out isolated copies")
	}
}
