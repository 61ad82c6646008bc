package vcache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// TestStressReadersWithWriter interleaves a writer appending versions (and
// invalidating, as core.DB does after UpdateDocument) with many readers
// Getting random versions through the cache. Run with -race. Every read
// must observe exactly the content the store assigned to that version —
// versions are append-only, so expected content never changes — and the
// formerly-current version's End stamp must stop being Forever once the
// writer has moved past it and invalidated.
func TestStressReadersWithWriter(t *testing.T) {
	const (
		initialVersions = 24
		extraVersions   = 40
		readers         = 8
		readsPerReader  = 400
	)

	s, id := versionedStore(t, initialVersions, store.Config{SnapshotEvery: 8})
	// A small budget keeps eviction churning while readers and the writer
	// race, which is the interesting regime for -race.
	c := New(s, Config{MaxBytes: 64 << 10})

	// highWater is the version count readers may safely ask for. The writer
	// publishes after Update+InvalidateDoc, mirroring core.DB's ordering.
	var highWater atomic.Int64
	highWater.Store(initialVersions)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(stop)
		for i := 0; i < extraVersions; i++ {
			ver := initialVersions + i + 1
			tree := xmltree.Elem("doc", xmltree.ElemText("val", fmt.Sprintf("v%d", ver)))
			if _, _, err := s.Update(id, tree, model.Date(2001, 1, 1)+model.Time(ver)); err != nil {
				t.Errorf("update to v%d: %v", ver, err)
				return
			}
			c.InvalidateDoc(id)
			// After Update returns and the cache is invalidated, the
			// previous version must no longer read as current.
			prev, err := c.Get(id, model.VersionNo(ver-1))
			if err != nil {
				t.Errorf("get v%d after update: %v", ver-1, err)
				return
			}
			if prev.Info.End == model.Forever {
				t.Errorf("v%d still reads as current after v%d was committed and invalidated", ver-1, ver)
				return
			}
			highWater.Store(int64(ver))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < readsPerReader; i++ {
				ver := model.VersionNo(1 + rng.Int63n(highWater.Load()))
				vt, err := c.Get(id, ver)
				if err != nil {
					t.Errorf("get v%d: %v", ver, err)
					return
				}
				if vt.Info.Ver != ver {
					t.Errorf("asked for v%d, got v%d", ver, vt.Info.Ver)
					return
				}
				if got, want := vt.Root.Text(), fmt.Sprintf("v%d", ver); got != want {
					t.Errorf("v%d content = %q, want %q", ver, got, want)
					return
				}
			}
		}(int64(r) + 1)
	}

	wg.Wait()
	<-stop

	st := c.Stats()
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats inconsistent: hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	if st.Lookups < readers*readsPerReader {
		t.Fatalf("lookups = %d, want >= %d", st.Lookups, readers*readsPerReader)
	}
	if st.ResidentBytes > 64<<10 {
		t.Fatalf("resident bytes %d over budget", st.ResidentBytes)
	}

	// Quiesced: every version still reconstructs exactly.
	for ver := model.VersionNo(1); ver <= initialVersions+extraVersions; ver++ {
		wantVersion(t, s, id, c, ver)
	}
}
