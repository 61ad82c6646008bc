package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"txmldb/internal/model"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

func cachedDB() *DB {
	return Open(Config{Cache: vcache.Config{MaxBytes: 8 << 20}})
}

func docV(n int) *xmltree.Node {
	return xmltree.Elem("doc", xmltree.ElemText("val", fmt.Sprintf("s%d", n)))
}

// TestCacheDisabledByDefault: a zero Config must not construct a cache, so
// operator-level measurements stay comparable with earlier baselines.
func TestCacheDisabledByDefault(t *testing.T) {
	db := Open(Config{})
	if _, ok := db.CacheStats(); ok {
		t.Fatal("zero Config enabled the version cache")
	}
	// And the cached paths still work without one.
	id, err := db.Put("d", docV(1), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReconstructVersion(id, 1); err != nil {
		t.Fatal(err)
	}
	db.PurgeCache() // no-op, must not panic
}

// TestCacheInvalidationOnUpdate is the acceptance test for write
// correctness: after Update returns, no read may observe the pre-update
// state — neither stale current content nor a stale Forever end stamp on
// the superseded version.
func TestCacheInvalidationOnUpdate(t *testing.T) {
	db := cachedDB()
	id, err := db.Put("d", docV(1), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 30; n++ {
		cur := model.VersionNo(n - 1)
		if _, err := db.ReconstructVersion(id, cur); err != nil { // warm the cache
			t.Fatal(err)
		}
		stamp := model.Date(2001, 1, 1) + model.Time(n)
		if _, _, err := db.Update(id, docV(n), stamp); err != nil {
			t.Fatal(err)
		}
		// The new version is visible with the new content...
		vt, err := db.ReconstructVersion(id, model.VersionNo(n))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := vt.Root.Text(), fmt.Sprintf("s%d", n); got != want {
			t.Fatalf("after update to v%d: content %q, want %q", n, got, want)
		}
		if vt.Info.End != model.Forever {
			t.Fatalf("new current v%d has End %v", n, vt.Info.End)
		}
		// ...and the superseded version no longer reads as current even
		// though it was resident in the cache before the write.
		prev, err := db.ReconstructVersion(id, cur)
		if err != nil {
			t.Fatal(err)
		}
		if prev.Info.End != stamp {
			t.Fatalf("superseded v%d End = %v, want %v", cur, prev.Info.End, stamp)
		}
		if got, want := prev.Root.Text(), fmt.Sprintf("s%d", n-1); got != want {
			t.Fatalf("v%d content changed to %q", cur, got)
		}
	}
	st, ok := db.CacheStats()
	if !ok {
		t.Fatal("cache not enabled")
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("updates never invalidated: %+v", st)
	}
}

func TestCacheInvalidationOnDelete(t *testing.T) {
	db := cachedDB()
	id, err := db.Put("d", docV(1), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReconstructVersion(id, 1); err != nil {
		t.Fatal(err)
	}
	del := model.Date(2001, 3, 1)
	if err := db.Delete(id, del); err != nil {
		t.Fatal(err)
	}
	vt, err := db.ReconstructVersion(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Info.End != del {
		t.Fatalf("deleted doc's last version End = %v, want %v", vt.Info.End, del)
	}
}

// TestCacheWarmHitReadsNoExtents: once a historical version is cached,
// reconstructing it again is one exact vcache hit and touches no extent —
// the cache absorbs the delta replay itself, not just the page reads.
func TestCacheWarmHitReadsNoExtents(t *testing.T) {
	db := cachedDB()
	id, err := db.Put("d", docV(1), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 20; n++ {
		if _, _, err := db.Update(id, docV(n), model.Date(2001, 1, 1)+model.Time(n)); err != nil {
			t.Fatal(err)
		}
	}
	const target = model.VersionNo(4)
	db.Store().Pages().ResetStats()
	if _, err := db.ReconstructVersion(id, target); err != nil {
		t.Fatal(err)
	}
	if cold := db.IOStats().ExtentRead; cold == 0 {
		t.Fatal("cold reconstruction read no extents; the warm check below would prove nothing")
	}
	before, _ := db.CacheStats()
	db.Store().Pages().ResetStats()
	vt, err := db.ReconstructVersion(id, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := vt.Root.Text(); got != "s4" {
		t.Fatalf("warm v%d content = %q, want s4", target, got)
	}
	if reads := db.IOStats().ExtentRead; reads != 0 {
		t.Errorf("warm reconstruction read %d extents, want 0", reads)
	}
	after, _ := db.CacheStats()
	if hits := after.Hits - before.Hits; hits != 1 {
		t.Errorf("warm reconstruction: %d vcache hits, want 1", hits)
	}
}

// TestCacheConcurrentQueriesWithWriter drives the full DB under -race:
// one writer appending versions through db.Update (which invalidates),
// readers reconstructing random versions through the cache.
func TestCacheConcurrentQueriesWithWriter(t *testing.T) {
	db := cachedDB()
	id, err := db.Put("d", docV(1), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const (
		extra   = 30
		readers = 6
		reads   = 200
	)
	var high atomic.Int64
	high.Store(1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 2; n <= extra; n++ {
			if _, _, err := db.Update(id, docV(n), model.Date(2001, 1, 1)+model.Time(n)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			high.Store(int64(n))
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reads; i++ {
				ver := 1 + rng.Int63n(high.Load())
				vt, err := db.ReconstructVersion(id, model.VersionNo(ver))
				if err != nil {
					t.Errorf("reconstruct v%d: %v", ver, err)
					return
				}
				if got, want := vt.Root.Text(), fmt.Sprintf("s%d", ver); got != want {
					t.Errorf("v%d content = %q, want %q", ver, got, want)
					return
				}
			}
		}(int64(r) + 99)
	}
	wg.Wait()

	st, _ := db.CacheStats()
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}
