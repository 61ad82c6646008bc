package vcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"txmldb/internal/model"
	"txmldb/internal/store"
	"txmldb/internal/xmltree"
)

// versionedStore builds a store holding one document with n versions; the
// text of version i is "v<i>".
func versionedStore(t testing.TB, n int, cfg store.Config) (*store.Store, model.DocID) {
	t.Helper()
	s := store.New(cfg)
	id, err := s.Put("doc", xmltree.Elem("doc", xmltree.ElemText("val", "v1")), model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		tree := xmltree.Elem("doc", xmltree.ElemText("val", fmt.Sprintf("v%d", i)))
		if _, _, err := s.Update(id, tree, model.Date(2001, 1, 1)+model.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s, id
}

func wantVersion(t *testing.T, s *store.Store, id model.DocID, c *Cache, ver model.VersionNo) store.VersionTree {
	t.Helper()
	got, err := c.Get(id, ver)
	if err != nil {
		t.Fatalf("Get(v%d): %v", ver, err)
	}
	want, err := s.ReconstructVersion(id, ver)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info != want.Info {
		t.Fatalf("Get(v%d) info = %+v, want %+v", ver, got.Info, want.Info)
	}
	if !xmltree.Equal(got.Root, want.Root) {
		t.Fatalf("Get(v%d) tree differs from store reconstruction", ver)
	}
	return got
}

func TestGetExactHit(t *testing.T) {
	s, id := versionedStore(t, 8, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})

	first := wantVersion(t, s, id, c, 3)
	second := wantVersion(t, s, id, c, 3)
	if first.Root == second.Root {
		t.Fatal("Get returned the same tree twice; callers must get private clones")
	}

	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 lookups / 1 hit / 1 miss", st)
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("hits+misses != lookups: %+v", st)
	}
	if st.Entries != 1 || st.ResidentBytes <= 0 {
		t.Fatalf("residency: %+v", st)
	}
}

// TestGetCallerMutationIsolated proves mutating a returned tree does not
// corrupt the resident entry.
func TestGetCallerMutationIsolated(t *testing.T) {
	s, id := versionedStore(t, 4, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})

	got, err := c.Get(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	got.Root.Children[0].Children[0].Value = "mangled"
	wantVersion(t, s, id, c, 2) // served from cache; must still match the store
}

// TestCachedTreesOwnTheirStrings: reconstructed trees point into the
// decoded snapshot and deltas, which the byte budget does not count. Both
// fill paths must cache a copy that shares none of their bytes.
func TestCachedTreesOwnTheirStrings(t *testing.T) {
	s, id := versionedStore(t, 6, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})

	got, err := c.Get(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	added, err := s.ReconstructVersion(id, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(id, added)
	for _, tc := range []struct {
		ver  model.VersionNo
		from *xmltree.Node
	}{{2, got.Root}, {4, added.Root}} {
		c.mu.Lock()
		el, ok := c.items[key{id, tc.ver}]
		c.mu.Unlock()
		if !ok {
			t.Fatalf("version %d not resident", tc.ver)
		}
		if n := sharedStrings(el.Value.(*entry).vt.Root, tc.from); n != 0 {
			t.Errorf("cached version %d shares %d strings with the reconstructed tree", tc.ver, n)
		}
	}
}

// sharedStrings counts the non-empty names, values and attribute strings
// of two equal trees that point at the same bytes.
func sharedStrings(a, b *xmltree.Node) int {
	same := func(x, y string) int {
		if x != "" && unsafe.StringData(x) == unsafe.StringData(y) {
			return 1
		}
		return 0
	}
	n := same(a.Name, b.Name) + same(a.Value, b.Value)
	for i := range a.Attrs {
		n += same(a.Attrs[i].Name, b.Attrs[i].Name) + same(a.Attrs[i].Value, b.Attrs[i].Value)
	}
	for i := range a.Children {
		n += sharedStrings(a.Children[i], b.Children[i])
	}
	return n
}

// missReads is the extent reads of one Get of version ver through c.
func missReads(t *testing.T, s *store.Store, id model.DocID, c *Cache, ver model.VersionNo) int64 {
	t.Helper()
	s.Pages().ResetStats()
	if _, err := c.Get(id, ver); err != nil {
		t.Fatalf("Get(v%d): %v", ver, err)
	}
	return s.Pages().Stats().ExtentRead
}

type missCase struct {
	ver   model.VersionNo
	reads int64
	why   string
}

// wantMissReads runs the cases in order through c and then checks that a
// repeat of each is a hit on a tree equal to the store's.
func wantMissReads(t *testing.T, s *store.Store, id model.DocID, c *Cache, cases []missCase) {
	t.Helper()
	for _, tc := range cases {
		if got := missReads(t, s, id, c, tc.ver); got != tc.reads {
			t.Fatalf("Get(v%d): %d extent reads, want %d (%s)", tc.ver, got, tc.reads, tc.why)
		}
	}
	hits := c.Stats().Hits
	for _, tc := range cases {
		wantVersion(t, s, id, c, tc.ver)
	}
	if st := c.Stats(); st.Hits != hits+int64(len(cases)) {
		t.Fatalf("expected the repeat Gets to hit, stats %+v", st)
	}
}

// TestNearestAncestorReplay: a miss hands the document's resident versions
// to the store's planner, which starts from the nearest one when it is the
// cheapest base, before or after the target.
func TestNearestAncestorReplay(t *testing.T) {
	s, id := versionedStore(t, 12, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})
	wantMissReads(t, s, id, c, []missCase{
		{3, 10, "nothing resident: back from the current version's snapshot"},
		{7, 4, "forward from resident v3"},
		{6, 1, "back from resident v7"},
		{10, 3, "the current snapshot (1 read, 2 deltas) beats resident v7 (3 deltas)"},
	})
}

// TestAncestorBeyondMaxReplayIgnored: a resident version farther from the
// target than a stored snapshot loses to the snapshot; once a nearer
// version is resident, it is the base.
func TestAncestorBeyondMaxReplayIgnored(t *testing.T) {
	s, id := versionedStore(t, 12, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})
	wantMissReads(t, s, id, c, []missCase{
		{1, 12, "nothing resident: back from the current version's snapshot"},
		{9, 4, "the current snapshot (1 read, 3 deltas) beats resident v1 (8 deltas)"},
		{10, 1, "forward from resident v9"},
	})
}

func TestEvictionUnderByteBudget(t *testing.T) {
	s, id := versionedStore(t, 6, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})

	// Measure one entry's size, then rebuild with room for about two.
	wantVersion(t, s, id, c, 1)
	one := c.Stats().ResidentBytes
	if one <= 0 {
		t.Fatal("no resident bytes after a fill")
	}

	c = New(s, Config{MaxBytes: 2*one + one/2})
	for v := model.VersionNo(1); v <= 6; v++ {
		wantVersion(t, s, id, c, v)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with budget %d and 6 fills: %+v", 2*one+one/2, st)
	}
	if st.ResidentBytes > 2*one+one/2 {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, 2*one+one/2)
	}
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", st.Entries)
	}
	// The most recent version must still be resident; the oldest must not.
	wantVersion(t, s, id, c, 6)
	if got := c.Stats(); got.Hits != st.Hits+1 {
		t.Fatalf("Get(v6) after fills should hit: %+v", got)
	}
}

func TestOversizeEntryNotCached(t *testing.T) {
	s, id := versionedStore(t, 2, store.Config{})
	c := New(s, Config{MaxBytes: 1}) // withDefaults lifts the budget to 1 MiB
	c.cfg.MaxBytes = 8               // ...so force a tiny budget directly
	wantVersion(t, s, id, c, 1)
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("oversize tree was cached: %+v", st)
	}
}

func TestAddFillsAndRefreshes(t *testing.T) {
	s, id := versionedStore(t, 4, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})

	vt, err := s.ReconstructVersion(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(id, vt)
	// The cache must have cloned: mutating the caller's tree afterwards
	// must not be visible through Get.
	vt.Root.Children[0].Children[0].Value = "mangled"
	wantVersion(t, s, id, c, 2)

	st := c.Stats()
	if st.Fills != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 fill / 1 hit", st)
	}
	c.Add(id, vt) // already resident: recency refresh only
	if st := c.Stats(); st.Fills != 1 || st.Entries != 1 {
		t.Fatalf("re-Add changed residency: %+v", st)
	}
}

func TestInvalidateDocDropsEntriesAndRefreshesMetadata(t *testing.T) {
	s, id := versionedStore(t, 3, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})

	got := wantVersion(t, s, id, c, 3)
	if got.Info.End != model.Forever {
		t.Fatalf("current version End = %v, want Forever", got.Info.End)
	}

	// A fourth version ends version 3's validity interval.
	t4 := model.Date(2001, 2, 1)
	if _, _, err := s.Update(id, xmltree.Elem("doc", xmltree.ElemText("val", "v4")), t4); err != nil {
		t.Fatal(err)
	}
	c.InvalidateDoc(id)

	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("after invalidation: %+v", st)
	}
	got = wantVersion(t, s, id, c, 3)
	if got.Info.End != t4 {
		t.Fatalf("v3 End after update = %v, want %v (stale metadata served)", got.Info.End, t4)
	}
}

func TestPurge(t *testing.T) {
	s, id := versionedStore(t, 4, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})
	for v := model.VersionNo(1); v <= 4; v++ {
		wantVersion(t, s, id, c, v)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("after purge: %+v", st)
	}
	wantVersion(t, s, id, c, 4) // still works, as a miss
}

// blockingSource serves synthetic versions and can hold reconstructions
// open so tests control interleavings.
type blockingSource struct {
	release chan struct{} // closed to let reconstructions finish
	started chan struct{} // one send per reconstruction begun
	calls   atomic.Int64
}

func (b *blockingSource) tree(ver model.VersionNo) store.VersionTree {
	return store.VersionTree{
		Info: store.VersionInfo{Ver: ver, Stamp: model.Time(ver), End: model.Forever},
		Root: xmltree.Elem("doc", xmltree.ElemText("val", fmt.Sprintf("v%d", ver))),
	}
}

func (b *blockingSource) ReconstructWith(ctx context.Context, doc model.DocID, ver model.VersionNo, _ store.Resident) (store.VersionTree, error) {
	b.calls.Add(1)
	if b.started != nil {
		b.started <- struct{}{}
	}
	if b.release != nil {
		<-b.release
	}
	return b.tree(ver), nil
}

func TestSingleflightCollapse(t *testing.T) {
	src := &blockingSource{release: make(chan struct{}), started: make(chan struct{}, 16)}
	c := New(src, Config{MaxBytes: 1 << 20})

	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vt, err := c.Get(1, 5)
			if err == nil && vt.Root.Text() != "v5" {
				err = fmt.Errorf("got %q", vt.Root.Text())
			}
			errs[i] = err
		}(i)
	}

	<-src.started // the leader is inside the source...
	// ...wait for everyone else to attach to its flight, then release.
	for {
		if st := c.Stats(); st.CollapsedFlights == waiters-1 {
			break
		}
	}
	close(src.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if n := src.calls.Load(); n != 1 {
		t.Fatalf("source called %d times, want 1", n)
	}
	st := c.Stats()
	if st.Lookups != waiters || st.Hits != 0 || st.Misses != waiters {
		t.Fatalf("stats = %+v", st)
	}
	if st.CollapsedFlights != waiters-1 {
		t.Fatalf("CollapsedFlights = %d, want %d", st.CollapsedFlights, waiters-1)
	}
}

// TestInvalidationDuringFlight proves a reconstruction that races a write
// still returns (snapshot semantics: the read began first) but does not
// install its possibly-stale result.
func TestInvalidationDuringFlight(t *testing.T) {
	src := &blockingSource{release: make(chan struct{}), started: make(chan struct{}, 1)}
	c := New(src, Config{MaxBytes: 1 << 20})

	done := make(chan error)
	go func() {
		vt, err := c.Get(1, 2)
		if err == nil && vt.Root.Text() != "v2" {
			err = fmt.Errorf("got %q", vt.Root.Text())
		}
		done <- err
	}()

	<-src.started
	c.InvalidateDoc(1) // write lands while the flight is in the source
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("flight racing an invalidation installed its entry: %+v", st)
	}
}

func TestGetErrorPropagates(t *testing.T) {
	s, id := versionedStore(t, 3, store.Config{})
	c := New(s, Config{MaxBytes: 1 << 20})
	if _, err := c.Get(id, 99); err == nil {
		t.Fatal("Get of a nonexistent version succeeded")
	}
	if _, err := c.Get(id+100, 1); err == nil {
		t.Fatal("Get of a nonexistent document succeeded")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("errors must not leave entries behind: %+v", st)
	}
}
