package pagestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustWrite is the test shorthand for a one-extent batch that must commit
// (the in-memory backend only fails through the fault injector).
func mustWrite(t testing.TB, s *Store, group int, data []byte) Ref {
	t.Helper()
	b := s.Begin()
	ref := b.Write(group, data)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// mustFree commits and releases a batch freeing ref.
func mustFree(t testing.TB, s *Store, ref Ref) {
	t.Helper()
	b := s.Begin()
	b.Free(ref)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := New(Config{PageSize: 128})
	payload := []byte("hello, paged world")
	ref := mustWrite(t, s, 1, payload)
	got, err := s.Read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
	if ref.Pages != 1 || ref.Len != int32(len(payload)) {
		t.Fatalf("ref = %+v", ref)
	}
}

func TestMultiPageExtent(t *testing.T) {
	s := New(Config{PageSize: 16})
	payload := make([]byte, 100) // 7 pages at 16 bytes
	for i := range payload {
		payload[i] = byte(i)
	}
	ref := mustWrite(t, s, 1, payload)
	if ref.Pages != 7 {
		t.Fatalf("pages = %d, want 7", ref.Pages)
	}
	got, err := s.Read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	st := s.Stats()
	if st.PageReads != 7 || st.PageWrites != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyPayloadOccupiesOnePage(t *testing.T) {
	s := New(Config{})
	ref := mustWrite(t, s, 1, nil)
	if ref.Pages != 1 {
		t.Fatalf("empty payload pages = %d", ref.Pages)
	}
	got, err := s.Read(ref)
	if err != nil || len(got) != 0 {
		t.Fatalf("read empty = %v, %v", got, err)
	}
}

func TestSeekAccounting(t *testing.T) {
	s := New(Config{PageSize: 64})
	a := mustWrite(t, s, 1, make([]byte, 64))
	b := mustWrite(t, s, 1, make([]byte, 64)) // contiguous with a in unclustered append
	c := mustWrite(t, s, 1, make([]byte, 64))
	// Sequential read a,b,c: one seek (initial) only.
	for _, r := range []Ref{a, b, c} {
		if _, err := s.Read(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Seeks != 1 {
		t.Fatalf("sequential chain: seeks = %d, want 1", st.Seeks)
	}
	s.ResetStats()
	// Read out of order: every read seeks.
	for _, r := range []Ref{c, a, b} {
		if _, err := s.Read(r); err != nil {
			t.Fatal(err)
		}
	}
	// c seeks, a seeks, b continues after a → 2 seeks.
	if st := s.Stats(); st.Seeks != 2 {
		t.Fatalf("random order: seeks = %d, want 2", st.Seeks)
	}
}

func TestNearDistanceSuppressesShortStrokes(t *testing.T) {
	s := New(Config{PageSize: 64, NearDistance: 4})
	a := mustWrite(t, s, 1, make([]byte, 64)) // page 0
	b := mustWrite(t, s, 1, make([]byte, 64)) // page 1
	c := mustWrite(t, s, 1, make([]byte, 64)) // page 2
	// Backward read of a tight cluster: short strokes, only the initial
	// positioning counts.
	for _, r := range []Ref{c, b, a} {
		if _, err := s.Read(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Seeks != 1 {
		t.Fatalf("backward near reads: seeks = %d, want 1", st.Seeks)
	}
	// A far jump still seeks.
	far := mustWrite(t, s, 1, make([]byte, 64))
	for i := 0; i < 10; i++ {
		mustWrite(t, s, 2, make([]byte, 64))
	}
	far2 := mustWrite(t, s, 1, make([]byte, 64))
	s.ResetStats()
	if _, err := s.Read(far); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(far2); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Seeks != 2 {
		t.Fatalf("far jumps: seeks = %d, want 2", st.Seeks)
	}
}

func TestClusteredPlacementReducesSeeks(t *testing.T) {
	run := func(p Placement) int64 {
		s := New(Config{PageSize: 64, Placement: p, ArenaChunk: 32})
		const docs, deltas = 8, 16
		refs := make([][]Ref, docs)
		// Interleave writes across documents, like a warehouse ingesting
		// crawled updates.
		for d := 0; d < deltas; d++ {
			for doc := 0; doc < docs; doc++ {
				refs[doc] = append(refs[doc], mustWrite(t, s, doc, make([]byte, 64)))
			}
		}
		s.ResetStats()
		// Read one document's chain (a DocHistory access pattern).
		for _, r := range refs[3] {
			if _, err := s.Read(r); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats().Seeks
	}
	unclustered := run(Unclustered)
	clustered := run(Clustered)
	if unclustered != 16 {
		t.Errorf("unclustered chain read: seeks = %d, want 16 (one per delta)", unclustered)
	}
	if clustered >= unclustered {
		t.Errorf("clustered (%d seeks) should beat unclustered (%d seeks)", clustered, unclustered)
	}
}

func TestBufferPool(t *testing.T) {
	s := New(Config{PageSize: 64, BufferPages: 2})
	a := mustWrite(t, s, 1, []byte("aa"))
	b := mustWrite(t, s, 1, []byte("bb"))
	c := mustWrite(t, s, 1, []byte("cc"))
	readAll := func(refs ...Ref) {
		for _, r := range refs {
			if _, err := s.Read(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll(a, a, a)
	if st := s.Stats(); st.CacheHits != 2 || st.ExtentRead != 1 {
		t.Fatalf("repeat read: %+v", st)
	}
	s.ResetStats()
	readAll(b, c, a) // capacity 2: a was evicted by b,c
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("eviction expected, stats %+v", st)
	}
	s.DropCache()
	s.ResetStats()
	readAll(b)
	if st := s.Stats(); st.CacheHits != 0 || st.ExtentRead != 1 {
		t.Fatalf("DropCache did not drop: %+v", st)
	}
}

func TestCacheSkipsOversizedExtent(t *testing.T) {
	s := New(Config{PageSize: 16, BufferPages: 2})
	big := mustWrite(t, s, 1, make([]byte, 100)) // 7 pages > capacity 2
	if _, err := s.Read(big); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(big); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("oversized extent should not be cached: %+v", st)
	}
}

func TestFree(t *testing.T) {
	s := New(Config{BufferPages: 4})
	ref := mustWrite(t, s, 1, []byte("x"))
	if _, err := s.Read(ref); err != nil {
		t.Fatal(err)
	}
	b := s.Begin()
	b.Free(ref)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed but not released: readers of the previous table still
	// see the extent.
	if _, err := s.Read(ref); err != nil {
		t.Fatalf("read after commit, before Release: %v", err)
	}
	b.Release()
	if _, err := s.Read(ref); err == nil {
		t.Fatal("read after Release should fail")
	}
}

func TestReadUnknownExtent(t *testing.T) {
	s := New(Config{})
	if _, err := s.Read(Ref{Start: 99, Pages: 1}); err == nil {
		t.Fatal("expected error for unknown extent")
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := IOStats{PageReads: 10, PageWrites: 5, Seeks: 2, CacheHits: 1, ExtentRead: 3}
	b := IOStats{PageReads: 1, PageWrites: 1, Seeks: 1, CacheHits: 1, ExtentRead: 1}
	sum := a.Add(b)
	if sum.PageReads != 11 || sum.Seeks != 3 {
		t.Fatalf("Add = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub = %+v, want %+v", diff, a)
	}
	if a.CostMs() <= 0 {
		t.Fatal("CostMs should be positive")
	}
	if s := a.String(); s == "" {
		t.Fatal("String empty")
	}
}

func TestPagesUsedAndBytesStored(t *testing.T) {
	s := New(Config{PageSize: 64})
	mustWrite(t, s, 1, make([]byte, 65)) // 2 pages
	mustWrite(t, s, 2, make([]byte, 10)) // 1 page
	if got := s.PagesUsed(); got != 3 {
		t.Fatalf("PagesUsed = %d, want 3", got)
	}
	if got := s.BytesStored(); got != 75 {
		t.Fatalf("BytesStored = %d, want 75", got)
	}
}

func TestPlacementString(t *testing.T) {
	if Unclustered.String() != "unclustered" || Clustered.String() != "clustered" {
		t.Error("Placement.String broken")
	}
	if Placement(7).String() != "Placement(7)" {
		t.Error("unknown placement formatting broken")
	}
}

// TestPropertyRoundTrip stores random payloads and reads them back.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(Config{PageSize: 32, BufferPages: 8,
			Placement: Placement(r.Intn(2))})
		type pair struct {
			ref  Ref
			data []byte
		}
		var pairs []pair
		for i := 0; i < 50; i++ {
			data := make([]byte, r.Intn(200))
			r.Read(data)
			pairs = append(pairs, pair{mustWrite(t, s, r.Intn(4), data), data})
		}
		for _, p := range pairs {
			got, err := s.Read(p.ref)
			if err != nil || !bytes.Equal(got, p.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(Config{PageSize: 64, BufferPages: 16})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 200; i++ {
				data := []byte(fmt.Sprintf("g%d-i%d", g, i))
				ref := mustWrite(t, s, g, data)
				var got []byte
				got, err = s.Read(ref)
				if err != nil || !bytes.Equal(got, data) {
					err = fmt.Errorf("goroutine %d iter %d: got %q err %v", g, i, got, err)
					break
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
