package vcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/store"
)

// Satellite coverage for the cache under storage faults: a failed or
// corrupt reconstruction must never be installed, and singleflight must
// propagate — not cache — the error to every collapsed waiter.

// faultStore builds a store with an injected backend: one document, n
// versions, no snapshot interspersal (so historical reconstructions must
// walk deltas) and retries disabled (so a single injected fault is a
// final answer, keeping operation counts stable).
func faultStore(t testing.TB, n int) (*store.Store, *pagestore.Injector, model.DocID) {
	t.Helper()
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	s := store.New(store.Config{
		Pages:       pagestore.Config{Backend: inj},
		ReadRetries: -1,
	})
	id, err := s.Put("doc", testTree(1).Root, model.Date(2001, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= n; v++ {
		if _, _, err := s.Update(id, testTree(model.VersionNo(v)).Root, model.Date(2001, 1, v)); err != nil {
			t.Fatal(err)
		}
	}
	return s, inj, id
}

func testTree(ver model.VersionNo) store.VersionTree {
	b := &blockingSource{}
	return b.tree(ver)
}

func TestFailedReconstructionNotCached(t *testing.T) {
	s, inj, id := faultStore(t, 4)
	c := New(s, Config{MaxBytes: 1 << 20})

	// Every backend read fails transiently; with retries disabled the
	// reconstruction of the historical version fails outright.
	inj.SetOutage(true)
	if _, err := c.Get(id, 2); err == nil {
		t.Fatal("Get during outage should fail")
	}
	st := c.Stats()
	if st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("failed reconstruction was cached: %+v", st)
	}

	// After the fault heals, the same lookup succeeds — the error was not
	// remembered anywhere.
	inj.SetOutage(false)
	vt, err := c.Get(id, 2)
	if err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if got := vt.Root.Text(); got != "v2" {
		t.Fatalf("Get after heal = %q, want v2", got)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("healed reconstruction not cached: %+v", st)
	}
}

func TestCorruptReconstructionNotCached(t *testing.T) {
	s, inj, id := faultStore(t, 4)
	c := New(s, Config{MaxBytes: 1 << 20})

	// Flip a bit in the delta chain below version 2: its reconstruction
	// becomes unreachable (no interspersed snapshots to route around the
	// damage), and nothing may be installed.
	vers, err := s.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.CorruptExtent(vers[1].DeltaToNext.Start); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(id, 2); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("Get of corrupt version = %v, want ErrUnreachable", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("corrupt reconstruction was cached: %+v", st)
	}

	// The current version's snapshot is intact; caching it still works.
	if _, err := c.Get(id, 4); err != nil {
		t.Fatalf("Get of intact version: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("intact reconstruction not cached: %+v", st)
	}
}

// erroringSource fails reconstructions while failing is set, counting
// calls, and can hold them open like blockingSource.
type erroringSource struct {
	blockingSource
	failing atomic.Bool
	errs    atomic.Int64
}

var errSourceDown = fmt.Errorf("source down")

func (e *erroringSource) ReconstructWith(ctx context.Context, doc model.DocID, ver model.VersionNo, res store.Resident) (store.VersionTree, error) {
	vt, err := e.blockingSource.ReconstructWith(ctx, doc, ver, res)
	if e.failing.Load() {
		e.errs.Add(1)
		return store.VersionTree{}, errSourceDown
	}
	return vt, err
}

func TestSingleflightPropagatesErrorToAllWaiters(t *testing.T) {
	src := &erroringSource{blockingSource: blockingSource{
		release: make(chan struct{}),
		started: make(chan struct{}, 1),
	}}
	src.failing.Store(true)
	c := New(src, Config{MaxBytes: 1 << 20})

	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		_, errs[0] = c.Get(1, 5)
	}()
	<-src.started // leader is inside the source; the rest must collapse
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Get(1, 5)
		}(i)
	}
	waitForCollapsed(t, c, waiters-1)
	close(src.release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, errSourceDown) {
			t.Fatalf("waiter %d got %v, want errSourceDown", i, err)
		}
	}
	if got := src.calls.Load(); got != 1 {
		t.Fatalf("source called %d times, want 1 (singleflight)", got)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error flight left a cache entry: %+v", st)
	}

	// The error must not be cached: the next Get re-asks the source, which
	// has recovered.
	src.failing.Store(false)
	src.release = nil
	src.started = nil
	vt, err := c.Get(1, 5)
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got := vt.Root.Text(); got != "v5" {
		t.Fatalf("Get after recovery = %q, want v5", got)
	}
	if got := src.calls.Load(); got != 2 {
		t.Fatalf("source called %d times after recovery, want 2", got)
	}
}

func TestGetContextWaiterCancellation(t *testing.T) {
	src := &blockingSource{release: make(chan struct{}), started: make(chan struct{}, 1)}
	c := New(src, Config{MaxBytes: 1 << 20})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader, never canceled
		defer wg.Done()
		if _, err := c.Get(1, 3); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-src.started

	// A waiter with a canceled context stops waiting immediately even
	// though the flight is still open.
	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := c.GetContext(ctx, 1, 3)
		waited <- err
	}()
	waitForCollapsed(t, c, 1)
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	close(src.release)
	wg.Wait()
	// The leader's result was still installed for future hits.
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats after flight = %+v, want 1 entry", st)
	}
}

// waitForCollapsed polls until n Gets have collapsed onto open flights
// (the only observable signal that the waiters are parked).
func waitForCollapsed(t *testing.T, c *Cache, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().CollapsedFlights >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %d collapsed flights (have %d)", n, c.Stats().CollapsedFlights)
}
