package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend decorates a backend and counts Commit calls, optionally
// failing scripted ones before the inner backend sees them.
type countingBackend struct {
	Backend
	commits atomic.Int64
	failSet sync.Map // commit ordinal (1-based) -> struct{}
}

func (c *countingBackend) Commit(b *Batch) error {
	n := c.commits.Add(1)
	if _, fail := c.failSet.Load(n); fail {
		return fmt.Errorf("scripted fsync failure at commit %d", n)
	}
	return c.Backend.Commit(b)
}

func TestGroupCommitAmortizesSyncs(t *testing.T) {
	cb := &countingBackend{Backend: NewMemory()}
	s := New(Config{Backend: cb, GroupWindow: 2 * time.Millisecond, GroupMaxBatch: 64})
	defer s.Close()

	const writers = 8
	const commitsPer = 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commitsPer; i++ {
				b := s.Begin()
				b.Write(w, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err := b.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	st, ok := s.GroupStats()
	if !ok {
		t.Fatal("GroupStats: batching not enabled despite GroupWindow > 0")
	}
	total := int64(writers * commitsPer)
	if st.Commits != total {
		t.Fatalf("stats.Commits = %d, want %d", st.Commits, total)
	}
	if st.Batches != cb.commits.Load() {
		t.Fatalf("stats.Batches = %d but backend saw %d Commit calls", st.Batches, cb.commits.Load())
	}
	// The whole point: concurrent commits share fsyncs. With 8 writers in a
	// 2 ms window the batcher must do strictly better than one fsync per
	// commit; require at least 2x amortization to keep the bound robust.
	if st.Batches*2 > total {
		t.Fatalf("no amortization: %d commits used %d fsyncs", total, st.Batches)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d, want >= 2", st.MaxBatch)
	}
}

func TestGroupCommitMaxBatchSealsEarly(t *testing.T) {
	var flushes atomic.Int64
	release := make(chan struct{})
	g := NewGroupCommitter(func(*Batch) error {
		flushes.Add(1)
		return nil
	}, time.Hour, 4) // window effectively infinite: only maxBatch can seal
	defer g.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			if err := g.Commit(&Batch{}); err != nil {
				t.Errorf("Commit: %v", err)
			}
		}()
	}
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("commits did not seal via maxBatch; stuck behind the 1h window")
	}
	if n := flushes.Load(); n < 1 || n > 4 {
		t.Fatalf("flushes = %d, want between 1 and 4", n)
	}
}

func TestGroupCommitFailureFansOutTypedErrors(t *testing.T) {
	fail := atomic.Bool{}
	fail.Store(true)
	g := NewGroupCommitter(func(*Batch) error {
		if fail.Load() {
			return fmt.Errorf("disk on fire")
		}
		return nil
	}, 5*time.Millisecond, 64)
	defer g.Close()

	const waiters = 6
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = g.Commit(&Batch{})
		}(i)
	}
	wg.Wait()

	var batches []uint64
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d: commit in a failed-fsync batch returned nil", i)
		}
		if !errors.Is(err, ErrGroupCommit) {
			t.Fatalf("waiter %d: error %v does not match ErrGroupCommit", i, err)
		}
		var gce *GroupCommitError
		if !errors.As(err, &gce) {
			t.Fatalf("waiter %d: error %v is not a *GroupCommitError", i, err)
		}
		if gce.Size < 1 || gce.Size > waiters {
			t.Fatalf("waiter %d: batch size %d out of range", i, gce.Size)
		}
		batches = append(batches, gce.Batch)
	}
	// Later batches are independent of the failed one.
	fail.Store(false)
	if err := g.Commit(&Batch{}); err != nil {
		t.Fatalf("commit after failed batch: %v", err)
	}
	_ = batches
	st := g.Stats()
	if st.Failures < 1 {
		t.Fatalf("stats.Failures = %d, want >= 1", st.Failures)
	}
}

func TestGroupCommitStoreFsyncFailureKeepsLaterBatchesWorking(t *testing.T) {
	cb := &countingBackend{Backend: NewMemory()}
	cb.failSet.Store(int64(1), struct{}{}) // first shared fsync fails
	s := New(Config{Backend: cb, GroupWindow: time.Millisecond})
	defer s.Close()

	err := s.Begin().Commit()
	if err == nil || !errors.Is(err, ErrGroupCommit) {
		t.Fatalf("first commit: got %v, want ErrGroupCommit", err)
	}
	if err := s.Begin().Commit(); err != nil {
		t.Fatalf("second commit after failed batch: %v", err)
	}
}

func TestGroupCommitCloseDrainsAndRejectsLater(t *testing.T) {
	var flushes atomic.Int64
	slow := make(chan struct{})
	g := NewGroupCommitter(func(*Batch) error {
		<-slow
		flushes.Add(1)
		return nil
	}, time.Millisecond, 64)

	var commitErr error
	done := make(chan struct{})
	go func() {
		commitErr = g.Commit(&Batch{})
		close(done)
	}()
	// Let the commit join a batch, then close concurrently with the flush.
	time.Sleep(5 * time.Millisecond)
	go close(slow)
	g.Close()
	<-done
	if commitErr != nil {
		t.Fatalf("in-flight commit across Close: %v", commitErr)
	}
	if flushes.Load() != 1 {
		t.Fatalf("flushes = %d, want 1", flushes.Load())
	}
	if err := g.Commit(&Batch{}); !errors.Is(err, ErrCommitterClosed) {
		t.Fatalf("commit after close: got %v, want ErrCommitterClosed", err)
	}
	g.Close() // idempotent
}

func TestGroupCommitRaceStress(t *testing.T) {
	var n atomic.Int64
	g := NewGroupCommitter(func(*Batch) error {
		if n.Add(1)%7 == 0 {
			return fmt.Errorf("periodic failure")
		}
		return nil
	}, 500*time.Microsecond, 8)
	defer g.Close()

	var wg sync.WaitGroup
	var okCount, failCount atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch err := g.Commit(&Batch{}); {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, ErrGroupCommit):
					failCount.Add(1)
				default:
					t.Errorf("unexpected commit error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := okCount.Load() + failCount.Load(); got != 16*50 {
		t.Fatalf("accounted commits = %d, want %d", got, 16*50)
	}
	st := g.Stats()
	if st.Commits != 16*50 {
		t.Fatalf("stats.Commits = %d, want %d", st.Commits, 16*50)
	}
}
