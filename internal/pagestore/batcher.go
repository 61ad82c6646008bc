package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrGroupCommit is the sentinel matched by errors.Is on any commit that
// failed because its batch's shared fsync failed. The concrete error is a
// *GroupCommitError carrying the batch id, the number of commits that
// shared the failed fsync, and the underlying backend error.
var ErrGroupCommit = errors.New("pagestore: group commit failed")

// ErrCommitterClosed reports a Commit issued after the batcher shut down.
var ErrCommitterClosed = errors.New("pagestore: group committer closed")

// GroupCommitError attributes a batch fsync failure to one waiting commit.
// Every waiter of the failed batch receives its own value wrapping the same
// cause, so each writer can log, retry, or surface the failure
// independently while operators can still correlate them by Batch.
type GroupCommitError struct {
	Batch uint64 // sequence number of the failed batch
	Size  int    // commits that shared the failed fsync
	Err   error  // the backend's Commit error
}

func (e *GroupCommitError) Error() string {
	return fmt.Sprintf("pagestore: group commit batch %d (%d commits): %v", e.Batch, e.Size, e.Err)
}

// Unwrap exposes the backend cause to errors.Is/As chains.
func (e *GroupCommitError) Unwrap() error { return e.Err }

// Is matches the ErrGroupCommit sentinel.
//
//txvet:ignore errcmp this IS the errors.Is hook; identity against the sentinel is its contract
func (e *GroupCommitError) Is(target error) bool { return target == ErrGroupCommit }

// GroupStats counts the batcher's amortization behaviour. Commits/Batches
// is the fsync amortization factor (txserved_commit_batch_* on /metrics).
type GroupStats struct {
	Commits  int64 // Commit calls routed through the batcher
	Batches  int64 // shared fsyncs issued (one per sealed batch)
	Failures int64 // batches whose shared fsync failed
	MaxBatch int64 // largest number of commits that shared one fsync
}

// GroupCommitter amortizes a durability barrier across concurrent
// committers. Callers' Commit calls collect under a condition variable for
// up to a configured window (or until maxBatch of them are waiting); a
// single flusher goroutine then seals the batch, runs the flush function
// exactly once outside the batcher's mutex, and wakes every waiter of that
// batch with the batch's outcome. A waiter therefore unblocks only after
// its batch's durability point, and a failed fsync is reported to every
// commit that depended on it — as a typed *GroupCommitError — while later
// batches proceed independently.
type GroupCommitter struct {
	flush    func() error
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64           // id of the batch currently forming (first batch is 1)
	done    uint64           // id of the newest flushed batch
	pending int              // commits waiting in the forming batch
	errs    map[uint64]error // flush error per batch, kept while waiters remain
	waiting map[uint64]int   // waiters still parked per batch
	closed  bool
	stats   GroupStats

	kick    chan struct{} // cuts the window short when the batch fills
	stopped chan struct{} // closed when the flusher goroutine exits
}

// NewGroupCommitter starts a batcher whose durability point is one call to
// flush per sealed batch. Window is the collection window followers get to
// join a leader's batch; maxBatch seals the batch early (≤0 means 64).
func NewGroupCommitter(flush func() error, window time.Duration, maxBatch int) *GroupCommitter {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	g := &GroupCommitter{
		flush:    flush,
		window:   window,
		maxBatch: maxBatch,
		seq:      1,
		errs:     make(map[uint64]error),
		waiting:  make(map[uint64]int),
		kick:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	go g.run()
	return g
}

// Commit joins the forming batch and blocks until that batch's flush has
// run. It returns nil when the shared fsync succeeded, a *GroupCommitError
// (matching ErrGroupCommit) when it failed, and ErrCommitterClosed when the
// batcher was already shut down.
func (g *GroupCommitter) Commit() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrCommitterClosed
	}
	id := g.seq
	g.pending++
	g.waiting[id]++
	g.stats.Commits++
	if g.pending == 1 {
		// Leader: wake the flusher to open the collection window.
		g.cond.Broadcast()
	}
	if g.pending >= g.maxBatch {
		// Batch is full: cut the window short.
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
	for g.done < id {
		g.cond.Wait()
	}
	err := g.errs[id]
	g.waiting[id]--
	if g.waiting[id] == 0 {
		delete(g.waiting, id)
		delete(g.errs, id)
	}
	g.mu.Unlock()
	return err
}

// run is the flusher: it waits for a batch to form, lets followers join for
// the window, seals the batch, flushes outside the mutex, and publishes the
// outcome to every waiter of the sealed batch.
func (g *GroupCommitter) run() {
	g.mu.Lock()
	for {
		for g.pending == 0 && !g.closed {
			g.cond.Wait()
		}
		if g.pending == 0 && g.closed {
			g.mu.Unlock()
			close(g.stopped)
			return
		}
		if g.window > 0 && g.pending < g.maxBatch && !g.closed {
			// Drain a stale kick from a batch that filled after its
			// window had already elapsed, then sleep the window. The
			// mutex is released so followers can join meanwhile.
			select {
			case <-g.kick:
			default:
			}
			g.mu.Unlock()
			t := time.NewTimer(g.window)
			select {
			case <-t.C:
			case <-g.kick:
				t.Stop()
			}
			g.mu.Lock()
		}
		batch := g.seq
		size := g.pending
		g.seq++
		g.pending = 0
		g.mu.Unlock()

		// The durability point: one flush for the whole batch, outside
		// the batcher mutex so the next batch can form meanwhile.
		err := g.flush()

		g.mu.Lock()
		g.done = batch
		g.stats.Batches++
		if int64(size) > g.stats.MaxBatch {
			g.stats.MaxBatch = int64(size)
		}
		if err != nil {
			g.stats.Failures++
			if g.waiting[batch] > 0 {
				g.errs[batch] = &GroupCommitError{Batch: batch, Size: size, Err: err}
			}
		}
		g.cond.Broadcast()
	}
}

// Close flushes any forming batch, stops the flusher, and fails all later
// Commit calls with ErrCommitterClosed. It is idempotent.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.stopped
		return
	}
	g.closed = true
	g.cond.Broadcast()
	select {
	case g.kick <- struct{}{}:
	default:
	}
	g.mu.Unlock()
	<-g.stopped
}

// Stats returns a snapshot of the amortization counters.
func (g *GroupCommitter) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
