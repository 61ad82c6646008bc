package pagestore

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrGroupCommit is the sentinel matched by errors.Is on any commit that
// failed because its group's shared backend Commit failed. The concrete
// error is a *GroupCommitError carrying the group id, the number of batches
// that shared the failed Commit, and the underlying backend error.
var ErrGroupCommit = errors.New("pagestore: group commit failed")

// ErrCommitterClosed reports a Commit issued after the committer shut down.
var ErrCommitterClosed = errors.New("pagestore: group committer closed")

// GroupCommitError attributes a group's failed backend Commit to one
// waiting committer. Every waiter of the failed group receives its own
// value wrapping the same cause, so each writer can log, retry, or surface
// the failure independently while operators can still correlate them by
// Batch.
type GroupCommitError struct {
	Batch uint64 // sequence number of the failed group
	Size  int    // batches that shared the failed Commit
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

// GroupStats counts the group committer's amortization behaviour.
// Commits/Batches is the fsync amortization factor
// (txserved_commit_batch_* on /metrics).
type GroupStats struct {
	Commits  int64 // batches committed through the group committer
	Batches  int64 // backend Commits issued (one per group)
	Failures int64 // groups whose backend Commit failed
	MaxBatch int64 // largest number of batches that shared one Commit
}

// GroupCommitter is the only commit path of a Store: it amortizes the
// backend's durability barrier across concurrent committers by
// leader/follower group commit, with no goroutine of its own. A committer
// queues its batch; the first one to find no flush in flight becomes the
// leader, waits out the collection window (cut short when maxBatch
// batches are queued), takes every queued batch and commits them as one
// group with a single backend Commit, outside the committer's mutex.
// Batches that queue meanwhile form the next group, led by one of their
// own committers once the flush is done. Every committer wakes with its
// group's outcome: a failed Commit is reported to every batch of the
// group — as a typed *GroupCommitError — while later groups proceed
// independently.
type GroupCommitter struct {
	flush    func(*Batch) error
	window   time.Duration
	maxBatch int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Batch         // the forming group
	seq      uint64           // id of the forming group (first group is 1)
	done     uint64           // id of the newest flushed group
	flushing bool             // a leader owns the forming group
	errs     map[uint64]error // flush error per group, kept while waiters remain
	waiting  map[uint64]int   // waiters still parked per group
	closed   bool
	stats    GroupStats
}

// NewGroupCommitter returns a committer whose durability point is one call
// to flush per group. Window is the collection window followers get to
// join a leader's group (zero: flush at once); maxBatch seals the group
// early (≤0 means 64).
func NewGroupCommitter(flush func(*Batch) error, window time.Duration, maxBatch int) *GroupCommitter {
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
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Commit queues b in the forming group and blocks until that group's
// flush has run, leading the flush itself when no other committer does.
// It returns nil when the group committed, a *GroupCommitError (matching
// ErrGroupCommit) when its flush failed, and ErrCommitterClosed when the
// committer was already shut down.
func (g *GroupCommitter) Commit(b *Batch) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrCommitterClosed
	}
	id := g.seq
	g.queue = append(g.queue, b)
	g.waiting[id]++
	g.stats.Commits++
	if len(g.queue) >= g.maxBatch {
		// A leader waiting out its window: the group is full.
		g.cond.Broadcast()
	}
	for g.done < id {
		if !g.flushing {
			g.lead()
			continue
		}
		g.cond.Wait()
	}
	err := g.errs[id]
	g.waiting[id]--
	if g.waiting[id] == 0 {
		delete(g.waiting, id)
		delete(g.errs, id)
	}
	return err
}

// lead seals and flushes the forming group. It is called with g.mu held
// and returns with it held; the mutex is released for the window and the
// flush, so followers can queue meanwhile.
func (g *GroupCommitter) lead() {
	g.flushing = true
	if g.window > 0 && len(g.queue) < g.maxBatch && !g.closed {
		expired := false
		t := time.AfterFunc(g.window, func() {
			g.mu.Lock()
			expired = true
			g.cond.Broadcast()
			g.mu.Unlock()
		})
		for !expired && len(g.queue) < g.maxBatch && !g.closed {
			g.cond.Wait()
		}
		t.Stop()
	}
	id, group := g.seq, g.queue
	g.seq++
	g.queue = nil
	g.mu.Unlock()

	// The durability point: one flush for the whole group, outside the
	// committer mutex so the next group can form meanwhile.
	err := g.flush(joinBatches(group))

	g.mu.Lock()
	g.done = id
	g.flushing = false
	g.stats.Batches++
	if n := int64(len(group)); n > g.stats.MaxBatch {
		g.stats.MaxBatch = n
	}
	if err != nil {
		g.stats.Failures++
		g.errs[id] = &GroupCommitError{Batch: id, Size: len(group), Err: err}
	}
	g.cond.Broadcast()
}

// joinBatches returns one batch holding the records of every batch of a
// group, in queue order, so the backend logs them contiguously ahead of a
// single commit marker.
func joinBatches(group []*Batch) *Batch {
	if len(group) == 1 {
		return group[0]
	}
	n := 0
	for _, b := range group {
		n += len(b.ops)
	}
	all := &Batch{ops: make([]pendingOp, 0, n)}
	for _, b := range group {
		all.ops = append(all.ops, b.ops...)
	}
	return all
}

// Close waits for queued and in-flight groups to reach their durability
// point and fails all later Commit calls with ErrCommitterClosed. It is
// idempotent.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	g.cond.Broadcast() // cut a leader's window short
	for g.flushing || len(g.queue) > 0 {
		g.cond.Wait()
	}
}

// Stats returns a snapshot of the amortization counters.
func (g *GroupCommitter) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
