package pagestore

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The fault injector is a Backend decorator that scripts storage failures
// deterministically: read errors (transient or permanent), failed commits,
// torn writes (only a prefix of the payload persists) and bit flips, each
// fired at a chosen operation count. Failure tests build a store over an
// injected backend instead of reaching into storage internals, and the
// seedable randomness (which bit flips, how much of a torn write survives)
// makes every run reproducible.

// FaultOp selects which backend operation a rule applies to.
type FaultOp int

const (
	// FaultRead fires on Get.
	FaultRead FaultOp = iota
	// FaultWrite fires on an extent record of a committed batch, counted
	// in staging order. An error fails the whole commit.
	FaultWrite
	// FaultCommit fires on Commit. An error fails the whole commit.
	FaultCommit
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultCommit:
		return "commit"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(op))
	}
}

// FaultKind selects what happens when a rule fires.
type FaultKind int

const (
	// FaultTransient returns an error wrapping ErrTransient; a retry that
	// falls outside the rule's window succeeds.
	FaultTransient FaultKind = iota
	// FaultPermanent returns a permanent error (not ErrTransient), so
	// bounded retries give up.
	FaultPermanent
	// FaultBitFlip flips one randomly chosen bit of the extent payload in
	// the underlying backend (persistent bit rot); the store's checksum
	// verification surfaces it as ErrCorrupt.
	FaultBitFlip
	// FaultTornWrite persists only a random non-empty prefix of the
	// payload while keeping the full-payload checksum — the classic torn
	// page, detected as ErrCorrupt on read.
	FaultTornWrite
	// FaultLatency delays the operation by the rule's Delay before letting
	// it through (a slow spindle / overloaded volume), without failing it.
	FaultLatency
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultBitFlip:
		return "bitflip"
	case FaultTornWrite:
		return "tornwrite"
	case FaultLatency:
		return "latency"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultRule fires Kind on the Op whose 1-based operation count falls in
// [At, At+Count). Count zero means 1.
type FaultRule struct {
	Op    FaultOp
	Kind  FaultKind
	At    int64
	Count int64
	// Delay is how long a FaultLatency rule stalls the operation; other
	// kinds ignore it.
	Delay time.Duration
}

func (r FaultRule) covers(n int64) bool {
	c := r.Count
	if c <= 0 {
		c = 1
	}
	return n >= r.At && n < r.At+c
}

// Injector is a fault-injecting Backend decorator. It is safe for
// concurrent use. The zero operation counters make rule offsets stable:
// the N-th read of the store is the N-th Get seen here (buffer-pool hits
// never reach the backend, so disable caching in fault tests or account
// for it).
type Injector struct {
	mu     sync.Mutex
	inner  Backend
	rnd    *rand.Rand
	rules  []FaultRule
	outage bool // every Get and Commit fails transient while set
	reads  int64
	writes int64
	commit int64
	fired  int64
}

// NewInjector wraps inner with a deterministic fault injector seeded with
// seed.
func NewInjector(inner Backend, seed int64) *Injector {
	return &Injector{inner: inner, rnd: rand.New(rand.NewSource(seed))}
}

// Script appends fault rules to the schedule.
func (in *Injector) Script(rules ...FaultRule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, rules...)
	return in
}

// SetOutage toggles a whole-device outage: while set, every Get and
// Commit fails with an error wrapping ErrTransient, independent of the
// scheduled rules. Chaos campaigns use it for fail-then-heal windows whose
// boundaries are decided by the campaign, not by operation counts.
func (in *Injector) SetOutage(down bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.outage = down
}

// Outage reports whether a whole-device outage is in effect.
func (in *Injector) Outage() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.outage
}

// Fired returns how many faults have been injected so far.
func (in *Injector) Fired() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Reads returns the number of Get operations seen so far.
func (in *Injector) Reads() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reads
}

// match returns the first rule covering operation n of op, if any.
func (in *Injector) match(op FaultOp, n int64) (FaultRule, bool) {
	for _, r := range in.rules {
		if r.Op == op && r.covers(n) {
			return r, true
		}
	}
	return FaultRule{}, false
}

// CorruptExtent flips one random bit of the stored extent's payload right
// now, independent of the schedule. It simulates at-rest bit rot.
func (in *Injector) CorruptExtent(start int64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fired++
	return in.corruptLocked(start)
}

// corruptLocked rewrites the stored extent with one bit flipped. Callers
// hold in.mu.
func (in *Injector) corruptLocked(start int64) error {
	ext, err := in.inner.Get(start)
	if err != nil {
		return err
	}
	return in.inner.Commit(&Batch{ops: []pendingOp{{kind: recExtent, start: start, ext: in.flipLocked(ext)}}})
}

// flipLocked returns a copy of ext with one random payload bit flipped, or
// with a wrong checksum when there is no payload.
func (in *Injector) flipLocked(ext Extent) Extent {
	if len(ext.Data) == 0 {
		// No payload bits to flip: corrupt the checksum instead.
		ext.Sum ^= 1
		return ext
	}
	data := append([]byte(nil), ext.Data...)
	i := in.rnd.Intn(len(data))
	data[i] ^= 1 << uint(in.rnd.Intn(8))
	ext.Data = data
	return ext
}

// DropExtent silently loses the stored extent (an unreadable sector),
// independent of the schedule.
func (in *Injector) DropExtent(start int64) error {
	in.mu.Lock()
	in.fired++
	in.mu.Unlock()
	b := &Batch{ops: []pendingOp{{kind: recFree, start: start}}, freed: []int64{start}}
	if err := in.inner.Commit(b); err != nil {
		return err
	}
	in.inner.Release(b)
	return nil
}

func (in *Injector) Get(start int64) (Extent, error) {
	in.mu.Lock()
	in.reads++
	n := in.reads
	down := in.outage
	r, hit := in.match(FaultRead, n)
	if hit || down {
		in.fired++
	}
	in.mu.Unlock()
	if down {
		return Extent{}, fmt.Errorf("injected outage read fault (read #%d): %w", n, ErrTransient)
	}
	if hit {
		switch r.Kind {
		case FaultTransient:
			return Extent{}, fmt.Errorf("injected transient read fault (read #%d): %w", n, ErrTransient)
		case FaultPermanent:
			return Extent{}, fmt.Errorf("pagestore: injected permanent read fault (read #%d)", n)
		case FaultBitFlip:
			in.mu.Lock()
			err := in.corruptLocked(start)
			in.mu.Unlock()
			if err != nil {
				return Extent{}, err
			}
		case FaultLatency:
			time.Sleep(r.Delay)
		}
	}
	return in.inner.Get(start)
}

// Commit runs the batch through the schedule — the commit rule, then a
// write rule per extent record — and hands the surviving batch to the
// inner backend. A failing rule fails the whole commit before the inner
// backend sees any of it; torn writes and bit flips persist damaged copies
// of the extents under their original checksums.
func (in *Injector) Commit(b *Batch) error {
	in.mu.Lock()
	in.commit++
	n := in.commit
	down := in.outage
	r, hit := in.match(FaultCommit, n)
	if hit || down {
		in.fired++
	}
	var delay time.Duration
	var err error
	switch {
	case down:
		err = fmt.Errorf("injected outage commit fault (commit #%d): %w", n, ErrTransient)
	case hit && r.Kind == FaultTransient:
		err = fmt.Errorf("injected transient commit fault (commit #%d): %w", n, ErrTransient)
	case hit && r.Kind == FaultLatency:
		delay = r.Delay
	case hit:
		err = fmt.Errorf("pagestore: injected permanent commit fault (commit #%d)", n)
	}
	out := b
	for i := 0; err == nil && i < len(b.ops); i++ {
		op := b.ops[i]
		if op.kind != recExtent {
			continue
		}
		in.writes++
		w := in.writes
		r, hit := in.match(FaultWrite, w)
		if !hit {
			continue
		}
		in.fired++
		switch r.Kind {
		case FaultTransient:
			err = fmt.Errorf("injected transient write fault (write #%d): %w", w, ErrTransient)
			continue
		case FaultPermanent:
			err = fmt.Errorf("pagestore: injected permanent write fault (write #%d)", w)
			continue
		case FaultLatency:
			delay += r.Delay
			continue
		case FaultTornWrite:
			if len(op.ext.Data) == 0 {
				continue
			}
			keep := in.rnd.Intn(len(op.ext.Data)) // strict (possibly empty) prefix
			op.ext.Data = op.ext.Data[:keep:keep]
		case FaultBitFlip:
			op.ext = in.flipLocked(op.ext)
		}
		if out == b {
			out = &Batch{ops: append([]pendingOp(nil), b.ops...)}
		}
		out.ops[i] = op
	}
	in.mu.Unlock()
	time.Sleep(delay)
	if err != nil {
		return err
	}
	return in.inner.Commit(out)
}

func (in *Injector) Release(b *Batch)                  { in.inner.Release(b) }
func (in *Injector) Meta() []byte                      { return in.inner.Meta() }
func (in *Injector) MetaDeltas() [][]byte              { return in.inner.MetaDeltas() }
func (in *Injector) Range(fn func(int64, Extent) bool) { in.inner.Range(fn) }
func (in *Injector) NextPage() int64                   { return in.inner.NextPage() }
func (in *Injector) Durable() bool                     { return in.inner.Durable() }
func (in *Injector) Close() error                      { return in.inner.Close() }
