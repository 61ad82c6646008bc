// Package resilience is the health tier of the temporal XML database: a
// per-component health state machine with hysteresis, a circuit breaker
// around backend reads, and the degraded-serving policy the engine and the
// query server act on.
//
// The paper's operators assume a storage layer that always answers; a
// production store must instead keep answering — possibly degraded — when
// the backend misbehaves. The snapshot-interspersed version model of
// Section 7.1 is what makes degraded serving semantically safe: committed
// versions are immutable, so anything the version cache or the in-memory
// current snapshot can answer is exactly as correct during a fault storm
// as before it. This package supplies the machinery that decides *when*
// to fall back to those sources and when to stop hammering a sick device:
//
//   - Health (health.go): healthy → degraded → failing, driven by typed
//     error observations, with hysteresis so one blip does not flap the
//     state and one lucky read does not clear an outage.
//   - Breaker (breaker.go): closed → open → half-open around backend
//     reads. A persistent fault storm trips it; while open, reads fail
//     fast with ErrCircuitOpen instead of stacking retries on a device
//     that is not answering; a timer admits half-open probes whose
//     successes close it again — recovery is automatic.
//   - Tier (below): composes one breaker with two component healths —
//     "backend" for the I/O path, "data" for integrity (checksum
//     mismatches, lost extents) — and derives the serving mode.
//
// The store feeds the tier from its read path (store.readExtentCtx), the
// engine consults it before writes and flags results served while
// degraded, and the server surfaces it on /readyz and /metrics.
package resilience

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// State is a component's (or the whole engine's) health.
type State int32

const (
	// Healthy serves everything.
	Healthy State = iota
	// Degraded keeps serving reads that do not need the sick component
	// (cache-resident versions, the in-memory current snapshot) and
	// rejects writes and cache-miss reads fast.
	Degraded
	// Failing means even degraded serving is unreliable; readiness is
	// down and operators should intervene.
	Failing
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failing:
		return "failing"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Typed serving errors, matched with errors.Is.
var (
	// ErrCircuitOpen reports a backend read rejected because the circuit
	// breaker is open: the device has been failing persistently and the
	// store fails fast instead of retrying into it.
	ErrCircuitOpen = errors.New("resilience: circuit breaker open")
	// ErrDegraded reports an operation rejected by degraded mode: writes,
	// and anything else that cannot be served without the sick component.
	ErrDegraded = errors.New("resilience: serving degraded")
)

// Config parameterizes a Tier. The zero value disables the tier entirely
// (New returns nil), preserving the raw fault behaviour that the
// operator-level benchmarks and the PR 1 failure tests measure.
type Config struct {
	// Enabled turns the tier on.
	Enabled bool
	// Breaker parameterizes the circuit breaker around backend reads.
	Breaker BreakerConfig
	// Health parameterizes the per-component state machines.
	Health HealthConfig
}

// Tier composes the circuit breaker with the per-component health
// machines and derives the serving mode. It is safe for concurrent use.
// A nil *Tier is valid and means "resilience disabled": every method is a
// cheap no-op returning the healthy defaults.
type Tier struct {
	breaker *Breaker
	backend *Health // the I/O path: transient/permanent read faults
	data    *Health // integrity: checksum mismatches, lost extents

	degradedServes  atomic.Int64
	degradedRejects atomic.Int64
}

// New builds a tier, or returns nil when cfg.Enabled is false.
func New(cfg Config) *Tier {
	if !cfg.Enabled {
		return nil
	}
	return &Tier{
		breaker: NewBreaker(cfg.Breaker),
		backend: NewHealth(cfg.Health),
		data:    NewHealth(cfg.Health),
	}
}

// Breaker returns the circuit breaker around backend reads.
func (t *Tier) Breaker() *Breaker {
	if t == nil {
		return nil
	}
	return t.breaker
}

// AllowRead asks the breaker whether a backend read may proceed. It
// returns nil (go ahead — closed, or an admitted half-open probe) or an
// error wrapping ErrCircuitOpen.
func (t *Tier) AllowRead() error {
	if t == nil {
		return nil
	}
	return t.breaker.Allow()
}

// RecordReadOK observes one successful backend read: the breaker counts a
// success (closing after enough half-open probes) and the backend health
// steps toward recovery.
func (t *Tier) RecordReadOK() {
	if t == nil {
		return
	}
	t.breaker.RecordSuccess()
	t.backend.Observe(true)
}

// RecordIOFailure observes one failed backend read (transient fault that
// exhausted its retries, or a permanent device error). Enough of these in
// a row trip the breaker and degrade the backend component.
func (t *Tier) RecordIOFailure() {
	if t == nil {
		return
	}
	t.breaker.RecordFailure()
	t.backend.Observe(false)
}

// RecordCorruption observes an integrity failure: a checksum mismatch or
// a lost extent. The device answered — so the breaker counts an I/O
// success, not a failure — but the data component degrades immediately
// and stays degraded until a clean Fsck clears it (corruption does not
// heal by itself).
func (t *Tier) RecordCorruption() {
	if t == nil {
		return
	}
	t.breaker.RecordSuccess()
	t.data.ObserveSticky()
}

// ReleaseRead abandons a read admitted by AllowRead without recording an
// outcome (the caller's context was canceled mid-read).
func (t *Tier) ReleaseRead() {
	if t == nil {
		return
	}
	t.breaker.Release()
}

// Recover reports whether the tier is degraded after giving a degraded
// backend the reads that let it recover: it calls read, a backend read
// through AllowRead, until the breaker is closed and the backend component
// healthy again, or a read fails. The backend leaves Degraded only on
// successful reads, and serving may need none (the current version and
// cache-resident versions are in memory), so without these reads a healed
// device would leave the engine read-only for good. It waits out an open
// breaker's window, its run is bounded by the successes recovery needs,
// and corruption is left to Fsck.
func (t *Tier) Recover(read func() error) bool {
	if !t.Degraded() {
		return false
	}
	if t.breaker.RemainingOpen() == 0 {
		for n := t.breaker.cfg.ProbeSuccesses + int(Failing)*t.backend.cfg.RecoverAfter; n > 0 &&
			(t.breaker.State() != BreakerClosed || t.backend.State() > Healthy) && read() == nil; n-- {
		}
	}
	return t.Degraded()
}

// RecordFsck feeds a completed storage verification into the data
// component: a clean walk clears a corruption-degraded state, a dirty one
// (re)degrades it.
func (t *Tier) RecordFsck(clean bool) {
	if t == nil {
		return
	}
	if clean {
		t.data.Reset()
	} else {
		t.data.ObserveSticky()
	}
}

// State derives the engine's overall health: the worst of the component
// states, with an open breaker forcing at least Degraded (the health
// hysteresis may lag the breaker by a few observations).
func (t *Tier) State() State {
	if t == nil {
		return Healthy
	}
	s := t.backend.State()
	if d := t.data.State(); d > s {
		s = d
	}
	if t.breaker.State() != BreakerClosed && s < Degraded {
		s = Degraded
	}
	return s
}

// Degraded reports whether the engine should serve in degraded mode:
// cache-first reads, writes rejected.
func (t *Tier) Degraded() bool { return t.State() >= Degraded }

// NoteDegradedServe counts one read served successfully while degraded
// (from the version cache or the in-memory current snapshot).
func (t *Tier) NoteDegradedServe() {
	if t != nil {
		t.degradedServes.Add(1)
	}
}

// NoteDegradedReject counts one operation rejected by degraded mode.
func (t *Tier) NoteDegradedReject() {
	if t != nil {
		t.degradedRejects.Add(1)
	}
}

// ComponentSnapshot is one component's health in a Snapshot.
type ComponentSnapshot struct {
	State       State
	Transitions int64 // state changes since construction
}

// Snapshot is a consistent view of the tier for /readyz, /metrics and the
// oracle's fault campaigns.
type Snapshot struct {
	State   State             // overall, as State() derives it
	Backend ComponentSnapshot // the I/O path
	Data    ComponentSnapshot // integrity
	Breaker BreakerSnapshot
	// DegradedServes counts reads answered from cache or the in-memory
	// current snapshot while the engine was degraded.
	DegradedServes int64
	// DegradedRejects counts writes and cache-miss reads rejected fast
	// while the engine was degraded.
	DegradedRejects int64
}

// Snapshot returns the current tier state. On a nil tier it reports
// everything healthy with zero counters.
func (t *Tier) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	bst, btr := t.backend.Stats()
	dst, dtr := t.data.Stats()
	return Snapshot{
		State:           t.State(),
		Backend:         ComponentSnapshot{State: bst, Transitions: btr},
		Data:            ComponentSnapshot{State: dst, Transitions: dtr},
		Breaker:         t.breaker.Snapshot(),
		DegradedServes:  t.degradedServes.Load(),
		DegradedRejects: t.degradedRejects.Load(),
	}
}

// RetryAfter suggests how long a rejected caller should wait before
// retrying: the breaker's remaining open window, never less than a
// second (rounded up, since Retry-After is integral seconds on the wire).
func (t *Tier) RetryAfter() time.Duration {
	if t == nil {
		return time.Second
	}
	if d := t.breaker.RemainingOpen(); d > time.Second {
		return d
	}
	return time.Second
}
