package resilience

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes all reads through (normal operation).
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits probe reads to test whether the backend
	// recovered; their outcomes decide between closing and reopening.
	BreakerHalfOpen
	// BreakerOpen fails all reads fast with ErrCircuitOpen until the open
	// window elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerConfig parameterizes a Breaker. Zero fields take the defaults
// noted on each.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive read failures trip the
	// breaker open. Default 5.
	FailureThreshold int
	// OpenFor is how long the breaker stays open before admitting
	// half-open probes. Default 5s.
	OpenFor time.Duration
	// ProbeSuccesses is how many consecutive successful half-open probes
	// close the breaker again. Default 3.
	ProbeSuccesses int
	// Clock supplies the current time; nil means time.Now. Tests inject
	// deterministic clocks through it.
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker with probe-on-timer
// recovery. It is safe for concurrent use. A nil *Breaker is valid and
// always allows.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive failures while closed
	successes int       // consecutive probe successes while half-open
	probing   bool      // a half-open probe is in flight
	openedAt  time.Time // when the breaker last opened

	opens     int64 // closed/half-open → open transitions
	fastFails int64 // reads rejected while open
	probes    int64 // half-open probes admitted
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow asks whether a backend read may proceed. While open it returns an
// error wrapping ErrCircuitOpen until the open window elapses, at which
// point it moves to half-open and admits one probe at a time; probe
// outcomes are reported through RecordSuccess / RecordFailure.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			b.fastFails++
			return fmt.Errorf("%w (retry in %s)", ErrCircuitOpen, b.remainingOpenLocked())
		}
		b.state = BreakerHalfOpen
		b.successes = 0
		b.probing = true
		b.probes++
		return nil
	default: // BreakerHalfOpen
		if b.probing {
			// One probe at a time: concurrent reads keep failing fast so a
			// thundering herd cannot stampede a barely-recovered device.
			b.fastFails++
			return fmt.Errorf("%w (probe in flight)", ErrCircuitOpen)
		}
		b.probing = true
		b.probes++
		return nil
	}
}

// RecordSuccess observes a successful read. In half-open it counts toward
// the probe-success run that closes the breaker; in closed it clears the
// failure run.
func (b *Breaker) RecordSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.ProbeSuccesses {
			b.state = BreakerClosed
			b.failures = 0
		}
	}
	// A success while open can only be a read that was admitted before the
	// trip; it does not change the state.
}

// RecordFailure observes a failed read. Enough consecutive failures while
// closed trip the breaker; any probe failure while half-open reopens it.
func (b *Breaker) RecordFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.openLocked()
		}
	case BreakerHalfOpen:
		b.probing = false
		b.openLocked()
	}
}

// Release abandons an admitted read without recording an outcome — the
// caller's context was canceled before the backend answered definitively,
// so the read says nothing about device health. Releasing a half-open
// probe lets the next read probe instead of deadlocking the state.
func (b *Breaker) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Clock()
	b.failures = 0
	b.successes = 0
	b.probing = false
	b.opens++
}

// State returns the breaker's current position. Reading it does not
// advance open → half-open; only Allow does.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RemainingOpen is how long until an open breaker admits a probe; zero
// when not open or already due.
func (b *Breaker) RemainingOpen() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remainingOpenLocked()
}

func (b *Breaker) remainingOpenLocked() time.Duration {
	if b.state != BreakerOpen {
		return 0
	}
	d := b.cfg.OpenFor - b.cfg.Clock().Sub(b.openedAt)
	if d < 0 {
		return 0
	}
	return d
}

// BreakerSnapshot is a consistent view of the breaker's counters.
type BreakerSnapshot struct {
	State     BreakerState
	Opens     int64 // times the breaker tripped open
	FastFails int64 // reads rejected without touching the backend
	Probes    int64 // half-open probes admitted
}

// Snapshot returns the breaker counters.
func (b *Breaker) Snapshot() BreakerSnapshot {
	if b == nil {
		return BreakerSnapshot{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{State: b.state, Opens: b.opens, FastFails: b.fastFails, Probes: b.probes}
}
