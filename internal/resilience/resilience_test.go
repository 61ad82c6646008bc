package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2002, time.March, 25, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, ProbeSuccesses: 2, Clock: clk.Now})

	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected read %d: %v", i, err)
		}
		b.RecordFailure()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	// A success in between resets the consecutive-failure run.
	b.RecordSuccess()
	b.RecordFailure()
	b.RecordFailure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after interrupted failure run = %v, want closed", got)
	}
	b.RecordFailure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}

	err := b.Allow()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker Allow = %v, want ErrCircuitOpen", err)
	}
	snap := b.Snapshot()
	if snap.Opens != 1 || snap.FastFails != 1 {
		t.Fatalf("snapshot = %+v, want Opens=1 FastFails=1", snap)
	}
}

func TestBreakerHalfOpenProbeRecovery(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, ProbeSuccesses: 2, Clock: clk.Now})
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	if d := b.RemainingOpen(); d != time.Second {
		t.Fatalf("RemainingOpen = %v, want 1s", d)
	}

	// Before the window elapses, reads fail fast.
	clk.Advance(500 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Allow before window = %v, want ErrCircuitOpen", err)
	}

	// After the window, exactly one probe is admitted at a time.
	clk.Advance(600 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrCircuitOpen", err)
	}
	b.RecordSuccess() // probe 1 ok — still needs one more
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after 1 probe success = %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe 2 not admitted: %v", err)
	}
	b.RecordSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after %d probe successes = %v, want closed", 2, b.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, ProbeSuccesses: 2, Clock: clk.Now})
	b.RecordFailure()
	clk.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// The open window restarts from the failed probe.
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Allow right after reopen = %v, want ErrCircuitOpen", err)
	}
	if got := b.Snapshot().Opens; got != 2 {
		t.Fatalf("Opens = %d, want 2", got)
	}
}

func TestHealthHysteresis(t *testing.T) {
	h := NewHealth(HealthConfig{DegradeAfter: 3, FailAfter: 4, RecoverAfter: 2})

	// Two failures + a success: still healthy (run interrupted).
	h.Observe(false)
	h.Observe(false)
	h.Observe(true)
	if h.State() != Healthy {
		t.Fatalf("state = %v, want healthy", h.State())
	}

	// Three consecutive failures degrade.
	for i := 0; i < 3; i++ {
		h.Observe(false)
	}
	if h.State() != Degraded {
		t.Fatalf("state = %v, want degraded", h.State())
	}

	// Four more consecutive failures fail.
	for i := 0; i < 4; i++ {
		h.Observe(false)
	}
	if h.State() != Failing {
		t.Fatalf("state = %v, want failing", h.State())
	}

	// Recovery steps down one state per RecoverAfter-run: failing →
	// degraded → healthy, never skipping straight to healthy.
	h.Observe(true)
	h.Observe(true)
	if h.State() != Degraded {
		t.Fatalf("state after first recovery run = %v, want degraded", h.State())
	}
	h.Observe(true)
	if h.State() != Degraded {
		t.Fatalf("state mid second recovery run = %v, want degraded", h.State())
	}
	h.Observe(true)
	if h.State() != Healthy {
		t.Fatalf("state after second recovery run = %v, want healthy", h.State())
	}

	_, transitions := h.Stats()
	if transitions != 4 { // healthy→degraded→failing→degraded→healthy
		t.Fatalf("transitions = %d, want 4", transitions)
	}
}

func TestHealthStickyCorruption(t *testing.T) {
	h := NewHealth(HealthConfig{RecoverAfter: 1})
	h.ObserveSticky()
	if h.State() != Degraded {
		t.Fatalf("state = %v, want degraded", h.State())
	}
	// Successes do not clear sticky degradation.
	for i := 0; i < 100; i++ {
		h.Observe(true)
	}
	if h.State() != Degraded {
		t.Fatalf("state after successes = %v, want degraded (sticky)", h.State())
	}
	h.Reset()
	if h.State() != Healthy {
		t.Fatalf("state after Reset = %v, want healthy", h.State())
	}
}

func TestTierDerivedStateAndCounters(t *testing.T) {
	clk := newFakeClock()
	tier := New(Config{
		Enabled: true,
		Breaker: BreakerConfig{FailureThreshold: 2, OpenFor: time.Second, ProbeSuccesses: 1, Clock: clk.Now},
		Health:  HealthConfig{DegradeAfter: 2, FailAfter: 100, RecoverAfter: 2},
	})

	if tier.State() != Healthy || tier.Degraded() {
		t.Fatal("fresh tier should be healthy")
	}

	// Two I/O failures trip the breaker AND degrade the backend component.
	tier.RecordIOFailure()
	tier.RecordIOFailure()
	if tier.State() != Degraded {
		t.Fatalf("state = %v, want degraded", tier.State())
	}
	if err := tier.AllowRead(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("AllowRead = %v, want ErrCircuitOpen", err)
	}
	tier.NoteDegradedServe()
	tier.NoteDegradedReject()

	// Heal: window elapses, probe succeeds, then the health run recovers.
	clk.Advance(2 * time.Second)
	if err := tier.AllowRead(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	tier.RecordReadOK()
	tier.RecordReadOK()
	if tier.State() != Healthy {
		t.Fatalf("state after recovery = %v, want healthy", tier.State())
	}

	snap := tier.Snapshot()
	if snap.DegradedServes != 1 || snap.DegradedRejects != 1 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
	if snap.Breaker.Opens != 1 || snap.Breaker.Probes != 1 {
		t.Fatalf("breaker snapshot = %+v", snap.Breaker)
	}
	if snap.Backend.Transitions != 2 { // healthy→degraded→healthy
		t.Fatalf("backend transitions = %d, want 2", snap.Backend.Transitions)
	}
}

func TestTierCorruptionDoesNotChargeBreaker(t *testing.T) {
	tier := New(Config{Enabled: true, Breaker: BreakerConfig{FailureThreshold: 1}})
	tier.RecordCorruption()
	if tier.State() != Degraded {
		t.Fatalf("state = %v, want degraded", tier.State())
	}
	// The device answered; reads must still flow (cache-first policy is
	// decided above the breaker).
	if err := tier.AllowRead(); err != nil {
		t.Fatalf("AllowRead = %v, want nil", err)
	}
	// A clean fsck heals the data component.
	tier.RecordFsck(true)
	if tier.State() != Healthy {
		t.Fatalf("state after clean fsck = %v, want healthy", tier.State())
	}
	tier.RecordFsck(false)
	if tier.State() != Degraded {
		t.Fatalf("state after dirty fsck = %v, want degraded", tier.State())
	}
}

func TestNilTierIsDisabled(t *testing.T) {
	var tier *Tier
	if tier != New(Config{}) { // Enabled=false → nil
		t.Fatal("New with Enabled=false should return nil")
	}
	if err := tier.AllowRead(); err != nil {
		t.Fatalf("nil AllowRead = %v", err)
	}
	tier.RecordReadOK()
	tier.RecordIOFailure()
	tier.RecordCorruption()
	tier.RecordFsck(false)
	tier.NoteDegradedServe()
	tier.NoteDegradedReject()
	if tier.State() != Healthy || tier.Degraded() {
		t.Fatal("nil tier must report healthy")
	}
	if snap := tier.Snapshot(); snap != (Snapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", snap)
	}
	if tier.RetryAfter() != time.Second {
		t.Fatal("nil RetryAfter should be 1s")
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[string]string{
		Healthy.String():         "healthy",
		Degraded.String():        "degraded",
		Failing.String():         "failing",
		BreakerClosed.String():   "closed",
		BreakerHalfOpen.String(): "half-open",
		BreakerOpen.String():     "open",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// TestTierRecoverProbes: Recover waits out the breaker's open window,
// then reads until the breaker is closed and the backend healthy — from
// Failing, back through Degraded — stops at the first failed read, and
// leaves a healthy tier and sticky corruption alone.
func TestTierRecoverProbes(t *testing.T) {
	clk := newFakeClock()
	tier := New(Config{
		Enabled: true,
		Breaker: BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute, ProbeSuccesses: 2, Clock: clk.Now},
		Health:  HealthConfig{DegradeAfter: 3, FailAfter: 3, RecoverAfter: 2},
	})
	reads, fail := 0, false
	read := func() error {
		reads++
		if err := tier.AllowRead(); err != nil {
			return err
		}
		if fail {
			tier.RecordIOFailure()
			return errors.New("device down")
		}
		tier.RecordReadOK()
		return nil
	}
	tier.Recover(read)
	if reads != 0 {
		t.Fatalf("healthy tier probed %d times", reads)
	}
	for i := 0; i < 6; i++ { // degraded after 3, failing after 3 more
		tier.RecordIOFailure()
	}
	if got := tier.State(); got != Failing {
		t.Fatalf("state = %v, want failing", got)
	}
	tier.Recover(read)
	if reads != 0 {
		t.Fatalf("probed %d times inside the open window", reads)
	}
	clk.Advance(2 * time.Minute)
	fail = true
	tier.Recover(read)
	if reads != 1 || tier.Breaker().State() != BreakerOpen {
		t.Fatalf("failed probe: %d reads, breaker %v; want 1 read and a reopened breaker", reads, tier.Breaker().State())
	}
	clk.Advance(2 * time.Minute)
	reads, fail = 0, false
	tier.Recover(read)
	if got := tier.State(); got != Healthy || reads != 4 {
		t.Fatalf("after recovery: %v in %d reads, want healthy in 4 (two per step down)", got, reads)
	}
	tier.RecordCorruption()
	reads = 0
	tier.Recover(read)
	if reads != 0 || !tier.Degraded() {
		t.Fatalf("corruption: %d probes, degraded %v; want none, still degraded", reads, tier.Degraded())
	}
}

// TestTierRecoverConcurrent: writers and queries call Recover at once; the
// breaker admits one half-open probe at a time, and together they bring
// the tier back to healthy without reading more than each run's bound.
func TestTierRecoverConcurrent(t *testing.T) {
	clk := newFakeClock()
	tier := New(Config{
		Enabled: true,
		Breaker: BreakerConfig{FailureThreshold: 3, OpenFor: time.Minute, ProbeSuccesses: 2, Clock: clk.Now},
		Health:  HealthConfig{DegradeAfter: 3, FailAfter: 10, RecoverAfter: 3},
	})
	for i := 0; i < 3; i++ {
		tier.RecordIOFailure()
	}
	clk.Advance(2 * time.Minute)
	var reads atomic.Int64
	read := func() error {
		if err := tier.AllowRead(); err != nil {
			return err
		}
		reads.Add(1)
		tier.RecordReadOK()
		return nil
	}
	const callers = 4
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tier.Recover(read) {
			}
		}()
	}
	wg.Wait()
	if got := tier.State(); got != Healthy {
		t.Fatalf("state after concurrent recovery = %v, want healthy", got)
	}
	if n := reads.Load(); n < 3 || n > callers*(2+2*3) {
		t.Fatalf("%d probe reads, want between 3 and %d", n, callers*(2+2*3))
	}
}
