package resilience

import (
	"testing"
	"time"
)

// fakeClock is an injectable breaker clock tests advance by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func testBreaker(clk *fakeClock, cfg BreakerConfig) *Breaker {
	cfg.Now = clk.now
	return NewBreaker(cfg)
}

// TestBreakerTripRecoverCycle drives the full closed → open → half-open →
// closed cycle and checks states, admission verdicts, Retry-After hints and
// transition counters at each step.
func TestBreakerTripRecoverCycle(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		Window: 8, MinSamples: 4, FailureThreshold: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})

	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}
	// Under MinSamples the breaker must not trip even at a 100% failure rate.
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatal("tripped below MinSamples")
	}
	// The fourth failure crosses MinSamples with rate 1.0 ≥ 0.5: open.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}
	if c := b.Counters(); c.Opened != 1 {
		t.Fatalf("Opened = %d, want 1", c.Opened)
	}

	// Open: everything rejected, Retry-After counts down with the clock.
	ok, ra := b.Admit()
	if ok {
		t.Fatal("open breaker admitted a query")
	}
	if ra != time.Second {
		t.Fatalf("Retry-After = %v, want full cooldown", ra)
	}
	clk.advance(600 * time.Millisecond)
	if _, ra = b.Admit(); ra != 400*time.Millisecond || b.RetryAfter() != ra {
		t.Fatalf("Retry-After after 600ms = %v (RetryAfter %v), want 400ms", ra, b.RetryAfter())
	}

	// Cooldown elapses: half-open, with a probe budget of 2.
	clk.advance(400 * time.Millisecond)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
	if c := b.Counters(); c.HalfOpened != 1 {
		t.Fatalf("HalfOpened = %d, want 1", c.HalfOpened)
	}
	for i := 0; i < 2; i++ {
		if ok, _ := b.Admit(); !ok {
			t.Fatalf("half-open rejected probe %d", i)
		}
	}
	if ok, _ := b.Admit(); ok {
		t.Fatal("half-open admitted past probe budget")
	}

	// Both probes succeed: closed again, with a fresh outcome window.
	b.Record(true)
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe successes = %v, want closed", b.State())
	}
	if c := b.Counters(); c.Closed != 1 {
		t.Fatalf("Closed = %d, want 1", c.Closed)
	}
	if r := b.FailureRate(); r != 0 {
		t.Fatalf("failure window not reset: rate = %v", r)
	}
}

// TestBreakerHalfOpenFailureReopens: one failed probe sends it straight
// back to open for another full cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		Window: 8, MinSamples: 2, FailureThreshold: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})
	b.Record(false)
	b.Record(false)
	clk.advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	b.Admit()
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if c := b.Counters(); c.Opened != 2 {
		t.Fatalf("Opened = %d, want 2", c.Opened)
	}
	// The re-open restarts the cooldown from the failure's timestamp.
	if ok, _ := b.Admit(); ok {
		t.Fatal("re-opened breaker admitted a query")
	}
}

// TestBreakerForgiveReleasesProbeSlot: a canceled probe must hand its
// half-open slot back without counting as an outcome.
func TestBreakerForgiveReleasesProbeSlot(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		Window: 8, MinSamples: 2, FailureThreshold: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 1,
	})
	b.Record(false)
	b.Record(false)
	clk.advance(time.Second)
	if ok, _ := b.Admit(); !ok {
		t.Fatal("half-open rejected the only probe")
	}
	if ok, _ := b.Admit(); ok {
		t.Fatal("probe budget of 1 admitted twice")
	}
	b.Forgive()
	if ok, _ := b.Admit(); !ok {
		t.Fatal("Forgive did not release the probe slot")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open (Forgive is not an outcome)", b.State())
	}
}

// TestBreakerStaleOutcomeWhileOpen: results settling after the trip are
// ignored rather than corrupting the next half-open round.
func TestBreakerStaleOutcomeWhileOpen(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		Window: 8, MinSamples: 2, FailureThreshold: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 1,
	})
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("did not open")
	}
	b.Record(true) // straggler from before the trip
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatal("stale outcome moved the state")
	}
	if c := b.Counters(); c.Opened != 1 {
		t.Fatalf("Opened = %d, want 1", c.Opened)
	}
}

// TestNilBreaker: every method on a nil breaker is a safe no-op that admits
// everything.
func TestNilBreaker(t *testing.T) {
	var b *Breaker
	if ok, ra := b.Admit(); !ok || ra != 0 || b.RetryAfter() != 0 {
		t.Fatal("nil breaker rejected")
	}
	b.Record(false)
	b.Forgive()
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker not closed")
	}
	if b.FailureRate() != 0 {
		t.Fatal("nil breaker failure rate != 0")
	}
	if b.Counters() != (BreakerCounters{}) {
		t.Fatal("nil breaker counters != zero")
	}
}

// FailureRate returns the windowed failure rate (0 when under MinSamples).
// Nil-safe.
func (b *Breaker) FailureRate() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failureRateLocked()
}
