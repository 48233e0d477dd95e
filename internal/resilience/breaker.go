package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects everything until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a handful of probe queries; their outcomes
	// decide whether to close again or re-open.
	BreakerHalfOpen
)

// String names the state as it appears in metrics and health payloads.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterizes a Breaker. The zero value picks the defaults
// noted per field.
type BreakerConfig struct {
	// Window is the rolling outcome window the failure rate is computed
	// over. Default 64.
	Window int
	// MinSamples gates the failure rate: with fewer recorded outcomes the
	// breaker stays closed. Default 16.
	MinSamples int
	// FailureThreshold opens the breaker when the windowed failure rate
	// reaches it. Default 0.5.
	FailureThreshold float64
	// Cooldown is how long the breaker stays open before admitting probes.
	// Default 1s.
	Cooldown time.Duration
	// HalfOpenProbes is both the concurrent probe budget while half-open
	// and the consecutive successes required to close. Default 3.
	HalfOpenProbes int
	// Now is the clock (tests inject a fake one). Default time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		c.FailureThreshold = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// BreakerCounters are cumulative state-transition counts and rejections
// (Shed: admissions refused while open or half-open), exposed through the
// serving metrics snapshot.
type BreakerCounters struct {
	Opened     uint64 `json:"opened"`
	HalfOpened uint64 `json:"half_opened"`
	Closed     uint64 `json:"closed"`
	Shed       uint64 `json:"shed"`
}

// Breaker is a closed/open/half-open circuit breaker over a rolling window
// of outcomes: it opens when the windowed failure rate reaches the
// threshold, rejects everything for a cooldown, then admits a few probes
// whose outcomes close or re-open it. All methods are nil-safe (a nil
// breaker admits everything).
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state    BreakerState
	window   []bool // ring of outcomes, true = failure
	idx      int
	filled   int
	failures int

	openedAt       time.Time
	probesInFlight int
	probeSuccesses int

	counters BreakerCounters
}

// NewBreaker returns a closed breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// State returns the current position. Nil-safe (nil reads closed).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Counters returns cumulative transition and shed counts. Nil-safe.
func (b *Breaker) Counters() BreakerCounters {
	if b == nil {
		return BreakerCounters{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counters
}

func (b *Breaker) failureRateLocked() float64 {
	if b.filled < b.cfg.MinSamples {
		return 0
	}
	return float64(b.failures) / float64(b.filled)
}

// maybeHalfOpenLocked moves an expired open state to half-open.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.state = BreakerHalfOpen
		b.probesInFlight = 0
		b.probeSuccesses = 0
		b.counters.HalfOpened++
	}
}

// Admit decides whether a query may join the admission queue. On rejection
// it returns a Retry-After hint: the cooldown remainder (RetryAfter) when
// open, a quarter cooldown when every half-open probe slot is taken.
// Nil-safe: a nil breaker admits everything.
func (b *Breaker) Admit() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerOpen:
		b.counters.Shed++
		return false, b.retryAfterLocked()
	case BreakerHalfOpen:
		if b.probesInFlight >= b.cfg.HalfOpenProbes {
			b.counters.Shed++
			return false, b.cfg.Cooldown / 4
		}
		b.probesInFlight++
	}
	return true, 0
}

// RetryAfter is the cooldown remainder while the breaker is open and 0
// otherwise: what an open-state rejection and a readiness probe both report
// as the time worth waiting. Nil-safe.
func (b *Breaker) RetryAfter() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.retryAfterLocked()
}

func (b *Breaker) retryAfterLocked() time.Duration {
	if b.state != BreakerOpen {
		return 0
	}
	return b.cfg.Cooldown - b.cfg.Now().Sub(b.openedAt)
}

// Record feeds one settled query outcome back. Failures here are
// server-attributable ones (execution and internal errors); canceled,
// compile-error and divergent queries should go through Forgive instead so
// client bugs never open the breaker. Nil-safe.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerHalfOpen:
		if b.probesInFlight > 0 {
			b.probesInFlight--
		}
		if !success {
			b.openLocked()
			return
		}
		b.probeSuccesses++
		if b.probeSuccesses >= b.cfg.HalfOpenProbes {
			b.closeLocked()
		}
	case BreakerClosed:
		b.pushLocked(!success)
		if b.filled >= b.cfg.MinSamples && b.failureRateLocked() >= b.cfg.FailureThreshold {
			b.openLocked()
		}
	case BreakerOpen:
		// A straggler settling after the trip: its outcome is stale.
	}
}

// Forgive releases an admitted query's accounting without recording an
// outcome — used for canceled and client-caused failures. Nil-safe.
func (b *Breaker) Forgive() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probesInFlight > 0 {
		b.probesInFlight--
	}
}

func (b *Breaker) pushLocked(failure bool) {
	if b.filled == len(b.window) {
		if b.window[b.idx] {
			b.failures--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = failure
	if failure {
		b.failures++
	}
	b.idx = (b.idx + 1) % len(b.window)
}

func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.counters.Opened++
}

func (b *Breaker) closeLocked() {
	b.state = BreakerClosed
	b.counters.Closed++
	// A fresh window: the failures that tripped the breaker are history.
	b.window = make([]bool, b.cfg.Window)
	b.idx, b.filled, b.failures = 0, 0, 0
}
