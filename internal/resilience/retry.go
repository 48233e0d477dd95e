package resilience

import (
	"time"

	"remac/internal/fault"
)

// RetryPolicy bounds server-side re-execution of transient failures:
// capped exponential backoff with deterministic seeded jitter and a total
// sleep budget per query. The zero value picks the defaults below; a
// negative MaxAttempts disables retries entirely.
type RetryPolicy struct {
	// MaxAttempts is the total execution attempts per query, the first
	// included. Default 3; negative means exactly one attempt (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; the k-th retry
	// waits BaseBackoff·2^(k-1), jittered. Default 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps a single delay. Default 1s.
	MaxBackoff time.Duration
	// Budget caps the summed backoff delays of one query; a retry whose
	// delay would exceed the remainder is abandoned. Default 2s.
	Budget time.Duration
	// Seed drives the jitter. Equal seeds replay equal delay sequences for
	// equal (query id, attempt) pairs, which is what keeps chaos runs
	// reproducible.
	Seed int64
}

// WithDefaults returns the policy with zero fields replaced by defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 2 * time.Second
	}
	return p
}

// Backoff returns the delay before retry attempt (attempt 1 is the first
// retry): capped exponential, scaled by a deterministic jitter factor in
// [0.5, 1.0) derived from (Seed, queryID, attempt). No global RNG state is
// consulted, so concurrent queries never perturb each other's schedules.
func (p RetryPolicy) Backoff(queryID uint64, attempt int) time.Duration {
	p = p.WithDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseBackoff
	for k := 1; k < attempt && d < p.MaxBackoff; k++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	u := fault.Mix64Key(uint64(p.Seed), queryID, uint64(attempt))
	frac := 0.5 + 0.5*float64(u>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// HedgePolicy re-submits a straggling query once its first attempt has run
// past a latency quantile of recent completions, racing the two and taking
// whichever settles first. Safe here because engine runs are deterministic
// and side-effect-free apart from shared caches, which tolerate duplicate
// fills.
type HedgePolicy struct {
	// Enabled turns hedging on (default off: hedges burn a worker's worth
	// of duplicate compute).
	Enabled bool
	// Quantile of the recent-latency window that defines a straggler.
	// Default 0.95.
	Quantile float64
	// Multiplier scales the quantile latency into the hedge trigger delay.
	// Default 2.
	Multiplier float64
	// MinDelay floors the trigger delay so cold windows don't hedge
	// instantly. Default 10ms.
	MinDelay time.Duration
	// MaxOutstanding caps concurrent hedge executions server-wide.
	// Default 2.
	MaxOutstanding int
}

// WithDefaults returns the policy with zero fields replaced by defaults.
func (h HedgePolicy) WithDefaults() HedgePolicy {
	if h.Quantile <= 0 || h.Quantile >= 1 {
		h.Quantile = 0.95
	}
	if h.Multiplier <= 0 {
		h.Multiplier = 2
	}
	if h.MinDelay <= 0 {
		h.MinDelay = 10 * time.Millisecond
	}
	if h.MaxOutstanding <= 0 {
		h.MaxOutstanding = 2
	}
	return h
}

// Delay converts an observed quantile latency (seconds) into the hedge
// trigger delay, or 0 when hedging should not fire (disabled or no
// latency signal yet).
func (h HedgePolicy) Delay(quantileSec float64) time.Duration {
	if !h.Enabled || quantileSec <= 0 {
		return 0
	}
	h = h.WithDefaults()
	d := time.Duration(quantileSec * h.Multiplier * float64(time.Second))
	if d < h.MinDelay {
		d = h.MinDelay
	}
	return d
}
