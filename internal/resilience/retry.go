package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"remac/internal/fault"
)

// ErrAllowanceSpent is the cause inside the Overloaded-class error a layer
// returns when it was handed an attempt allowance with nothing left in it:
// the request has used every attempt it was granted before this layer could
// start its first.
var ErrAllowanceSpent = errors.New("resilience: attempt allowance spent")

// Allowance is the one bound on how much work a request may cause: a count
// of attempts, minted once where the request enters the tier and carried
// with it — in the context in process, as a header on the wire. Every
// gateway shard try, every wire send and every engine execution takes one
// unit before it starts, so whatever the layers do between them, no request
// starts more attempts than it was minted with. A nil *Allowance never
// grants anything.
type Allowance struct{ left atomic.Int64 }

// NewAllowance mints an allowance of n attempts.
func NewAllowance(n int) *Allowance {
	a := &Allowance{}
	a.left.Store(int64(n))
	return a
}

// Take debits one attempt; false means none is left and the attempt must
// not start.
func (a *Allowance) Take() bool {
	for a != nil {
		n := a.left.Load()
		if n <= 0 {
			break
		}
		if a.left.CompareAndSwap(n, n-1) {
			return true
		}
	}
	return false
}

// Left reports the attempts not yet taken.
func (a *Allowance) Left() int {
	if a == nil {
		return 0
	}
	return int(a.left.Load())
}

type allowanceKey struct{}

// WithAllowance hands the allowance to everything that runs under ctx, the
// way a deadline is handed down.
func WithAllowance(ctx context.Context, a *Allowance) context.Context {
	return context.WithValue(ctx, allowanceKey{}, a)
}

// AllowanceFrom returns the allowance ctx carries, or nil when no layer
// above minted one — the callee then mints its own.
func AllowanceFrom(ctx context.Context) *Allowance {
	a, _ := ctx.Value(allowanceKey{}).(*Allowance)
	return a
}

// RetryPolicy is the backoff schedule of server-side re-execution — capped
// exponential with deterministic seeded jitter — plus the allowance a
// server mints for a request nobody upstream bounded. How many attempts a
// request gets is the Allowance's business, not the schedule's.
type RetryPolicy struct {
	// MaxAttempts is the allowance a standalone server mints per query, and
	// the most executions one Do makes whoever minted. Default 3; negative
	// means exactly one (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; the k-th retry
	// waits BaseBackoff·2^(k-1), jittered. Default 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps a single delay. Default 1s.
	MaxBackoff time.Duration
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
	frac := 0.5 + float64(0.5*float64(u>>11)/(1<<53))
	return time.Duration(float64(d) * frac)
}
