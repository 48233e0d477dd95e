package resilience

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrAllowanceSpent is the cause inside the Overloaded-class error a layer
// returns when it was handed an attempt allowance with nothing left in it:
// the request has used every attempt it was granted before this layer could
// start its first.
var ErrAllowanceSpent = errors.New("resilience: attempt allowance spent")

// Allowance is the one bound on how much work a request may cause: a count
// of attempts, minted once where the request enters the tier and carried
// with it in the context. Every gateway shard try, every wire send and every
// engine execution takes one unit before it starts, so whatever the layers
// do between them, no request starts more attempts than it was minted with.
// Nothing crosses the wire: a send takes its unit on the sending side, and
// the shard it reaches executes at most once. A nil *Allowance never grants
// anything.
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
