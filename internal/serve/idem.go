package serve

import (
	"sync"

	"remac/internal/lru"
)

// idemEntries bounds the completed-result replay window: a constant, since
// nothing but a test ever asked for another size (DESIGN.md §16).
const idemEntries = 1024

// idemRole is what begin decided for a keyed submission.
type idemRole int

const (
	// idemLeader executes the query and settles the entry.
	idemLeader idemRole = iota
	// idemWaiter coalesces onto an in-flight leader with the same key and
	// waits for its outcome instead of executing a duplicate.
	idemWaiter
	// idemReplay found a completed entry: the stored result is returned
	// bitwise-identically, with no execution at all.
	idemReplay
)

// idemEntry tracks one idempotency key: in-flight (done open, a leader
// executing) or completed (done closed, res/err settled). res and err are
// written exactly once, before done closes, so waiters read them without
// the lock.
type idemEntry struct {
	key  string
	done chan struct{}
	res  *QueryResult
	err  error
}

// idemWindow is the bounded at-most-once execution window behind
// Query.IdempotencyKey. Its contract is "at-most-once execution,
// at-least-once response": while a key's entry is live — in flight, or
// completed and not yet evicted — a resubmission never re-executes the
// plan. In-flight entries coalesce duplicates onto the leader; completed
// successful entries replay the original result; failed entries are
// dropped so a later retry re-executes (an error is not a result worth
// pinning, and retrying it is the client's explicit intent). Only
// completed entries count against the LRU cap: a leader must always be
// able to settle, so in-flight keys are never evicted.
type idemWindow struct {
	mu       sync.Mutex
	inflight map[string]*idemEntry
	done     *lru.Cache[string, *idemEntry]
}

func newIdemWindow(capacity int) *idemWindow {
	return &idemWindow{
		inflight: map[string]*idemEntry{},
		done:     lru.New[string, *idemEntry](int64(capacity)),
	}
}

// begin resolves a key into its role: replay a completed entry, coalesce
// onto an in-flight one, or lead a fresh execution.
func (w *idemWindow) begin(key string) (*idemEntry, idemRole) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.done.Get(key); ok {
		return e, idemReplay
	}
	if e, ok := w.inflight[key]; ok {
		return e, idemWaiter
	}
	e := &idemEntry{key: key, done: make(chan struct{})}
	w.inflight[key] = e
	return e, idemLeader
}

// settle records the leader's outcome and releases every coalesced waiter.
// Successes enter the replay window (evicting the least-recent completed
// entry beyond cap); failures leave no trace beyond the waiters they wake,
// so the key is immediately retryable with a fresh execution.
func (w *idemWindow) settle(e *idemEntry, res *QueryResult, err error) {
	e.res, e.err = res, err
	w.mu.Lock()
	delete(w.inflight, e.key)
	if err == nil {
		w.done.Put(e.key, e, 1)
	}
	w.mu.Unlock()
	close(e.done)
}

// entries reports the completed-entry count (metrics gauge).
func (w *idemWindow) entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done.Len()
}

// replayOf returns a settled entry's result as a fresh shallow copy marked
// Replayed: the stored QueryResult is shared by every future replay, so
// callers must never receive (and possibly mutate) the canonical pointer.
// Values and ResultHash are shared with the original — that sharing is the
// bitwise-identity guarantee. The copy is taken under the lock a Release of
// the original or of an earlier replay empties Values under.
func replayOf(e *idemEntry) *QueryResult {
	e.res.cells.mu.Lock()
	out := *e.res
	e.res.cells.mu.Unlock()
	out.Replayed = true
	return &out
}
