// Multi-query optimization (MQO): cross-query redundancy elimination for
// the serving layer. Queries admitted within one batching window form an
// MQO batch. A member run's LSE source (interView) consults the batch after
// the intermediate cache, so a loop-constant subexpression appearing in
// several member plans — under its opt.SharedKey, the key the intermediate
// cache uses too, namespaced by dataset version and cluster signature —
// executes once and its materialized value feeds every consumer. Values
// stay bitwise identical to unbatched execution because the sharing key pins
// the exact kernel sequence, and failure semantics stay typed: a producer
// that fails propagates its error to every waiting consumer, a canceled
// leader is replaced by promoting a waiter, and a leader that panics
// mid-production fails its waiters with a structured Internal-class
// "abandoned" error via mqoSession.close. Which queries take part is
// reuseEligible's decision (serve.go).

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"remac/internal/engine"
)

// errSharedAbandoned marks a shared-producer wait settled by the producing
// query panicking (classified as Internal; see Server.classify).
var errSharedAbandoned = errors.New("serve: shared producer abandoned by its producing query")

// batcher groups admissions into time-windowed MQO batches: the first
// admission opens a batch that stays joinable for one window, after which
// the next admission opens a fresh one. A batch object is only kept alive
// by the jobs that belong to it, so a drained batch (and the values it
// holds) is reclaimed by GC without explicit teardown.
type batcher struct {
	mu     sync.Mutex
	window time.Duration
	cur    *mqoBatch
	until  time.Time
}

func newBatcher(window time.Duration) *batcher {
	return &batcher{window: window}
}

// assign returns the batch for an admission at time now, reporting whether
// it opened a new one.
func (b *batcher) assign(now time.Time) (*mqoBatch, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil || now.After(b.until) {
		b.cur = &mqoBatch{
			entries: map[string]*sharedEntry{},
			index:   map[string]int{},
		}
		b.until = now.Add(b.window)
		return b.cur, true
	}
	return b.cur, false
}

// mqoBatch is one window's worth of queries and their shared state: the
// producer registry (entries) and the cross-query subexpression index
// (how many member sessions announced each shareable key).
type mqoBatch struct {
	mu      sync.Mutex
	entries map[string]*sharedEntry
	index   map[string]int
}

// sharedEntry is one claimed producer key. Unsettled entries have an open
// ready channel and a live leader session between Acquire and Publish/Fail
// (the leader never blocks while unsettled, which is what makes waiting on
// ready deadlock-free). Published entries stay in the registry for the
// batch's lifetime; failed entries are removed so a later acquirer can
// re-elect.
type sharedEntry struct {
	ready chan struct{}
	v     engine.Input
	flop  float64
	err   error
}

// session opens one engine run's view of the batch, scoped to the
// intermediate-cache namespace (dataset@version|clusterSig): only runs in
// the same namespace can observe each other's values.
func (b *mqoBatch) session(namespace string) *mqoSession {
	return &mqoSession{b: b, ns: namespace, leading: map[string]*sharedEntry{}}
}

// mqoSession is a single run's view of the batch, behind the run's
// interView. It is used by that run's goroutine only; the batch mutex covers
// the shared registry.
type mqoSession struct {
	b       *mqoBatch
	ns      string
	leading map[string]*sharedEntry // unsettled claims held by this run

	hits      int     // producers adopted from siblings
	led       int     // producers executed on the batch's behalf
	flopSaved float64 // charged FLOP the adoptions avoided
}

// announce registers a compiled plan's shareable subexpressions in the
// batch's cross-query index and returns how many keys thereby became
// overlapping (announced by a second session) — the observable size of the
// redundancy MQO is about to eliminate.
func (s *mqoSession) announce(manifest []string) int {
	if len(manifest) == 0 {
		return 0
	}
	overlapped := 0
	s.b.mu.Lock()
	for _, key := range manifest {
		k := s.ns + "|" + key
		s.b.index[k]++
		if s.b.index[k] == 2 {
			overlapped++
		}
	}
	s.b.mu.Unlock()
	return overlapped
}

// shareRole is the outcome of mqoSession.Acquire.
type shareRole int

const (
	// shareHit: the returned Input is a sibling's published value.
	shareHit shareRole = iota
	// shareLead: the run computes the value for the batch and settles its
	// claim with Publish (success) or Fail (error).
	shareLead
	// shareSolo: the run computes the value for itself; nothing to settle.
	shareSolo
)

// Acquire returns the published value when a sibling already produced key,
// leadership when this run should produce it, or shareSolo when waiting
// could deadlock (this run already leads an unsettled key, so it computes
// locally instead of blocking — a session that never blocks while leading
// cannot take part in a wait cycle). A leader that failed with cancellation
// is replaced by promoting the first waiter back through the lock, mirroring
// the plan cache's failure path; any other leader error propagates typed to
// every waiter.
func (s *mqoSession) Acquire(ctx context.Context, key string) (engine.Input, shareRole, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := s.ns + "|" + key
	for {
		s.b.mu.Lock()
		e, ok := s.b.entries[k]
		if !ok {
			e = &sharedEntry{ready: make(chan struct{})}
			s.b.entries[k] = e
			s.leading[k] = e
			s.b.mu.Unlock()
			return engine.Input{}, shareLead, nil
		}
		holding := len(s.leading) > 0
		s.b.mu.Unlock()
		select {
		case <-e.ready:
		default:
			if holding {
				return engine.Input{}, shareSolo, nil
			}
			select {
			case <-e.ready:
			case <-ctx.Done():
				return engine.Input{}, 0, fmt.Errorf("serve: shared-producer wait: %w (%v)", engine.ErrCanceled, ctx.Err())
			}
		}
		switch {
		case e.err == nil:
			s.hits++
			s.flopSaved += e.flop
			return e.v, shareHit, nil
		case errors.Is(e.err, engine.ErrCanceled):
			// The leader's own context ended — not this consumer's problem.
			// Loop: the failed entry was removed, so the first waiter back
			// promotes itself to the new leader.
			continue
		default:
			return engine.Input{}, 0, fmt.Errorf("serve: shared producer %q: %w", key, e.err)
		}
	}
}

// Publish settles the leader's claim with the materialized value and the
// charged FLOP one production cost (adopters account it as savings); it
// ignores a key this run does not lead.
func (s *mqoSession) Publish(key string, v engine.Input, flop float64) {
	k := s.ns + "|" + key
	s.b.mu.Lock()
	e := s.leading[k]
	delete(s.leading, k)
	if e != nil {
		e.v, e.flop = v, flop
	}
	s.b.mu.Unlock()
	if e != nil {
		s.led++
		close(e.ready)
	}
}

// Fail settles the leader's claim with the production error; it ignores a
// key this run does not lead. The entry is removed from the registry so a
// later acquirer re-elects rather than inheriting a stale failure.
func (s *mqoSession) Fail(key string, err error) {
	s.fail(s.ns+"|"+key, err)
}

func (s *mqoSession) fail(k string, err error) {
	s.b.mu.Lock()
	e := s.leading[k]
	delete(s.leading, k)
	if e != nil {
		e.err = err
		delete(s.b.entries, k)
	}
	s.b.mu.Unlock()
	if e != nil {
		close(e.ready)
	}
}

// close settles every claim the session still holds when its run unwinds
// and returns how many there were. On the normal paths the engine settles
// inline and this is a no-op; a panic in the producing run reaches here
// with runErr nil, and each waiting sibling gets a typed Internal-class
// error (errSharedAbandoned) instead of a silent hang. runErr is flattened
// into the message rather than wrapped so concurrent consumers never share
// a mutable error value.
func (s *mqoSession) close(runErr error) int {
	if len(s.leading) == 0 {
		return 0
	}
	err := fmt.Errorf("%w (producing query panicked)", errSharedAbandoned)
	if runErr != nil {
		err = fmt.Errorf("%w (producing query failed: %v)", errSharedAbandoned, runErr)
	}
	keys := make([]string, 0, len(s.leading))
	for k := range s.leading {
		keys = append(keys, k)
	}
	for _, k := range keys {
		s.fail(k, err)
	}
	return len(keys)
}
