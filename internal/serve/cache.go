package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"remac/internal/engine"
	"remac/internal/lang"
	"remac/internal/lru"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// planKey is the compiled-plan cache identity: canonical program text plus
// everything else of the query that can change the chosen plan — input
// shapes and sparsity buckets, strategy, and the expected iteration count
// the adaptive selector amortizes over (estimator, combiner and cluster are
// the same for every query, see execute). Key computation is on the warm
// path; a matrix carries its nonzero count, so only the first key over a
// given input scans it.
func planKey(q Query) (string, error) {
	canon, err := lang.Canonical(q.Script)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(q.Inputs))
	for name := range q.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(canon)
	b.WriteByte('\n')
	for _, name := range names {
		in := q.Inputs[name]
		if in.Data == nil {
			return "", fmt.Errorf("serve: input %q has nil data", name)
		}
		vr, vc := in.VRows, in.VCols
		if vr <= 0 {
			vr = int64(in.Data.Rows())
		}
		if vc <= 0 {
			vc = int64(in.Data.Cols())
		}
		fmt.Fprintf(&b, "%s=%dx%d@%s;", name, vr, vc, sparsityBucket(in.Data.Sparsity()))
	}
	fmt.Fprintf(&b, "\n%v|it%d", q.Strategy, q.Iterations)
	return b.String(), nil
}

// sparsityBucket coarsens a sparsity to two significant digits so inputs
// differing only by estimation noise share plans, while order-of-magnitude
// differences (which flip dense/sparse kernel choices) do not.
func sparsityBucket(s float64) string {
	if s >= 1 {
		return "1"
	}
	return strconv.FormatFloat(s, 'e', 1, 64)
}

// planEntry is one in-flight compilation.
type planEntry struct {
	c     *opt.Compiled
	err   error
	ready chan struct{}
}

// planCache is an LRU of compiled plans with in-flight coalescing: one
// compilation per key runs at a time, and concurrent requests for the same
// key wait for it rather than duplicating the search.
type planCache struct {
	mu       sync.Mutex
	plans    *lru.Cache[string, *opt.Compiled]
	inflight map[string]*planEntry
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		plans:    lru.New[string, *opt.Compiled](int64(capacity)),
		inflight: map[string]*planEntry{},
	}
}

// getOrCompile returns the plan for key, compiling it at most once across
// concurrent callers. hit reports whether this caller avoided compiling
// itself (cached entry or a successful concurrent leader).
func (p *planCache) getOrCompile(ctx context.Context, key string, compile func() (*opt.Compiled, error)) (c *opt.Compiled, hit bool, err error) {
	var e *planEntry
	for e == nil {
		p.mu.Lock()
		if c, ok := p.plans.Get(key); ok {
			p.mu.Unlock()
			return c, true, nil
		}
		if w, ok := p.inflight[key]; ok {
			p.mu.Unlock()
			select {
			case <-w.ready:
			case <-ctx.Done():
				return nil, false, opt.Canceled("serve: plan wait", ctx.Err())
			}
			if w.err == nil {
				return w.c, true, nil
			}
			// The leader failed; its error may be specific to its context
			// (e.g. a deadline), so don't inherit it. Loop instead: the
			// first waiter back through the lock promotes itself to the new
			// in-flight leader and its success is cached, while the rest
			// coalesce behind it — a failed leader costs the group one
			// recompile, not one per waiter.
			continue
		}
		e = &planEntry{ready: make(chan struct{})}
		p.inflight[key] = e
		p.mu.Unlock()
	}

	e.c, e.err = compile()

	p.mu.Lock()
	delete(p.inflight, key)
	if e.err == nil {
		p.plans.Put(key, e.c, 1)
	}
	p.mu.Unlock()
	close(e.ready)
	return e.c, false, e.err
}

func (p *planCache) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.plans.Len()
}

// interCache is a byte-budgeted LRU of materialized LSE intermediates.
// Entries are charged at the value's modelled virtual-scale size — the
// cache stands in for cluster memory, so its budget is accounted in the
// same units the simulated cluster's cost model uses.
type interCache struct {
	mu sync.Mutex
	c  *lru.Cache[string, engine.Input]
}

func newInterCache(budget int64) *interCache {
	return &interCache{c: lru.New[string, engine.Input](budget)}
}

func (c *interCache) get(key string) (engine.Input, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Get(key)
}

// put offers a value at its modelled size. A re-offer refreshes the value
// and its byte charge (the producer's sparsity may have settled
// differently); a value larger than the whole budget is not cacheable.
func (c *interCache) put(key string, v engine.Input) {
	if v.Data == nil {
		return
	}
	bytes := matrix.SizeBytesFor(int(v.VRows), int(v.VCols), v.Data.Sparsity())
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Put(key, v, bytes)
}

// dropNamespace evicts every entry whose key starts with prefix (dataset
// invalidation).
func (c *interCache) dropNamespace(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Each(func(key string, _ engine.Input) bool { return strings.HasPrefix(key, prefix) })
}

func (c *interCache) usage() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Len(), c.c.Cost()
}

// interView is one run's engine.LSESource: the intermediate cache under the
// run's namespace, dataset@version, with the version bound when the view is
// made (Server.view). A view is used by a single engine run (one goroutine)
// and counts that run's cache hits and misses; the cache synchronizes the
// runs that share it.
type interView struct {
	s            *Server
	dataset      string
	version      int64
	ns           string
	hits, misses int
}

// Acquire adopts the cached value, else reports a miss: the run computes it.
func (v *interView) Acquire(key string) (engine.Input, bool) {
	iv, ok := v.s.inter.get(v.ns + "|" + key)
	if ok {
		v.hits++
	} else {
		v.misses++
	}
	return iv, ok
}

// Publish offers the value to the cache. InvalidateDataset bumps the version
// before it drops the namespace, so a put that lands after the drop sees the
// bump here and drops the retired namespace itself: no entry outlives its
// version unreachable.
func (v *interView) Publish(key string, iv engine.Input) {
	v.s.inter.put(v.ns+"|"+key, iv)
	if v.s.DatasetVersion(v.dataset) != v.version {
		v.s.inter.dropNamespace(v.ns + "|")
	}
}
