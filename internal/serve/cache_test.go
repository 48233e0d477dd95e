package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remac/internal/engine"
	"remac/internal/matrix"
	"remac/internal/opt"
)

func denseIntermediate(rows, cols int) engine.Input {
	m := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float64(i*cols+j+1))
		}
	}
	return engine.Input{Data: m, VRows: int64(rows), VCols: int64(cols)}
}

func TestInterCacheBudgetEviction(t *testing.T) {
	v := denseIntermediate(10, 10)
	per := matrix.SizeBytesFor(10, 10, v.Data.Sparsity())
	c := newInterCache(3 * per)
	c.put("a", v)
	c.put("b", v)
	c.put("c", v)
	if n, used := c.usage(); n != 3 || used != 3*per {
		t.Fatalf("usage = %d entries/%d bytes, want 3/%d", n, used, 3*per)
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("lost entry a")
	}
	c.put("d", v)
	if _, ok := c.get("b"); ok {
		t.Error("LRU victim b survived over-budget insert")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("entry %s evicted unexpectedly", k)
		}
	}
	// A value larger than the whole budget is refused outright.
	c.put("huge", denseIntermediate(100, 100))
	if _, ok := c.get("huge"); ok {
		t.Error("over-budget value was cached")
	}
	if n, _ := c.usage(); n != 3 {
		t.Errorf("entries = %d after refused insert, want 3", n)
	}
}

func TestInterCacheDropNamespace(t *testing.T) {
	v := denseIntermediate(4, 4)
	c := newInterCache(1 << 20)
	c.put("ds1@0|k1", v)
	c.put("ds1@0|k2", v)
	c.put("ds2@0|k1", v)
	c.dropNamespace("ds1@")
	if _, ok := c.get("ds1@0|k1"); ok {
		t.Error("ds1 entry survived its namespace drop")
	}
	if _, ok := c.get("ds2@0|k1"); !ok {
		t.Error("ds2 entry dropped by ds1 invalidation")
	}
	if n, used := c.usage(); n != 1 || used <= 0 {
		t.Errorf("usage = %d entries/%d bytes, want 1 entry with positive bytes", n, used)
	}
}

func TestInterViewCountsAndPrefixes(t *testing.T) {
	c := newInterCache(1 << 20)
	a := c.view("nsA")
	b := c.view("nsB")
	v := denseIntermediate(2, 2)
	a.Publish("k", v, 0)
	if _, ok, _ := a.Acquire(context.Background(), "k"); !ok {
		t.Fatal("nsA lost its own entry")
	}
	if _, ok, _ := b.Acquire(context.Background(), "k"); ok {
		t.Error("nsB read nsA's entry")
	}
	if a.hits != 1 || a.misses != 0 || b.hits != 0 || b.misses != 1 {
		t.Errorf("counters: a=%d/%d b=%d/%d, want 1/0 and 0/1", a.hits, a.misses, b.hits, b.misses)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	p := newPlanCache(2)
	mk := func(key string) (*opt.Compiled, bool, error) {
		return p.getOrCompile(context.Background(), key, func() (*opt.Compiled, error) {
			return &opt.Compiled{}, nil
		})
	}
	if _, hit, _ := mk("a"); hit {
		t.Error("empty cache reported a hit")
	}
	mk("b")
	mk("a") // refresh a; b becomes LRU
	mk("c") // evicts b
	if _, hit, _ := mk("a"); !hit {
		t.Error("a evicted despite recent use")
	}
	if _, hit, _ := mk("b"); hit {
		t.Error("LRU victim b still cached")
	}
	if p.len() != 2 {
		t.Errorf("len = %d, want 2", p.len())
	}
}

// TestPlanCacheCoalesces: concurrent requests for one key compile once.
func TestPlanCacheCoalesces(t *testing.T) {
	p := newPlanCache(4)
	var compiles atomic.Int32
	release := make(chan struct{})
	compile := func() (*opt.Compiled, error) {
		compiles.Add(1)
		<-release
		return &opt.Compiled{}, nil
	}
	const n = 8
	var wg sync.WaitGroup
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hit, err := p.getOrCompile(context.Background(), "k", compile)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			hits[i] = hit
		}(i)
	}
	// Let the leader enter compile and the waiters pile up, then release.
	for compiles.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if got := compiles.Load(); got != 1 {
		t.Errorf("compile ran %d times for one key, want 1", got)
	}
	misses := 0
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers compiled, want exactly the leader", misses)
	}
}

// TestPlanCacheFailureNotCached: a failed compile is never cached and the
// key is retryable.
func TestPlanCacheFailureNotCached(t *testing.T) {
	p := newPlanCache(4)
	boom := errors.New("boom")
	if _, hit, err := p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
		return nil, boom
	}); !errors.Is(err, boom) || hit {
		t.Fatalf("failed compile: hit=%v err=%v, want miss with boom", hit, err)
	}
	if p.len() != 0 {
		t.Errorf("failed compile cached: len=%d", p.len())
	}
	if _, hit, err := p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
		return &opt.Compiled{}, nil
	}); err != nil || hit {
		t.Errorf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// TestInterCachePutRefreshesBytes: re-offering an existing key with a
// different modelled size must move the byte accounting to the new size —
// the old behavior kept the stale charge, drifting used away from the sum
// of resident entries until the budget was effectively corrupted.
func TestInterCachePutRefreshesBytes(t *testing.T) {
	small := denseIntermediate(4, 4)
	big := denseIntermediate(8, 8)
	smallBytes := matrix.SizeBytesFor(4, 4, small.Data.Sparsity())
	bigBytes := matrix.SizeBytesFor(8, 8, big.Data.Sparsity())
	c := newInterCache(1 << 20)
	c.put("k", small)
	c.put("k", big) // re-offer: same key, larger modelled size
	if n, used := c.usage(); n != 1 || used != bigBytes {
		t.Fatalf("after grow re-offer: %d entries/%d bytes, want 1/%d", n, used, bigBytes)
	}
	got, ok := c.get("k")
	if !ok || got.Data != big.Data {
		t.Fatal("re-offer did not refresh the resident value")
	}
	c.put("k", small) // and back down: accounting follows both directions
	if n, used := c.usage(); n != 1 || used != smallBytes {
		t.Fatalf("after shrink re-offer: %d entries/%d bytes, want 1/%d", n, used, smallBytes)
	}
	// Eviction decisions after refreshes see the true usage: a budget with
	// room for the small value plus one more is not blown by stale bytes.
	c2 := newInterCache(2 * bigBytes)
	c2.put("a", big)
	c2.put("a", small)
	c2.put("b", big)
	if n, used := c2.usage(); n != 2 || used != smallBytes+bigBytes {
		t.Errorf("refresh+insert: %d entries/%d bytes, want 2/%d", n, used, smallBytes+bigBytes)
	}
	if _, ok := c2.get("a"); !ok {
		t.Error("entry a evicted although the refreshed usage fits the budget")
	}
}

// TestPlanCacheWaiterFallsBackOnLeaderFailure: a waiter coalesced behind a
// failing leader compiles independently rather than inheriting the error.
func TestPlanCacheWaiterFallsBackOnLeaderFailure(t *testing.T) {
	p := newPlanCache(4)
	boom := errors.New("boom")
	release := make(chan struct{})
	entered := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
			close(entered)
			<-release
			return nil, boom
		})
		leaderDone <- err
	}()
	<-entered // the leader is registered in-flight and blocked

	var waiterCompiled atomic.Int32
	waiterDone := make(chan struct{})
	var waiterC *opt.Compiled
	var waiterHit bool
	var waiterErr error
	go func() {
		waiterC, waiterHit, waiterErr = p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
			waiterCompiled.Add(1)
			return &opt.Compiled{}, nil
		})
		close(waiterDone)
	}()
	// Give the waiter a moment to park on the leader's ready channel, then
	// fail the leader. (If the waiter hasn't parked yet it still takes the
	// fallback path — the property under test holds either way.)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	<-waiterDone
	if waiterErr != nil || waiterC == nil {
		t.Fatalf("waiter: err=%v compiled=%v, want fallback success", waiterErr, waiterC)
	}
	if waiterHit {
		t.Error("waiter reported a hit behind a failed leader")
	}
	if waiterCompiled.Load() != 1 {
		t.Errorf("waiter compiled %d times, want 1", waiterCompiled.Load())
	}
}

// TestPlanCacheFailedLeaderPromotesWaiter: when a compiling leader fails
// with a crowd of waiters parked behind it, exactly one waiter is promoted
// to recompile and its success is cached for everyone — the old behavior
// sent every waiter off to compile independently and never cached any of
// their successes, costing one compilation per waiter instead of one total.
func TestPlanCacheFailedLeaderPromotesWaiter(t *testing.T) {
	p := newPlanCache(4)
	boom := errors.New("boom")
	release := make(chan struct{})
	entered := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
			close(entered)
			<-release
			return nil, boom
		})
		leaderDone <- err
	}()
	<-entered // the leader is registered in-flight and blocked

	const n = 6
	var waiterCompiles atomic.Int32
	hits := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hit, err := p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
				waiterCompiles.Add(1)
				return &opt.Compiled{}, nil
			})
			hits[i], errs[i] = hit, err
		}(i)
	}
	// Let the waiters pile up behind the in-flight leader, then fail it.
	// (A waiter that hasn't parked yet races through the same promotion
	// path on arrival; compilations still serialize through the in-flight
	// slot and each success is cached, so the assertions hold either way.)
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := waiterCompiles.Load(); got != 1 {
		t.Errorf("a failed leader cost %d waiter recompiles, want exactly 1", got)
	}
	misses := 0
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d waiters reported compiling, want exactly the promoted one", misses)
	}
	// The promoted waiter's success was cached: a later request hits
	// without compiling, and the cache holds the one entry.
	if _, hit, err := p.getOrCompile(context.Background(), "k", func() (*opt.Compiled, error) {
		return nil, errors.New("unexpected recompile")
	}); err != nil || !hit {
		t.Errorf("post-promotion lookup: hit=%v err=%v, want cached hit", hit, err)
	}
	if p.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", p.len())
	}
}
