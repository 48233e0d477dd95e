package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remac/internal/algorithms"
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

// TestIntermediateBudgetThroughTheServer: the -inter-budget knob as served
// queries see it. GD, DFP and GNMF on two datasets, served through a server
// whose intermediate budget is one byte short of what the workload publishes,
// keep the cache within the budget and evict — the workload publishes more
// values than the cache ends up holding, and a repeat of the first query
// misses what it published, where an unbounded cache hits — and return the
// bits of cache-free runs. A negative budget caches nothing and returns the
// same bits.
func TestIntermediateBudgetThroughTheServer(t *testing.T) {
	var queries []Query
	for _, ds := range []string{"cri1", "red1"} {
		for _, alg := range []algorithms.Name{algorithms.GD, algorithms.DFP, algorithms.GNMF} {
			queries = append(queries, testQuery(t, alg, ds, 3))
		}
	}
	// run serves the workload and then its first query again, one at a time.
	run := func(cfg Config, noCache bool) (Snapshot, []*QueryResult) {
		s := New(cfg)
		defer s.Shutdown(context.Background())
		var out []*QueryResult
		for _, q := range append(queries, queries[0]) {
			q.NoIntermediateCache = noCache
			res, err := s.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return s.Metrics(), out
	}
	_, ref := run(Config{Workers: 1}, true)
	unbounded, free := run(Config{Workers: 1}, false)
	if repeat := free[len(queries)]; repeat.IntermediateHits == 0 || repeat.IntermediateMisses != 0 {
		t.Fatalf("unbounded cache: the repeat had %d hits, %d misses; want hits only", repeat.IntermediateHits, repeat.IntermediateMisses)
	}

	budget := unbounded.InterBytes - 1
	bounded, got := run(Config{Workers: 1, IntermediateBudgetBytes: budget}, false)
	if bounded.InterBytes > budget {
		t.Errorf("intermediate_cache_bytes %d over the %d-byte budget", bounded.InterBytes, budget)
	}
	published := 0
	for _, res := range got {
		published += res.IntermediateMisses // a sequential miss computes the value and publishes it
	}
	if bounded.InterEntries >= published {
		t.Errorf("%d values published, %d entries held: nothing was evicted", published, bounded.InterEntries)
	}
	if repeat := got[len(queries)]; repeat.IntermediateMisses == 0 {
		t.Errorf("the repeat of the first query missed nothing under a %d-byte budget", budget)
	}

	off, none := run(Config{Workers: 1, IntermediateBudgetBytes: -1}, false)
	if off.InterEntries != 0 || off.InterHits != 0 || off.InterBytes != 0 {
		t.Errorf("negative budget: %d entries, %d hits, %d bytes; want none", off.InterEntries, off.InterHits, off.InterBytes)
	}
	for i := range ref {
		for _, arm := range [][]*QueryResult{got, none} {
			if arm[i].ResultHash != ref[i].ResultHash {
				t.Errorf("query %d: hash %016x, cache-free run %016x", i, arm[i].ResultHash, ref[i].ResultHash)
			}
			bitwiseEqualValues(t, ref[i].Values, arm[i].Values)
		}
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
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	a, b := s.view("dsA"), s.view("dsB")
	v := denseIntermediate(2, 2)
	a.Publish("k", v)
	if _, ok := a.Acquire("k"); !ok {
		t.Fatal("dsA lost its own entry")
	}
	if _, ok := b.Acquire("k"); ok {
		t.Error("dsB read dsA's entry")
	}
	if a.hits != 1 || a.misses != 0 || b.hits != 0 || b.misses != 1 {
		t.Errorf("counters: a=%d/%d b=%d/%d, want 1/0 and 0/1", a.hits, a.misses, b.hits, b.misses)
	}
}

// TestLatePublishAfterInvalidateLeavesNoEntry: a run whose view was bound
// before an InvalidateDataset publishes after it. Its key is under the
// retired version, which nothing can reach, so the cache must not keep it
// holding budget until the LRU evicts it.
func TestLatePublishAfterInvalidateLeavesNoEntry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	late := s.view("cri1")
	s.InvalidateDataset("cri1")
	late.Publish("k", denseIntermediate(2, 2))
	if n, bytes := s.inter.usage(); n != 0 || bytes != 0 {
		t.Fatalf("cache holds %d entries (%d bytes) after a publish under a retired version, want none", n, bytes)
	}
	fresh := s.view("cri1")
	fresh.Publish("k", denseIntermediate(2, 2))
	if _, ok := s.view("cri1").Acquire("k"); !ok {
		t.Fatal("a publish under the current version was dropped")
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
