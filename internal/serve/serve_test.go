package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/resilience"
)

// testQuery builds a serve query for a workload over a loaded dataset.
func testQuery(t *testing.T, alg algorithms.Name, dsName string, iters int) Query {
	t.Helper()
	src, err := algorithms.Script(alg, iters)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := data.MustLoad(dsName).Inputs(alg)
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]engine.Input{}
	for _, in := range bound {
		ins[in.Name] = engine.Input{Data: in.Data, VRows: in.VRows, VCols: in.VCols}
	}
	q := NewQuery(src, ins)
	q.Dataset = dsName
	q.Iterations = iters
	return q
}

// bitwiseEqual compares every cell by its float64 bit pattern — stricter
// than numeric equality (distinguishes -0 from 0 and any NaN payloads).
func bitwiseEqual(a, b *matrix.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

func bitwiseEqualValues(t *testing.T, a, b map[string]*matrix.Matrix) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("result variable sets differ: %d vs %d", len(a), len(b))
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			t.Fatalf("variable %s missing from second result", name)
		}
		if !bitwiseEqual(av, bv) {
			t.Errorf("variable %s differs bitwise between runs", name)
		}
	}
}

// TestServeCachedResultsBitwiseIdentical is the core cache-correctness
// property: a query answered from warm caches (plan + intermediates) must
// return results bitwise identical to a fully cold, cache-free run.
func TestServeCachedResultsBitwiseIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	q := testQuery(t, algorithms.DFP, "cri1", 5)

	// Cold reference: all caches bypassed.
	ref := q
	ref.NoPlanCache = true
	ref.NoIntermediateCache = true
	refRes, err := s.Do(context.Background(), ref)
	if err != nil {
		t.Fatalf("cache-off run: %v", err)
	}
	if refRes.PlanCacheHit || refRes.IntermediateHits != 0 {
		t.Fatalf("cache-off run consulted caches: %+v", refRes)
	}

	// First cached run: populates both caches.
	warm1, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("first cached run: %v", err)
	}
	if warm1.PlanCacheHit {
		t.Error("first cached run reported a plan-cache hit on an empty cache")
	}
	// Second cached run: everything should hit.
	warm2, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("second cached run: %v", err)
	}
	if !warm2.PlanCacheHit {
		t.Error("second run missed the plan cache")
	}
	if warm2.IntermediateHits == 0 {
		t.Error("second run got no intermediate-cache hits (DFP has LSE intermediates)")
	}
	bitwiseEqualValues(t, refRes.Values, warm1.Values)
	bitwiseEqualValues(t, refRes.Values, warm2.Values)
}

// TestUnverifiedCorruptionPoisonsNoCache: a query that schedules payload
// corruption with verification off may compute damaged values, so it must not
// take part in reuse. A clean query after it on the same dataset is then
// bitwise the cache-free reference, not served a corrupted intermediate.
func TestUnverifiedCorruptionPoisonsNoCache(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.DFP, "cri1", 3)

	ref := q
	ref.NoIntermediateCache = true
	refRes, err := s.Do(context.Background(), ref)
	if err != nil {
		t.Fatalf("cache-off run: %v", err)
	}
	bad := q
	bad.Faults = fault.NewPlan(fault.Config{Seed: 1, CorruptionsPerHour: 1e3})
	badRes, err := s.Do(context.Background(), bad)
	if err != nil {
		t.Fatalf("corrupting run: %v", err)
	}
	if badRes.CorruptionsInjected == 0 {
		t.Fatal("the corrupting run injected nothing: the test would prove nothing")
	}
	clean, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.IntermediateHits != 0 {
		t.Errorf("clean run got %d intermediate hits after a run that may not share", clean.IntermediateHits)
	}
	if clean.ResultHash != refRes.ResultHash {
		t.Errorf("clean run hash %016x, cache-free reference %016x", clean.ResultHash, refRes.ResultHash)
	}
	bitwiseEqualValues(t, refRes.Values, clean.Values)
}

// TestPlanCacheHitCompilesNothing: after the cold run's one miss, every warm
// run reports a hit and the miss count stays one while the hits reach three:
// counted operations, not wall time, which a loaded host stretches on either
// side.
func TestPlanCacheHitCompilesNothing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.DFP, "cri2", 5)
	cold, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCacheHit {
		t.Fatal("cold run hit the plan cache")
	}
	for i := 0; i < 3; i++ {
		res, err := s.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PlanCacheHit {
			t.Fatal("warm run missed the plan cache")
		}
	}
	if m := s.Metrics(); m.PlanMisses != 1 || m.PlanHits != 3 {
		t.Errorf("plan cache: %d misses, %d hits after one cold and three warm runs, want 1 and 3", m.PlanMisses, m.PlanHits)
	}
}

// TestIntermediatesDoNotSurviveDatasetBump: after InvalidateDataset the
// old intermediates must be unreachable (negative cache-correctness test).
func TestIntermediatesDoNotSurviveDatasetBump(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.DFP, "cri1", 5)
	if _, err := s.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	res, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateHits == 0 {
		t.Fatal("warm run got no intermediate hits; test cannot proceed")
	}
	s.InvalidateDataset("cri1")
	if entries, _ := s.inter.usage(); entries != 0 {
		t.Errorf("%d intermediate entries survived dataset invalidation", entries)
	}
	res, err = s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateHits != 0 {
		t.Errorf("got %d intermediate hits across a dataset version bump", res.IntermediateHits)
	}
}

// TestPlanCacheIgnoresFormatting: scripts differing only in whitespace and
// comments share a plan.
func TestPlanCacheIgnoresFormatting(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.GD, "cri1", 3)
	if _, err := s.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	reformatted := q
	reformatted.Script = "# a comment\n" + q.Script + "\n\n"
	res, err := s.Do(context.Background(), reformatted)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCacheHit {
		t.Error("reformatted script missed the plan cache")
	}
}

// TestOverloadAndCancel exercises admission-queue rejection and caller
// cancellation deterministically against a server with no workers (so jobs
// stay queued).
func TestOverloadAndCancel(t *testing.T) {
	s := &Server{
		cfg:      Config{QueueDepth: 1}.withDefaults(),
		queue:    make(chan *job, 1),
		metrics:  newMetrics(),
		versions: map[string]int64{},
		idem:     newIdemWindow(idemEntries),
	}
	q := testQuery(t, algorithms.GD, "cri1", 2)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, q)
		errc <- err
	}()
	// Wait until the first job occupies the queue.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Do(context.Background(), q); !errors.Is(err, ErrOverloaded) {
		t.Errorf("full queue: got %v, want ErrOverloaded", err)
	}
	snap := s.Metrics()
	if snap.Rejected != 1 || snap.QueueDepth != 1 {
		t.Errorf("metrics after rejection: rejected=%d queue=%d, want 1,1", snap.Rejected, snap.QueueDepth)
	}
	cancel()
	if err := <-errc; !errors.Is(err, engine.ErrCanceled) {
		t.Errorf("canceled caller: got %v, want ErrCanceled", err)
	}
	s.mu.Lock()
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	if _, err := s.Do(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Errorf("closed server: got %v, want ErrClosed", err)
	}
}

// TestDoRacingShutdownFailsTyped: a query that meets a server shutting down
// fails like every other Do failure, as a QueryError — Overloaded-class and
// still matching ErrClosed, so a gateway spills it to another shard — whether
// it raced Shutdown (with or without an idempotency key) or came after it.
func TestDoRacingShutdownFailsTyped(t *testing.T) {
	q := testQuery(t, algorithms.GD, "cri1", 1)
	closedErr := func(what string, err error) {
		var qe *resilience.QueryError
		if !errors.As(err, &qe) {
			t.Errorf("%s: untyped error %v", what, err)
		} else if errors.Is(err, ErrClosed) && qe.Class != resilience.Overloaded {
			t.Errorf("%s: closed server failed as %s, want overloaded: %v", what, qe.Class, err)
		}
	}
	s := New(Config{Workers: 1})
	start := make(chan struct{})
	errc := make(chan error, 8)
	for i := 0; i < cap(errc); i++ {
		kq := q
		if i%2 == 1 {
			kq.IdempotencyKey = fmt.Sprintf("race-%d", i)
		}
		go func() {
			<-start
			_, err := s.Do(context.Background(), kq)
			errc <- err
		}()
	}
	close(start)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(errc); i++ {
		if err := <-errc; err != nil {
			closedErr("raced Shutdown", err)
		}
	}
	for _, key := range []string{"", "after"} {
		late := q
		late.IdempotencyKey = key
		_, err := s.Do(context.Background(), late)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("after Shutdown (key %q): got %v, want ErrClosed", key, err)
		}
		closedErr("after Shutdown", err)
	}
}

// TestQueryTimeout: a query with an unreachable deadline fails with
// ErrCanceled and is accounted as canceled, not failed.
func TestQueryTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.DFP, "cri2", 5)
	q.Timeout = time.Nanosecond
	if _, err := s.Do(context.Background(), q); !errors.Is(err, engine.ErrCanceled) {
		t.Errorf("timed-out query: got %v, want ErrCanceled", err)
	}
	snap := s.Metrics()
	if snap.Canceled != 1 || snap.Failed != 0 {
		t.Errorf("canceled=%d failed=%d, want 1,0", snap.Canceled, snap.Failed)
	}
}

// TestCanceledWhileQueued is the regression test for the Do context race:
// a query whose context expires while it still sits in the admission queue
// must be counted as canceled — never executed — and its jobOut channel
// must be settled (buffered send) so nothing leaks.
func TestCanceledWhileQueued(t *testing.T) {
	// No worker goroutines: jobs stay queued until we drain by hand.
	s := &Server{
		cfg:      Config{QueueDepth: 2}.withDefaults(),
		queue:    make(chan *job, 2),
		metrics:  newMetrics(),
		versions: map[string]int64{},
		idem:     newIdemWindow(idemEntries),
	}
	executed := false
	q := testQuery(t, algorithms.GD, "cri1", 2)
	q.Probe = func() error { executed = true; return nil }

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, q)
		errc <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// The caller gives up while the job is still queued.
	cancel()
	if err := <-errc; !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("Do returned %v, want ErrCanceled", err)
	}
	// Now a worker arrives and drains the queue: the stale job must be
	// settled as canceled without executing.
	s.mu.Lock()
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.worker()
	s.wg.Wait()
	if executed {
		t.Error("canceled-while-queued query was executed")
	}
	snap := s.Metrics()
	if snap.Canceled != 1 || snap.Completed != 0 || snap.Failed != 0 {
		t.Errorf("canceled=%d completed=%d failed=%d, want 1,0,0",
			snap.Canceled, snap.Completed, snap.Failed)
	}
	if snap.QueueDepth != 0 || snap.InFlight != 0 {
		t.Errorf("queue=%d inflight=%d after drain, want 0,0", snap.QueueDepth, snap.InFlight)
	}
}

// TestPanicIsolation: a panicking query yields a structured Internal-class
// error with a redacted stack, and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	bomb := testQuery(t, algorithms.GD, "cri1", 2)
	bomb.Probe = func() error { panic("poison query") }
	_, err := s.Do(context.Background(), bomb)
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.Class != resilience.Internal {
		t.Fatalf("panic query: got %v, want Internal-class QueryError", err)
	}
	if !errors.Is(err, resilience.ErrInternal) {
		t.Error("errors.Is(err, resilience.ErrInternal) = false")
	}
	if qe.Stack == "" || strings.Contains(qe.Stack, "[running]") {
		t.Errorf("stack not captured/redacted: %q", qe.Stack)
	}
	if !strings.Contains(qe.Stack, "guarded") {
		t.Errorf("stack lost the panicking frames: %q", qe.Stack)
	}
	if regexp.MustCompile(`0x[0-9a-fA-F]{4,}`).MatchString(qe.Stack) {
		t.Errorf("stack leaks raw addresses: %q", qe.Stack)
	}
	// The pool survives: a healthy query still completes.
	if _, err := s.Do(context.Background(), testQuery(t, algorithms.GD, "cri1", 2)); err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	snap := s.Metrics()
	if snap.PanicsRecovered != 1 {
		t.Errorf("panics recovered = %d, want 1", snap.PanicsRecovered)
	}
}

// TestWorkerRespawn: a panic escaping the per-query guard (here: a send on
// an already-closed out channel, a pool bug by construction) kills the
// worker goroutine, which must respawn and keep draining.
func TestWorkerRespawn(t *testing.T) {
	s := &Server{
		cfg:      Config{QueueDepth: 2, Workers: 1}.withDefaults(),
		queue:    make(chan *job, 2),
		metrics:  newMetrics(),
		versions: map[string]int64{},
		idem:     newIdemWindow(idemEntries),
	}
	q := testQuery(t, algorithms.GD, "cri1", 2)
	poisoned := &job{id: 1, ctx: context.Background(), q: q, out: make(chan jobOut, 1)}
	close(poisoned.out) // worker's settle send will panic
	healthy := &job{id: 2, ctx: context.Background(), q: q, out: make(chan jobOut, 1)}
	s.queue <- poisoned
	s.queue <- healthy
	s.mu.Lock()
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.worker()
	s.wg.Wait()
	o := <-healthy.out
	if o.err != nil {
		t.Fatalf("healthy job after worker panic: %v", o.err)
	}
	if snap := s.Metrics(); snap.WorkerRespawns != 1 {
		t.Errorf("worker respawns = %d, want 1", snap.WorkerRespawns)
	}
}

// TestExecutionsDebitTheAllowance: a query executes once, and an allowance
// handed down in the context pays one unit for it before it starts, whatever
// is left over; one that arrives empty buys no execution and fails typed. A
// query nobody upstream bounded executes once all the same.
func TestExecutionsDebitTheAllowance(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.GD, "cri1", 2)
	failing := q
	var execs int
	failing.Probe = func() error {
		execs++
		return errors.New("induced execution failure")
	}
	for _, handed := range []int{-1, 1, 2, 9} { // -1: no allowance in the context
		for _, tq := range []Query{q, failing} {
			execs = 0
			ctx := context.Background()
			var allow *resilience.Allowance
			if handed >= 0 {
				allow = resilience.NewAllowance(handed)
				ctx = resilience.WithAllowance(ctx, allow)
			}
			before := s.Metrics().Executions
			_, err := s.Do(ctx, tq)
			if tq.Probe == nil {
				if after := s.Metrics().Executions; err != nil || after != before+1 {
					t.Errorf("handed %d: %d executions (err %v), want 1", handed, after-before, err)
				}
			} else if !errors.Is(err, resilience.ErrExecution) || execs != 1 {
				t.Errorf("handed %d: failing query ran %d times (err %v), want once ending in the execution error", handed, execs, err)
			}
			if allow != nil && allow.Left() != handed-1 {
				t.Errorf("handed %d: %d left after one execution, want %d", handed, allow.Left(), handed-1)
			}
		}
	}

	execs = 0
	before := s.Metrics()
	_, err := s.Do(resilience.WithAllowance(context.Background(), resilience.NewAllowance(0)), failing)
	if !errors.Is(err, resilience.ErrAllowanceSpent) || !resilience.IsClass(err, resilience.Overloaded) || execs != 0 {
		t.Fatalf("empty allowance: %d executions, err %v; want none and Overloaded/ErrAllowanceSpent", execs, err)
	}
	if after := s.Metrics(); after.Executions != before.Executions {
		t.Fatalf("empty allowance executed: %d → %d executions", before.Executions, after.Executions)
	}
}

// TestMaxIterationsClass: a divergent loop surfaces as a MaxIterations-
// class QueryError still matching engine.ErrMaxIterations.
func TestMaxIterationsClass(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.GD, "cri1", 3)
	q.MaxIterations = 1
	_, err := s.Do(context.Background(), q)
	if !errors.Is(err, engine.ErrMaxIterations) {
		t.Fatalf("got %v, want ErrMaxIterations", err)
	}
	if !errors.Is(err, resilience.ErrMaxIterations) {
		t.Errorf("error not classified MaxIterations: %v", err)
	}
}

// TestFaultInjectedQueryBitwiseIdentical: a served query with an injected
// fault plan returns results bitwise identical to the fault-free run
// (faults only perturb the cost model), with per-query sub-streams derived
// from the root seed.
func TestFaultInjectedQueryBitwiseIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.DFP, "cri1", 3)
	ref, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	root := fault.NewPlan(fault.Config{
		Seed:                  41,
		WorkerFailuresPerHour: 60,
		TransmitErrorsPerHour: 120,
		StragglersPerHour:     60,
	})
	for i := 0; i < 3; i++ {
		fq := q
		fq.Faults = root.Derive(i)
		res, err := s.Do(context.Background(), fq)
		if err != nil {
			t.Fatalf("faulted query %d: %v", i, err)
		}
		bitwiseEqualValues(t, ref.Values, res.Values)
	}
}

// TestGracefulShutdownUnderLoad drains in-flight queries and leaks no
// goroutines.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 4, QueueDepth: 32})
	q := testQuery(t, algorithms.GD, "cri1", 3)
	const n = 12
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := s.Do(context.Background(), q)
			errc <- err
		}()
	}
	// Let some submissions land, then shut down mid-stream.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		// Accepted queries complete; late ones fail fast with ErrClosed.
		if err := <-errc; err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
			t.Errorf("query %d: %v", i, err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	// Workers must all have exited; poll since goroutine teardown is
	// asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentMixedWorkload runs a mixed workload at concurrency and
// cross-checks every result against its sequential cache-free reference.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Shutdown(context.Background())
	queries := []Query{
		testQuery(t, algorithms.GD, "cri1", 3),
		testQuery(t, algorithms.DFP, "cri1", 4),
		testQuery(t, algorithms.DFP, "cri2", 3),
		testQuery(t, algorithms.GNMF, "red2", 3),
	}
	// Sequential cache-free references.
	refs := make([]map[string]*matrix.Matrix, len(queries))
	for i, q := range queries {
		q.NoPlanCache = true
		q.NoIntermediateCache = true
		res, err := s.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = res.Values
	}
	const rounds = 4
	type out struct {
		i   int
		res *QueryResult
		err error
	}
	outc := make(chan out, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			go func(i int, q Query) {
				res, err := s.Do(context.Background(), q)
				outc <- out{i, res, err}
			}(i, q)
		}
	}
	for k := 0; k < rounds*len(queries); k++ {
		o := <-outc
		if o.err != nil {
			t.Fatalf("query %d: %v", o.i, o.err)
		}
		bitwiseEqualValues(t, refs[o.i], o.res.Values)
	}
	snap := s.Metrics()
	if want := uint64((rounds + 1) * len(queries)); snap.Completed != want {
		t.Errorf("completed = %d, want %d", snap.Completed, want)
	}
	if snap.PlanHits == 0 {
		t.Error("no plan-cache hits across repeated identical queries")
	}
	if entries, _ := s.inter.usage(); entries == 0 {
		t.Error("the concurrent rounds published nothing to the intermediate cache")
	}
	if snap.LatencyP50Sec <= 0 || snap.LatencyP99Sec < snap.LatencyP50Sec {
		t.Errorf("implausible latency percentiles: p50=%g p99=%g", snap.LatencyP50Sec, snap.LatencyP99Sec)
	}
}

// TestStrategyDistinguishesPlans: the same script under different
// strategies must not share a cached plan.
func TestStrategyDistinguishesPlans(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.GD, "cri1", 3)
	if _, err := s.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	other := q
	other.Strategy = opt.NoElimination
	res, err := s.Do(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Error("plan cached under Adaptive served a NoElimination query")
	}
}
