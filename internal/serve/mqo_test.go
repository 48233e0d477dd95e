package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/resilience"
)

// sleepToPark gives a goroutine blocked on a shared-producer wait ample
// time to actually park before the test settles the entry. The registry
// tests below stay correct even when the waiter loses the race (it then
// takes the re-election path, which the assertions also accept where noted),
// but the interesting path is the parked one.
const sleepToPark = 100 * time.Millisecond

func testBatch(t *testing.T) *mqoBatch {
	t.Helper()
	b, fresh := newBatcher(time.Minute).assign(time.Now())
	if b == nil || !fresh {
		t.Fatalf("first assign: batch=%v fresh=%v, want a fresh batch", b, fresh)
	}
	return b
}

func TestBatcherWindows(t *testing.T) {
	b := newBatcher(10 * time.Millisecond)
	t0 := time.Now()
	b1, fresh := b.assign(t0)
	if b1 == nil || !fresh {
		t.Fatalf("first admission: fresh=%v, want a new batch", fresh)
	}
	b2, fresh := b.assign(t0.Add(5 * time.Millisecond))
	if b2 != b1 || fresh {
		t.Error("admission inside the window did not join the open batch")
	}
	// The window is anchored at the opening admission, not extended by
	// joiners: 11ms after the first admission a new batch opens.
	b3, fresh := b.assign(t0.Add(11 * time.Millisecond))
	if b3 == b1 || !fresh {
		t.Error("admission past the window did not open a fresh batch")
	}
}

func TestMQOPublishAdoptAccounting(t *testing.T) {
	b := testBatch(t)
	s1, s2 := b.session("ns"), b.session("ns")
	if _, role, err := s1.Acquire(context.Background(), "k"); err != nil || role != shareLead {
		t.Fatalf("first acquire: role=%v err=%v, want lead", role, err)
	}
	v := denseIntermediate(3, 3)
	s1.Publish("k", v, 42)
	got, role, err := s2.Acquire(context.Background(), "k")
	if err != nil || role != shareHit {
		t.Fatalf("acquire after publish: role=%v err=%v, want hit", role, err)
	}
	if got.Data != v.Data || got.VRows != v.VRows || got.VCols != v.VCols {
		t.Error("adopted value is not the published one")
	}
	if s1.led != 1 || s1.hits != 0 || s2.hits != 1 || s2.flopSaved != 42 {
		t.Errorf("accounting: led=%d producer-hits=%d adopter-hits=%d saved=%v, want 1/0/1/42",
			s1.led, s1.hits, s2.hits, s2.flopSaved)
	}
}

func TestMQONamespaceIsolation(t *testing.T) {
	b := testBatch(t)
	s1, s2 := b.session("ds1@0|c1"), b.session("ds2@0|c1")
	if _, role, _ := s1.Acquire(context.Background(), "k"); role != shareLead {
		t.Fatalf("role=%v, want lead", role)
	}
	s1.Publish("k", denseIntermediate(2, 2), 1)
	// The same raw key in a different namespace is a different producer.
	if _, role, err := s2.Acquire(context.Background(), "k"); err != nil || role != shareLead {
		t.Fatalf("cross-namespace acquire: role=%v err=%v, want an independent lead", role, err)
	}
}

// TestMQOSoloWhileLeading: a session holding an unsettled leadership never
// blocks on another producer — it computes locally instead. This is the
// invariant that makes waiting on shared entries deadlock-free.
func TestMQOSoloWhileLeading(t *testing.T) {
	b := testBatch(t)
	s1, s2 := b.session("ns"), b.session("ns")
	if _, role, _ := s1.Acquire(context.Background(), "k1"); role != shareLead {
		t.Fatalf("s1 on k1: role=%v, want lead", role)
	}
	if _, role, _ := s2.Acquire(context.Background(), "k2"); role != shareLead {
		t.Fatalf("s2 on k2: role=%v, want lead", role)
	}
	// Both hold unsettled claims; acquiring each other's key must not block.
	if _, role, err := s1.Acquire(context.Background(), "k2"); err != nil || role != shareSolo {
		t.Errorf("s1 on unsettled k2 while leading k1: role=%v err=%v, want solo", role, err)
	}
	if _, role, err := s2.Acquire(context.Background(), "k1"); err != nil || role != shareSolo {
		t.Errorf("s2 on unsettled k1 while leading k2: role=%v err=%v, want solo", role, err)
	}
	// A settled entry is adoptable even while leading (no wait involved).
	s2.Publish("k2", denseIntermediate(2, 2), 1)
	if _, role, err := s1.Acquire(context.Background(), "k2"); err != nil || role != shareHit {
		t.Errorf("s1 on settled k2 while leading k1: role=%v err=%v, want hit", role, err)
	}
}

// TestMQOFailurePropagatesTyped: a producer that fails hands every parked
// waiter an error wrapping the production failure (here a typed integrity
// error), and the failed entry is removed so a later acquirer re-elects.
func TestMQOFailurePropagatesTyped(t *testing.T) {
	b := testBatch(t)
	s1, s2 := b.session("ns"), b.session("ns")
	if _, role, _ := s1.Acquire(context.Background(), "k"); role != shareLead {
		t.Fatalf("role=%v, want lead", role)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := s2.Acquire(context.Background(), "k")
		got <- err
	}()
	time.Sleep(sleepToPark)
	s1.Fail("k", fmt.Errorf("multiply: %w", integrity.ErrCorruption))
	if err := <-got; !errors.Is(err, integrity.ErrCorruption) {
		t.Fatalf("waiter error = %v, want it to wrap integrity.ErrCorruption", err)
	}
	if _, role, err := b.session("ns").Acquire(context.Background(), "k"); err != nil || role != shareLead {
		t.Fatalf("acquire after failure: role=%v err=%v, want a re-elected lead", role, err)
	}
}

// TestMQOCanceledLeaderPromotesWaiter: a leader whose own context died is
// not the waiter's problem — the waiter loops back and promotes itself,
// mirroring the plan cache's failed-leader path.
func TestMQOCanceledLeaderPromotesWaiter(t *testing.T) {
	b := testBatch(t)
	s1, s2, s3 := b.session("ns"), b.session("ns"), b.session("ns")
	if _, role, _ := s1.Acquire(context.Background(), "k"); role != shareLead {
		t.Fatalf("role=%v, want lead", role)
	}
	type outcome struct {
		role shareRole
		err  error
	}
	got := make(chan outcome, 1)
	go func() {
		_, role, err := s2.Acquire(context.Background(), "k")
		got <- outcome{role, err}
	}()
	time.Sleep(sleepToPark)
	s1.Fail("k", fmt.Errorf("leader timed out: %w", engine.ErrCanceled))
	if o := <-got; o.err != nil || o.role != shareLead {
		t.Fatalf("waiter after canceled leader: role=%v err=%v, want promotion to lead", o.role, o.err)
	}
	// The promoted leader settles the claim and a third session adopts it.
	s2.Publish("k", denseIntermediate(2, 2), 5)
	if _, role, err := s3.Acquire(context.Background(), "k"); err != nil || role != shareHit {
		t.Fatalf("acquire after promotion settled: role=%v err=%v, want hit", role, err)
	}
}

// TestMQOCloseAbandonsWaiters: a producing run that unwinds without
// settling (the panic path) fails its parked waiters with a typed
// Internal-class error instead of hanging them.
func TestMQOCloseAbandonsWaiters(t *testing.T) {
	b := testBatch(t)
	s1, s2 := b.session("ns"), b.session("ns")
	if _, role, _ := s1.Acquire(context.Background(), "k"); role != shareLead {
		t.Fatalf("role=%v, want lead", role)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := s2.Acquire(context.Background(), "k")
		got <- err
	}()
	time.Sleep(sleepToPark)
	if n := s1.close(nil); n != 1 {
		t.Fatalf("close settled %d claims, want 1", n)
	}
	err := <-got
	if !errors.Is(err, errSharedAbandoned) {
		t.Fatalf("abandoned waiter error = %v, want errSharedAbandoned", err)
	}
	if qerr := (&Server{}).classify(7, "execute", err); !resilience.IsClass(qerr, resilience.Internal) {
		t.Errorf("abandoned error classified as %v, want Internal", qerr)
	}
	// close on a session with nothing outstanding is a no-op.
	if n := s1.close(nil); n != 0 {
		t.Errorf("second close settled %d claims, want 0", n)
	}
}

// TestMQOBatchedMatchesSerialBitwise is the end-to-end sharing gate: an
// overlapping query burst under a batching window must produce results
// bitwise identical to serial unbatched execution while adopting shared
// producers and charging strictly less FLOP. The cross-run intermediate
// cache is disabled on both servers so batch sharing is the only reuse
// mechanism in play.
func TestMQOBatchedMatchesSerialBitwise(t *testing.T) {
	workloads := []Query{
		testQuery(t, algorithms.DFP, "cri1", 2),
		testQuery(t, algorithms.GD, "cri1", 2),
		testQuery(t, algorithms.GNMF, "red2", 2), // shares nothing with the cri1 pair
	}
	serial := New(Config{Workers: 1, IntermediateBudgetBytes: -1})
	refs := make([]*QueryResult, len(workloads))
	for i, q := range workloads {
		res, err := serial.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("serial reference %d: %v", i, err)
		}
		refs[i] = res
	}
	if err := serial.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	const fan = 4
	n := fan * len(workloads)
	s := New(Config{
		Workers:                 4,
		QueueDepth:              n,
		IntermediateBudgetBytes: -1,
		BatchWindow:             2 * time.Second, // every admission below lands in one batch
	})
	defer s.Shutdown(context.Background())
	results := make([]*QueryResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = s.Do(context.Background(), workloads[k%len(workloads)])
		}(k)
	}
	wg.Wait()

	totalHits, totalLed := 0, 0
	batchedFLOP, serialFLOP := 0.0, 0.0
	for k, res := range results {
		if errs[k] != nil {
			t.Fatalf("batched query %d: %v", k, errs[k])
		}
		bitwiseEqualValues(t, refs[k%len(workloads)].Values, res.Values)
		totalHits += res.SharedHits
		totalLed += res.SharedProduced
		batchedFLOP += res.FLOP
		serialFLOP += refs[k%len(workloads)].FLOP
	}
	if totalHits == 0 {
		t.Fatal("no shared-producer adoptions across an overlapping batch")
	}
	if totalLed == 0 {
		t.Fatal("no shared-producer executions recorded")
	}
	if batchedFLOP >= serialFLOP {
		t.Errorf("batched arm charged %.6g FLOP, not strictly below the serial-equivalent %.6g", batchedFLOP, serialFLOP)
	}
	snap := s.Metrics()
	if snap.MQOBatches == 0 || snap.MQOBatchedQueries != uint64(n) {
		t.Errorf("batches=%d batched-queries=%d, want >0 and %d", snap.MQOBatches, snap.MQOBatchedQueries, n)
	}
	if snap.MQOOverlapKeys == 0 {
		t.Error("cross-query subexpression index observed no overlapping keys")
	}
	if snap.MQOSharedHits != uint64(totalHits) || snap.MQOSharedProduced != uint64(totalLed) {
		t.Errorf("server totals hits=%d produced=%d, per-query sums %d/%d",
			snap.MQOSharedHits, snap.MQOSharedProduced, totalHits, totalLed)
	}
	if snap.MQOFlopSaved <= 0 {
		t.Errorf("MQOFlopSaved = %v, want > 0", snap.MQOFlopSaved)
	}
}

// TestMQOWindowZeroIsUnbatched: BatchWindow 0 must reproduce the pre-MQO
// serving path exactly — no batcher, no sessions, zero MQO metrics, and
// bitwise-identical results.
func TestMQOWindowZeroIsUnbatched(t *testing.T) {
	q := testQuery(t, algorithms.DFP, "cri1", 2)
	serial := New(Config{Workers: 1, IntermediateBudgetBytes: -1})
	ref, err := serial.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, QueueDepth: 8, IntermediateBudgetBytes: -1})
	defer s.Shutdown(context.Background())
	if s.batches != nil {
		t.Fatal("BatchWindow 0 built a batcher")
	}
	const n = 4
	results := make([]*QueryResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = s.Do(context.Background(), q)
		}(k)
	}
	wg.Wait()
	for k, res := range results {
		if errs[k] != nil {
			t.Fatalf("query %d: %v", k, errs[k])
		}
		if res.SharedHits != 0 || res.SharedProduced != 0 {
			t.Errorf("query %d reported shared hits=%d produced=%d with the window off", k, res.SharedHits, res.SharedProduced)
		}
		bitwiseEqualValues(t, ref.Values, res.Values)
	}
	snap := s.Metrics()
	if snap.MQOBatches != 0 || snap.MQOBatchedQueries != 0 || snap.MQOOverlapKeys != 0 ||
		snap.MQOSharedHits != 0 || snap.MQOSharedProduced != 0 || snap.MQOAbandoned != 0 || snap.MQOFlopSaved != 0 {
		t.Errorf("MQO metrics nonzero with the window off: %+v", snap)
	}
}

// TestMQOCorruptedQueriesFailTypedNeverSilent: queries that schedule an
// unrepairable payload corruption, batched together under a window, must
// every one fail with a typed Integrity-class error — and no corrupted
// value may be adopted by a sibling.
func TestMQOCorruptedQueriesFailTypedNeverSilent(t *testing.T) {
	q := testQuery(t, algorithms.DFP, "cri1", 2)
	// Bits ≡ 63 mod 64 forces the sticky at-rest corruption: every lineage
	// retry re-reads the same bad bytes, so the repair budget exhausts into
	// a typed error (see engine's TestStickyCorruptionFailsTyped).
	q.Faults = fault.FromEvents(fault.Event{At: 1e-9, Kind: fault.Corruption, Bits: 63})
	q.Verify = integrity.VerifyDigest

	s := New(Config{Workers: 4, QueueDepth: 8, IntermediateBudgetBytes: -1, BatchWindow: 2 * time.Second})
	defer s.Shutdown(context.Background())
	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = s.Do(context.Background(), q)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err == nil {
			t.Fatalf("query %d succeeded with an unrepairable corruption scheduled", k)
		}
		if !resilience.IsClass(err, resilience.Integrity) {
			t.Errorf("query %d failed with %v, want Integrity class", k, err)
		}
		if !errors.Is(err, integrity.ErrCorruption) {
			t.Errorf("query %d error does not wrap integrity.ErrCorruption: %v", k, err)
		}
	}
	if snap := s.Metrics(); snap.MQOSharedHits != 0 {
		t.Errorf("a corrupted producer's value was adopted %d times", snap.MQOSharedHits)
	}
}
