package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/resilience"
)

// TestIdemReplayIsBitwiseIdenticalWithoutReexecution: resubmitting a
// completed key returns the original result — same Values pointers, same
// ResultHash — with the execution counter unmoved and Replayed set.
func TestIdemReplayIsBitwiseIdenticalWithoutReexecution(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	q := testQuery(t, algorithms.DFP, "cri1", 3)
	q.IdempotencyKey = "key-1"
	first, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed {
		t.Fatal("first execution marked Replayed")
	}
	execAfterFirst := s.Metrics().Executions

	second, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replayed {
		t.Fatal("resubmission under the same key was not a replay")
	}
	if got := s.Metrics().Executions; got != execAfterFirst {
		t.Fatalf("replay re-executed: %d executions, want %d", got, execAfterFirst)
	}
	if second.ResultHash == 0 || second.ResultHash != first.ResultHash {
		t.Fatalf("replay hash %016x != original %016x", second.ResultHash, first.ResultHash)
	}
	// The hash both carry is the one value identity, computed by the
	// execution: integrity.DigestValues of the result, whatever the storage
	// format of its matrices.
	csr := map[string]*matrix.Matrix{}
	for name, v := range first.Values {
		csr[name] = v.ToCSR()
	}
	if first.ResultHash != integrity.DigestValues(first.Values) || first.ResultHash != HashValues(csr) {
		t.Fatalf("ResultHash %016x is not the format-independent digest of Values (%016x dense, %016x CSR)",
			first.ResultHash, integrity.DigestValues(first.Values), HashValues(csr))
	}
	bitwiseEqualValues(t, first.Values, second.Values)
	// The copy is shallow by design — but the struct itself must be fresh
	// so a caller mutating the replay cannot poison the window.
	if first == second {
		t.Fatal("replay returned the canonical stored pointer")
	}
	snap := s.Metrics()
	if snap.IdemReplays != 1 {
		t.Fatalf("IdemReplays = %d, want 1", snap.IdemReplays)
	}
	if snap.IdemEntries != 1 {
		t.Fatalf("IdemEntries = %d, want 1", snap.IdemEntries)
	}
}

// TestIdemConcurrentDuplicatesCoalesce: N racing submissions under one
// key execute the plan exactly once; every caller gets the same bits.
func TestIdemConcurrentDuplicatesCoalesce(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Shutdown(context.Background())

	q := testQuery(t, algorithms.GD, "cri1", 3)
	q.IdempotencyKey = "key-race"

	const callers = 8
	results := make([]*QueryResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Do(context.Background(), q)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	if got := s.Metrics().Executions; got != 1 {
		t.Fatalf("%d racing duplicates caused %d executions, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if results[i].ResultHash != results[0].ResultHash {
			t.Fatalf("caller %d hash %016x != caller 0 hash %016x",
				i, results[i].ResultHash, results[0].ResultHash)
		}
		bitwiseEqualValues(t, results[0].Values, results[i].Values)
	}
}

// TestIdemFailureReleasesKey: a leader that fails leaves no replay entry —
// the retry under the same key executes fresh and can succeed.
func TestIdemFailureReleasesKey(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	q := testQuery(t, algorithms.GD, "cri1", 2)
	q.IdempotencyKey = "key-fail"
	// Bits ≡ 63 mod 64 is the sticky at-rest corruption: with digest
	// verification on, the query fails typed (Integrity class).
	q.Faults = fault.FromEvents(fault.Event{At: 1e-9, Kind: fault.Corruption, Bits: 63})
	q.Verify = integrity.VerifyDigest
	if _, err := s.Do(context.Background(), q); err == nil {
		t.Fatal("fault-injected query succeeded")
	}
	if n := s.Metrics().IdemEntries; n != 0 {
		t.Fatalf("failed leader left %d replay entries, want 0", n)
	}

	q.Faults = nil
	q.Verify = 0
	res, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("retry after failed leader: %v", err)
	}
	if res.Replayed {
		t.Fatal("retry after a failure replayed the failure's (nonexistent) result")
	}
}

// TestIdemWindowEvictsLRU: the completed-entry window is bounded; the
// oldest key falls out first and re-executes on resubmission. The window is
// shrunk to two entries in place of the 1024 a server gets.
func TestIdemWindowEvictsLRU(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	s.idem = newIdemWindow(2)

	q := testQuery(t, algorithms.GD, "cri1", 2)
	for i := 0; i < 3; i++ {
		q.IdempotencyKey = fmt.Sprintf("key-%d", i)
		if _, err := s.Do(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Metrics().IdemEntries; n != 2 {
		t.Fatalf("window holds %d entries, want cap 2", n)
	}
	// key-0 was evicted: a resubmission executes again.
	before := s.Metrics().Executions
	q.IdempotencyKey = "key-0"
	res, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed {
		t.Fatal("evicted key replayed")
	}
	if got := s.Metrics().Executions; got != before+1 {
		t.Fatalf("evicted key: executions %d, want %d", got, before+1)
	}
	// key-2 is still resident and replays.
	q.IdempotencyKey = "key-2"
	res, err = s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Fatal("resident key did not replay")
	}
}

// TestIdemWaiterCancellation: a waiter whose context dies while the
// leader runs gets a typed Canceled error; the leader's outcome still
// lands in the window.
func TestIdemWaiterCancellation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	q := testQuery(t, algorithms.DFP, "cri2", 6)
	q.IdempotencyKey = "key-wait"

	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		close(started)
		_, err := s.Do(context.Background(), q)
		leaderDone <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Do(ctx, q)
	if err == nil {
		// The leader may already have settled before the waiter arrived —
		// then the canceled context is never consulted and a replay is
		// legitimate. Only a non-nil error must be typed.
		t.Log("waiter arrived after settle; replay served")
	} else if !resilience.IsClass(err, resilience.Canceled) {
		t.Fatalf("canceled waiter error class = %v, want Canceled", err)
	}
	if err := <-leaderDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v", err)
	}
}

// TestReleaseEmptiesTheResultAndItsReplays: Release is called by whoever is
// done with the cells — any holder, any number of times — and from then on
// the result, the copy the window keeps and every later replay have no
// Values; what the wire ships of a result (Summaries, ResultHash, Replayed)
// is untouched. A result nobody releases keeps its cells, as it always did.
func TestReleaseEmptiesTheResultAndItsReplays(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	q := testQuery(t, algorithms.DFP, "red2", 3)
	unkeyed, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	q.IdempotencyKey = "released"
	first, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Values) == 0 || len(first.Summaries) != len(first.Values) {
		t.Fatalf("%d values, %d summaries", len(first.Values), len(first.Summaries))
	}
	bitwiseEqualValues(t, unkeyed.Values, replay.Values)
	hash, summaries := first.ResultHash, first.Summaries

	replay.Release()
	replay.Release()
	first.Release()
	later, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for what, r := range map[string]*QueryResult{"the original": first, "the replay that released": replay, "a later replay": later} {
		if len(r.Values) != 0 {
			t.Errorf("%s still holds %d values", what, len(r.Values))
		}
		if r.ResultHash != hash || !reflect.DeepEqual(r.Summaries, summaries) || r.Replayed != (r != first) {
			t.Errorf("%s: hash %016x, %d summaries, replayed %v after the release", what, r.ResultHash, len(r.Summaries), r.Replayed)
		}
	}
	if hash != unkeyed.ResultHash || hash != HashValues(unkeyed.Values) {
		t.Error("a result nobody released lost its cells to the release of another")
	}
	// The released buffers are where the next run writes: it must still
	// compute the same thing, into them.
	again, err := s.Do(context.Background(), testQuery(t, algorithms.DFP, "red2", 3))
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqualValues(t, unkeyed.Values, again.Values)
	again.Release()
	again.Release()
}
