package serve

import (
	"context"
	"sync"
	"testing"

	"remac/internal/algorithms"
)

// TestInvalidateRacesConcurrentQueries races InvalidateDataset bumps against
// a stream of concurrent queries (run under -race in CI). The contract
// under test: a version bump can never corrupt a result — every query,
// whichever side of a bump it lands on, returns bitwise the reference
// values, because each run binds the dataset version at query start and
// old-version cache keys become unreachable atomically with the bump.
func TestInvalidateRacesConcurrentQueries(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Shutdown(context.Background())

	q := testQuery(t, algorithms.DFP, "cri1", 3)
	ref, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	const queries, bumps = 24, 8
	var wg sync.WaitGroup
	errs := make([]error, queries)
	results := make([]*QueryResult, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Do(context.Background(), testQuery(t, algorithms.DFP, "cri1", 3))
		}(i)
	}
	for i := 0; i < bumps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.InvalidateDataset("cri1")
		}()
	}
	wg.Wait()

	for i := 0; i < queries; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d failed during invalidation storm: %v", i, errs[i])
		}
		bitwiseEqualValues(t, ref.Values, results[i].Values)
	}
	if v := s.DatasetVersion("cri1"); v != bumps {
		t.Fatalf("dataset version = %d after %d bumps, want %d", v, bumps, bumps)
	}

	// A final bump after the storm settles: the very next query must see a
	// cold intermediate cache — zero cross-query hits — proving the bump
	// made every prior intermediate unreachable.
	s.InvalidateDataset("cri1")
	res, err := s.Do(context.Background(), testQuery(t, algorithms.DFP, "cri1", 3))
	if err != nil {
		t.Fatalf("post-bump query: %v", err)
	}
	if res.IntermediateHits != 0 {
		t.Fatalf("post-bump query reused stale work: %d intermediate hits", res.IntermediateHits)
	}
	bitwiseEqualValues(t, ref.Values, res.Values)
}
