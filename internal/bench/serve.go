package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"remac/internal/algorithms"
	"remac/internal/serve"
)

// serveCase is one entry of the replayed query stream.
type serveCase struct {
	alg     algorithms.Name
	dataset string
	iters   int
}

// serveWorkload is the mixed query stream the serving experiment replays:
// a quasi-Newton solver, a first-order solver, and the GNMF stress case,
// interleaved round-robin as three concurrent "sessions" would issue them.
var serveWorkload = []serveCase{
	{algorithms.DFP, "cri2", 3},
	{algorithms.GD, "cri1", 3},
	{algorithms.GNMF, "red2", 3},
}

// serveConcurrency lists the worker-pool sizes measured.
var serveConcurrency = []int{1, 2, 4, 8}

// serveQueriesPerLevel is the replayed query count per (arm, concurrency)
// cell.
const serveQueriesPerLevel = 24

// serveQuery builds the serve query for one workload entry.
func serveQuery(w serveCase) (serve.Query, error) {
	src, err := algorithms.Script(w.alg, w.iters)
	if err != nil {
		return serve.Query{}, err
	}
	ins, _ := inputsFor(w.alg, dataset(w.dataset))
	q := serve.NewQuery(src, ins)
	q.Dataset = w.dataset
	q.Iterations = w.iters
	return q, nil
}

// matchesRef records the first result hash seen for workload wi and
// reports whether hh equals it: the "bitwise identical across repeats and
// arms" check every serving experiment makes on QueryResult.ResultHash.
func matchesRef(refs map[int]uint64, wi int, hh uint64) bool {
	ref, seen := refs[wi]
	if !seen {
		refs[wi] = hh
	}
	return !seen || ref == hh
}

// ServeBench measures the serving layer: the mixed workload replayed at
// several concurrency levels, with the cross-query caches on and off. Rows
// report throughput, latency percentiles, and cache hit rates; the
// experiment fails if any query's result differs bitwise between the two
// arms (cache reuse must be invisible to clients).
func ServeBench() (*Table, error) {
	t := &Table{
		ID:      "Serve",
		Title:   "Concurrent serving: mixed DFP/GD/GNMF replay, caches on vs off",
		Columns: []string{"queries", "qps", "p50(ms)", "p95(ms)", "p99(ms)", "plan hit%", "inter hit%"},
	}
	// hashes[workload index] -> reference bitwise hash (set by the first
	// arm, checked by every later run of the same workload).
	hashes := map[int]uint64{}
	var hashErr error
	var hashMu sync.Mutex
	check := func(wi int, res *serve.QueryResult) {
		hashMu.Lock()
		defer hashMu.Unlock()
		if !matchesRef(hashes, wi, res.ResultHash) && hashErr == nil {
			hashErr = fmt.Errorf("serve: workload %d (%s/%s) result differs bitwise across arms",
				wi, serveWorkload[wi].alg, serveWorkload[wi].dataset)
		}
	}

	for _, cacheOn := range []bool{false, true} {
		arm := "cache-off"
		if cacheOn {
			arm = "cache-on"
		}
		for _, conc := range serveConcurrency {
			s := serve.New(serve.Config{Workers: conc, QueueDepth: serveQueriesPerLevel})
			queries := make([]serve.Query, len(serveWorkload))
			for i, w := range serveWorkload {
				q, err := serveQuery(w)
				if err != nil {
					return nil, err
				}
				if !cacheOn {
					q.NoPlanCache = true
					q.NoIntermediateCache = true
				}
				queries[i] = q
			}
			var wg sync.WaitGroup
			errs := make(chan error, serveQueriesPerLevel)
			start := time.Now()
			for k := 0; k < serveQueriesPerLevel; k++ {
				wi := k % len(queries)
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					res, err := s.Do(context.Background(), queries[wi])
					if err != nil {
						errs <- fmt.Errorf("%s conc=%d: %w", arm, conc, err)
						return
					}
					check(wi, res)
				}(wi)
			}
			wg.Wait()
			wall := time.Since(start).Seconds()
			close(errs)
			for err := range errs {
				return nil, err
			}
			snap := s.Metrics()
			if err := s.Shutdown(context.Background()); err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("%s conc=%d", arm, conc),
				Values: map[string]float64{
					"queries":    float64(snap.Completed),
					"qps":        float64(snap.Completed) / wall,
					"p50(ms)":    snap.LatencyP50Sec * 1e3,
					"p95(ms)":    snap.LatencyP95Sec * 1e3,
					"p99(ms)":    snap.LatencyP99Sec * 1e3,
					"plan hit%":  snap.PlanHitRate * 100,
					"inter hit%": snap.InterHitRate * 100,
				},
			})
		}
	}
	hashMu.Lock()
	err := hashErr
	hashMu.Unlock()
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-query results bitwise identical across all arms (%d workloads verified by FNV-64a over value bits)", len(hashes)),
		"cache-off recompiles every plan and recomputes every loop-constant intermediate; cache-on shares both across queries",
		"simulated-cluster kernels execute for real and saturate the host cores, so added workers redistribute latency rather than raising throughput; the cache-on gain is the compile and recompute work actually eliminated")
	return t, nil
}
