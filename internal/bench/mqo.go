package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"remac/internal/algorithms"
	"remac/internal/serve"
)

// mqoWorkload is the overlapping query stream the MQO experiment replays:
// unlike the serve experiment's disjoint datasets, several concurrent
// "sessions" here issue programs against the *same* dataset, so their plans
// contain the same loop-constant subchains (AᵀA, Aᵀb, …) under the same
// intermediate-cache namespace — exactly the redundancy a batching window
// can eliminate across queries.
var mqoWorkload = []serveCase{
	{algorithms.DFP, "cri1", 3},
	{algorithms.GD, "cri1", 3},
	{algorithms.GNMF, "red2", 3},
}

// mqoFanout is how many concurrent clients replay each workload entry.
const mqoFanout = 4

// mqoWindow is the batched arm's admission window: generous enough that a
// burst submitted together always lands in one batch, keeping the FLOP
// comparison deterministic.
const mqoWindow = 500 * time.Millisecond

// MQOBench measures cross-query redundancy elimination: the overlapping
// stream is replayed twice on identical servers — batch window off vs on —
// with the cross-run intermediate cache disabled in both arms so the only
// sharing mechanism under test is the MQO coordinator. The experiment
// fails unless the batched arm executed shared producers (> 0 adoptions),
// charged strictly less total FLOP than the unbatched arm, and produced
// bitwise-identical per-query results.
func MQOBench() (*Table, error) {
	t := &Table{
		ID:      "MQO",
		Title:   "Cross-query redundancy elimination: overlapping stream, batched vs unbatched",
		Columns: []string{"queries", "GFLOP", "shared hits", "produced", "saved GFLOP", "batches", "p50(ms)"},
	}
	total := mqoFanout * len(mqoWorkload)
	queries := make([]serve.Query, len(mqoWorkload))
	for i, w := range mqoWorkload {
		q, err := serveQuery(w)
		if err != nil {
			return nil, err
		}
		queries[i] = q
	}

	hashes := map[int]uint64{}
	var hashMu sync.Mutex
	var hashErr error
	check := func(wi int, res *serve.QueryResult) {
		hashMu.Lock()
		defer hashMu.Unlock()
		if !matchesRef(hashes, wi, res.ResultHash) && hashErr == nil {
			hashErr = fmt.Errorf("mqo: workload %d (%s/%s) result differs bitwise between batched and unbatched arms",
				wi, mqoWorkload[wi].alg, mqoWorkload[wi].dataset)
		}
	}

	flopByArm := map[string]float64{}
	hitsByArm := map[string]uint64{}
	for _, batched := range []bool{false, true} {
		arm := "unbatched"
		window := time.Duration(0)
		if batched {
			arm = "batched"
			window = mqoWindow
		}
		s := serve.New(serve.Config{
			Workers:    4,
			QueueDepth: total,
			// The cross-run intermediate cache would blur the comparison (a
			// late query could reuse an earlier one's value in either arm);
			// with it disabled, every FLOP saved is the MQO coordinator's.
			IntermediateBudgetBytes: -1,
			BatchWindow:             window,
		})
		var wg sync.WaitGroup
		errs := make(chan error, total)
		var flopMu sync.Mutex
		totalFLOP := 0.0
		for k := 0; k < total; k++ {
			wi := k % len(queries)
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				res, err := s.Do(context.Background(), queries[wi])
				if err != nil {
					errs <- fmt.Errorf("mqo %s: %w", arm, err)
					return
				}
				check(wi, res)
				flopMu.Lock()
				totalFLOP += res.FLOP
				flopMu.Unlock()
			}(wi)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return nil, err
		}
		snap := s.Metrics()
		if err := s.Shutdown(context.Background()); err != nil {
			return nil, err
		}
		flopByArm[arm] = totalFLOP
		hitsByArm[arm] = snap.MQOSharedHits
		t.Rows = append(t.Rows, Row{
			Label: arm,
			Values: map[string]float64{
				"queries":     float64(snap.Completed),
				"GFLOP":       totalFLOP / 1e9,
				"shared hits": float64(snap.MQOSharedHits),
				"produced":    float64(snap.MQOSharedProduced),
				"saved GFLOP": snap.MQOFlopSaved / 1e9,
				"batches":     float64(snap.MQOBatches),
				"p50(ms)":     snap.LatencyP50Sec * 1e3,
			},
		})
	}
	hashMu.Lock()
	err := hashErr
	hashMu.Unlock()
	if err != nil {
		return nil, err
	}
	if hitsByArm["batched"] == 0 {
		return nil, fmt.Errorf("mqo: batched arm adopted no shared producers")
	}
	if hitsByArm["unbatched"] != 0 {
		return nil, fmt.Errorf("mqo: unbatched arm reported %d shared adoptions with the window off", hitsByArm["unbatched"])
	}
	if flopByArm["batched"] >= flopByArm["unbatched"] {
		return nil, fmt.Errorf("mqo: batched arm charged %.3g FLOP, not strictly below unbatched %.3g",
			flopByArm["batched"], flopByArm["unbatched"])
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-query results bitwise identical across arms (%d workloads verified by FNV-64a over value bits)", len(hashes)),
		fmt.Sprintf("batched arm charged %.1f%% of the unbatched arm's FLOP: loop-constant producers shared by concurrent plans executed once per batch",
			100*flopByArm["batched"]/flopByArm["unbatched"]),
		"cross-run intermediate cache disabled in both arms, so all savings come from mid-batch sharing; window=0 degrades to exactly the unbatched serving path")
	return t, nil
}
