package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// remoteStormSeed fixes the storm's fault streams and victim choices.
const remoteStormSeed uint64 = 0xBAD_0C7E7

// TestRemotePartitionChaosStorm drives the full remote transport through
// a seeded network-partition storm (run under -race in CI): three real
// remac-serve HTTP shards behind NetFault transports injecting resets,
// dropped-after-commit responses, garbled bodies and latency spikes,
// while a controller repeatedly partitions a seeded victim, drives
// ejection on wire evidence alone, broadcasts an invalidation the
// partitioned shard must miss, heals the partition and verifies catch-up
// gated rejoin. Every successful query must carry the serial reference's
// bitwise result hash, every failure must be a typed QueryError, no
// (shard, idempotency-key) pair may execute more than once, and shutdown
// must release every goroutine.
func TestRemotePartitionChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("partition storm is not short")
	}
	type workload struct {
		alg     string
		dataset string
		iters   int
	}
	// GNMF rides along to prove the Algorithm wire metadata rebinds the
	// V/W0/H0 inputs remotely (the other workloads bind A/b/H0/x0).
	workloads := []workload{
		{"DFP", "cri1", 2},
		{"GD", "cri1", 2},
		{"GNMF", "red2", 1},
	}

	// Serial single-instance reference hashes, computed through the same
	// builder the shard front-ends run.
	ref := make(map[int]uint64, len(workloads))
	direct := serve.New(serve.Config{Workers: 2, ShardID: "reference"})
	for wi, w := range workloads {
		res, err := direct.Do(context.Background(), remoteQuery(t, w.alg, w.dataset, w.iters))
		if err != nil {
			t.Fatalf("reference %s: %v", w.alg, err)
		}
		if res.ResultHash == 0 {
			t.Fatalf("reference %s produced no result hash", w.alg)
		}
		ref[wi] = res.ResultHash
	}
	if err := direct.Shutdown(context.Background()); err != nil {
		t.Fatalf("reference shutdown: %v", err)
	}

	// Per-(shard, idempotency key) execution counter, attached server-side
	// through the mux's OnQuery hook: the zero-duplicate-executions
	// assertion counts actual plan executions, not request arrivals (a
	// replayed retry arrives but never executes).
	var execMu sync.Mutex
	execCount := map[string]int{}
	countExecs := func(shardID string) func(q *serve.Query, r *http.Request) {
		return func(q *serve.Query, r *http.Request) {
			key := shardID + "|" + q.IdempotencyKey
			q.Probe = func() error {
				execMu.Lock()
				execCount[key]++
				execMu.Unlock()
				return nil
			}
		}
	}

	const shards = 3
	servers := make([]*serve.Server, shards)
	fronts := make([]*httptest.Server, shards)
	faults := make([]*NetFault, shards)
	budget := NewRetryBudget(256, 1)
	insts := make([]Instance, shards)
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		servers[i] = serve.New(serve.Config{Workers: 2, QueueDepth: 64, ShardID: id})
		fronts[i] = httptest.NewServer(httpapi.NewServeMux(
			servers[i], httpapi.NewQueryBuilder(engine.RecoveryPolicy{}),
			httpapi.ServeHandlerConfig{OnQuery: countExecs(id)},
		))
		faults[i] = NewNetFault(nil, NetFaultConfig{
			Seed:        remoteStormSeed + uint64(i),
			ResetRate:   0.04,
			DropRate:    0.04,
			GarbleRate:  0.02,
			LatencyRate: 0.05,
			Latency:     2 * time.Millisecond,
		})
		insts[i] = NewRemote(RemoteConfig{
			BaseURL:      fronts[i].URL,
			ShardID:      id,
			Client:       &http.Client{Transport: faults[i]},
			Budget:       budget,
			ProbeTimeout: time.Second,
		})
	}
	defer func() {
		for i := 0; i < shards; i++ {
			fronts[i].Close()
			servers[i].Shutdown(context.Background())
		}
	}()

	goroutinesBefore := runtime.NumGoroutine()

	urls := make([]string, shards)
	for i := range fronts {
		urls[i] = fronts[i].URL
	}
	cfg := Config{
		Seed:            remoteStormSeed,
		EjectAfter:      2,
		PassiveFailures: 2,
		RejoinProbes:    1,
		ProbeTimeout:    500 * time.Millisecond,
		Respawn: func(i int, id string) Instance {
			// A remote respawn is a fresh client at the same URL, through
			// the same (possibly still partitioned) network.
			return NewRemote(RemoteConfig{
				BaseURL:      urls[i],
				ShardID:      id,
				Client:       &http.Client{Transport: faults[i]},
				Budget:       budget,
				ProbeTimeout: time.Second,
			})
		},
	}
	g := NewWithInstances(cfg, insts)

	// Concurrent clients replaying the workloads through the storm.
	type outcome struct {
		wi  int
		res *serve.QueryResult
		err error
	}
	const clients, perClient = 6, 10
	outcomes := make([]outcome, 0, clients*perClient)
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				wi := (c + k) % len(workloads)
				w := workloads[wi]
				q := remoteQuery(t, w.alg, w.dataset, w.iters)
				res, err := g.Do(context.Background(), Request{
					Tenant:    fmt.Sprintf("tenant-%d", c),
					RequestID: fmt.Sprintf("rstorm-%d-%d", c, k),
					Query:     q,
				})
				o := outcome{wi: wi, err: err}
				if err == nil {
					o.res = res.QueryResult
				}
				outMu.Lock()
				outcomes = append(outcomes, o)
				outMu.Unlock()
			}
		}(c)
	}

	// Controller: two seeded partition → eject → invalidate → heal →
	// rejoin cycles. Everything the lifecycle learns about the victim it
	// learns over the wire.
	for cycle := 0; cycle < 2; cycle++ {
		victim := int(chaosMix(remoteStormSeed+uint64(cycle)) % shards)
		ejBefore := g.Stats().Ejections
		faults[victim].SetPartition(PartitionAll)

		for r := 0; r < cfg.EjectAfter && g.Stats().Ejections == ejBefore; r++ {
			g.ProbeNow()
		}
		if g.Stats().Ejections == ejBefore {
			t.Fatalf("cycle %d: partitioned shard %d not ejected within EjectAfter=%d probe rounds",
				cycle, victim, cfg.EjectAfter)
		}

		// The broadcast crosses the wire to the live shards; the
		// partitioned victim's POST /invalidate is blackholed.
		want := g.InvalidateDataset("cri1")
		if got := g.ShardVersions("cri1")[victim]; got >= want {
			t.Fatalf("cycle %d: partitioned shard acknowledged a broadcast it cannot have seen (version %d)",
				cycle, got)
		}

		// While partitioned, rejoin must stay gated: version reads fail to
		// -1, so catch-up cannot confirm.
		for r := 0; r < 3; r++ {
			g.ProbeNow()
		}
		if got := g.ShardState(victim); got == ShardHealthy {
			t.Fatalf("cycle %d: shard %d readmitted while still partitioned", cycle, victim)
		}

		faults[victim].SetPartition(PartitionNone)
		for r := 0; r < 6 && g.ShardState(victim) != ShardHealthy; r++ {
			g.ProbeNow()
		}
		if got := g.ShardState(victim); got != ShardHealthy {
			t.Fatalf("cycle %d: shard %d state %v after heal, want healthy", cycle, victim, got)
		}
		// Read the shard's own state, not the wire's view of it: the healed
		// link still rolls seeded resets, and a reset version read says -1.
		if got := servers[victim].DatasetVersion("cri1"); got != want {
			t.Fatalf("cycle %d: shard %d readmitted at version %d, want broadcast version %d",
				cycle, victim, got, want)
		}
	}
	wg.Wait()

	// Every success must carry the reference hash; every failure must be
	// typed; there is no third kind of outcome.
	success, failures, replays := 0, 0, 0
	for _, o := range outcomes {
		if o.err == nil {
			success++
			if o.res.Replayed {
				replays++
			}
			if o.res.ResultHash != ref[o.wi] {
				t.Fatalf("successful %s query hash %016x != serial reference %016x",
					workloads[o.wi].alg, o.res.ResultHash, ref[o.wi])
			}
			continue
		}
		failures++
		var qe *resilience.QueryError
		if !errors.As(o.err, &qe) {
			t.Fatalf("silent failure: untyped error %v", o.err)
		}
		switch qe.Class {
		case resilience.Internal, resilience.Overloaded, resilience.Canceled:
		default:
			t.Fatalf("unexpected failure class %v: %v", qe.Class, o.err)
		}
	}
	if len(outcomes) != clients*perClient {
		t.Fatalf("lost outcomes: %d recorded, want %d", len(outcomes), clients*perClient)
	}
	if success == 0 {
		t.Fatal("storm produced zero successes")
	}

	// Zero duplicate executions: no (shard, key) pair ran the plan twice,
	// no matter how many times the wire forced a re-send.
	execMu.Lock()
	for key, n := range execCount {
		if n > 1 {
			t.Errorf("duplicate execution: %s ran %d times", key, n)
		}
	}
	execMu.Unlock()

	// Deterministic replay epilogue: force one dropped-after-commit
	// response on shard 0 and resubmit through its RemoteInstance — the
	// shard must answer from its idempotency window.
	idemBefore := servers[0].Metrics().IdemReplays
	faults[0].ForceDropNext(1)
	epi := remoteQuery(t, "GD", "cri1", 2)
	epi.IdempotencyKey = "rstorm-epilogue"
	ri0 := g.instance(0)
	res, err := ri0.Do(context.Background(), epi)
	if err != nil {
		t.Fatalf("epilogue: %v", err)
	}
	if !res.Replayed {
		t.Fatal("epilogue: forced drop was not answered by a replay")
	}
	// At least the forced drop replayed; the seeded stream may roll a second
	// drop on the re-send, which replays again.
	if got := servers[0].Metrics().IdemReplays; got <= idemBefore {
		t.Fatalf("epilogue: shard IdemReplays %d, want more than %d", got, idemBefore)
	}

	// Worst-case execution amplification (DESIGN.md §18): every engine
	// execution is funded by a unit some wire send took from its request's
	// allowance, so a request can cost at most the allowance it was minted
	// with — the default here, and the direct epilogue's own mint is smaller
	// still. The idempotency window keeps the measured figure near 1.
	var executions uint64
	for i := range servers {
		executions += servers[i].Metrics().Executions
	}
	const requests = clients*perClient + 1 // the storm plus the epilogue
	if executions > requests*DefaultAllowance {
		t.Fatalf("execution amplification: %d executions for %d requests exceeds the allowance of %d per request",
			executions, requests, DefaultAllowance)
	}
	t.Logf("execution amplification: %d executions for %d requests (%.2fx; bound: the allowance, %dx)",
		executions, requests, float64(executions)/requests, DefaultAllowance)

	var drops, garbles uint64
	for i := range faults {
		c := faults[i].Counters()
		drops += c.Drops
		garbles += c.Garbles
	}
	t.Logf("storm: %d ok (%d replayed), %d typed failures; wire injected %d drops, %d garbles; budget %+v",
		success, replays, failures, drops, garbles, budget.Stats())

	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < shards; i++ {
		fronts[i].Close()
		if err := servers[i].Shutdown(context.Background()); err != nil {
			t.Fatalf("shard %d shutdown: %v", i, err)
		}
	}

	// Zero goroutine leaks once the tier, the HTTP servers and the pooled
	// clients have all unwound.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gor := runtime.NumGoroutine(); gor <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
