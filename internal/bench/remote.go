package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"remac/internal/engine"
	"remac/internal/gateway"
	"remac/internal/gateway/chaostest"
	"remac/internal/httpapi"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// remoteBenchQuery builds the workload query through the same HTTP query
// builder the shard front-ends run, so the wire carries the algorithm
// name and the far side rebinds its own inputs.
func remoteBenchQuery(w serveCase) (serve.Query, error) {
	b := httpapi.NewQueryBuilder(engine.RecoveryPolicy{})
	return b.Build(httpapi.QueryRequest{
		Algorithm:  string(w.alg),
		Dataset:    w.dataset,
		Iterations: w.iters,
	})
}

// remoteShard is one HTTP shard: a serve process behind a real HTTP
// front-end, reached through a seeded NetFault transport.
type remoteShard struct {
	srv   *serve.Server
	front *httptest.Server
	fault *chaostest.NetFault
}

func startRemoteShard(id string, seed uint64) *remoteShard {
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 64, ShardID: id})
	front := httptest.NewServer(httpapi.NewServeMux(
		srv, httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), httpapi.ServeHandlerConfig{}))
	// Zero fault rates: the partition is the only disturbance in the
	// availability arms, so the failover-vs-control delta is attributable.
	fault := chaostest.NewNetFault(nil, chaostest.NetFaultConfig{Seed: seed})
	return &remoteShard{srv: srv, front: front, fault: fault}
}

func (s *remoteShard) close() {
	s.front.Close()
	s.srv.Shutdown(context.Background())
}

func (s *remoteShard) instance(id string, budget *gateway.RetryBudget) *gateway.RemoteInstance {
	return gateway.NewRemote(gateway.RemoteConfig{
		BaseURL:      s.front.URL,
		ShardID:      id,
		Client:       &http.Client{Transport: s.fault},
		Budget:       budget,
		ProbeTimeout: time.Second,
	})
}

// remoteArm is the availability arm over three HTTP shards: the victim is
// partitioned away, ejected on wire evidence, and readmitted — through a
// fresh client at the same URL — once the partition heals. The dataset
// invalidated meanwhile crosses the wire as POST /invalidate, which only
// takes names the registry knows.
func remoteArm(failover bool) (gateway.Stats, float64, map[int]uint64, error) {
	budget := gateway.NewRetryBudget(64, 0.5)
	fleet := make([]*remoteShard, 3)
	f := outageFleet{name: "remote", insts: make([]gateway.Instance, len(fleet)), query: remoteBenchQuery,
		aux: "cri3", probeTimeout: time.Second}
	for i := range fleet {
		id := fmt.Sprintf("shard-%d", i)
		fleet[i] = startRemoteShard(id, 0x5EED+uint64(i))
		defer fleet[i].close()
		f.insts[i] = fleet[i].instance(id, budget)
	}
	f.respawn = func(i int, id string) gateway.Instance { return fleet[i].instance(id, budget) }
	f.down = func(victim int) { fleet[victim].fault.SetPartition(chaostest.PartitionAll) }
	f.heal = func(victim int) { fleet[victim].fault.SetPartition(chaostest.PartitionNone) }
	return availabilityArm(f, failover)
}

// remoteBudgetExhaustion drives a single RemoteInstance with a one-token,
// zero-refill budget into a wall of dropped responses and returns the
// resulting error: it must be a typed Overloaded (HTTP 503) carrying a
// Retry-After hint and the budget sentinel.
func remoteBudgetExhaustion() error {
	s := startRemoteShard("budget-shard", 0xB0D6E7)
	defer s.close()
	budget := gateway.NewRetryBudget(1, 0)
	ri := gateway.NewRemote(gateway.RemoteConfig{
		BaseURL: s.front.URL,
		ShardID: "budget-shard",
		Client:  &http.Client{Transport: s.fault},
		Budget:  budget,
	})
	q, err := remoteBenchQuery(shardWorkload[0])
	if err != nil {
		return err
	}
	q.IdempotencyKey = "bench-budget"
	s.fault.ForceDropNext(16)
	_, err = ri.Do(context.Background(), q)
	if err == nil {
		return fmt.Errorf("remote: budget-starved retries succeeded")
	}
	if !resilience.IsClass(err, resilience.Overloaded) {
		return fmt.Errorf("remote: budget exhaustion class = %v, want Overloaded (503)", err)
	}
	if !errors.Is(err, gateway.ErrRetryBudgetExhausted) {
		return fmt.Errorf("remote: budget exhaustion lost the sentinel: %v", err)
	}
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		return fmt.Errorf("remote: budget exhaustion carries no Retry-After hint: %v", err)
	}
	if st := budget.Stats(); st.Exhausted == 0 {
		return fmt.Errorf("remote: budget stats show no exhaustion: %+v", st)
	}
	return nil
}

// wireTotals sums the per-shard wire transport counters in a stats
// snapshot.
func wireTotals(st gateway.Stats) (attempts, retries, replays uint64) {
	for _, ss := range st.PerShard {
		if ss.Wire == nil {
			continue
		}
		attempts += ss.Wire.Attempts
		retries += ss.Wire.Retries
		replays += ss.Wire.Replays
	}
	return
}

// RemoteBench measures the HTTP remote transport: the overlapping stream
// replayed through three real HTTP shards while the cri1 home is
// network-partitioned mid-stream, with failover vs a no-failover
// control. The experiment fails unless (1) every successful query's
// server-computed result hash is bitwise identical to a local
// single-instance reference, (2) availability during the partition is
// strictly higher with failover + retry budget than in the control,
// (3) the failover arm ejects the unreachable shard on wire evidence and
// readmits it only after the healed shard replays the missed
// invalidation, and (4) retry-budget exhaustion surfaces as a typed
// Overloaded (HTTP 503) error carrying a Retry-After hint.
func RemoteBench() (*Table, error) {
	t := &Table{
		ID:      "Remote",
		Title:   "Remote shard transport: availability under a network partition, failover vs control",
		Columns: []string{"shards", "queries", "avail%", "failovers", "wire attempts", "wire retries", "replays"},
	}

	// Local single-instance reference: the same builder, the same
	// server-side hash, no wire.
	direct := serve.New(serve.Config{Workers: 2, ShardID: "reference"})
	refHashes := map[int]uint64{}
	for wi, w := range shardWorkload {
		q, err := remoteBenchQuery(w)
		if err != nil {
			return nil, err
		}
		res, err := direct.Do(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("remote: reference workload %d: %w", wi, err)
		}
		refHashes[wi] = res.ResultHash
	}
	if err := direct.Shutdown(context.Background()); err != nil {
		return nil, err
	}

	foStats, foAvail, foHashes, err := remoteArm(true)
	if err != nil {
		return nil, err
	}
	ctlStats, ctlAvail, ctlHashes, err := remoteArm(false)
	if err != nil {
		return nil, err
	}
	for _, armHashes := range []map[int]uint64{foHashes, ctlHashes} {
		for wi, hh := range armHashes {
			if hh != refHashes[wi] {
				return nil, fmt.Errorf("remote: workload %d wire result differs bitwise from the local reference", wi)
			}
		}
	}
	if foAvail <= ctlAvail {
		return nil, fmt.Errorf("remote: failover availability %.1f%% not above the no-failover control's %.1f%% during the partition",
			100*foAvail, 100*ctlAvail)
	}
	if foStats.FailedOver == 0 {
		return nil, fmt.Errorf("remote: failover arm never failed a query over despite the partition")
	}
	if foStats.Ejections == 0 || foStats.Rejoins == 0 {
		return nil, fmt.Errorf("remote: failover arm ejections=%d rejoins=%d, want both nonzero", foStats.Ejections, foStats.Rejoins)
	}
	if err := remoteBudgetExhaustion(); err != nil {
		return nil, err
	}

	for _, arm := range []struct {
		label string
		st    gateway.Stats
		avail float64
	}{{"partition-failover", foStats, foAvail}, {"partition-no-failover", ctlStats, ctlAvail}} {
		attempts, retries, replays := wireTotals(arm.st)
		t.Rows = append(t.Rows, Row{
			Label: arm.label,
			Values: map[string]float64{
				"shards":        3,
				"queries":       float64(arm.st.Routed),
				"avail%":        100 * arm.avail,
				"failovers":     float64(arm.st.FailedOver),
				"wire attempts": float64(attempts),
				"wire retries":  float64(retries),
				"replays":       float64(replays),
			},
		})
	}

	foA, foR, foRep := wireTotals(foStats)
	t.Notes = append(t.Notes,
		"every successful wire result bitwise identical to the local single-instance reference (server-computed FNV-64a result hash)",
		fmt.Sprintf("one-shard network partition: %.1f%% availability with failover + retry budget (%d failovers, %d ejections on wire evidence, victim readmitted after invalidation catch-up) vs %.1f%% without",
			100*foAvail, foStats.FailedOver, foStats.Ejections, 100*ctlAvail),
		fmt.Sprintf("wire transport: %d attempts, %d retries, %d idempotent replays in the failover arm", foA, foR, foRep),
		"retry-budget exhaustion surfaced as a typed Overloaded (HTTP 503) error with a Retry-After hint")
	return t, nil
}
