package gateway

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// shardChaosSeed fixes every choice the storm makes (ring placement and
// victim selection), so a failure replays exactly.
const shardChaosSeed uint64 = 0xC0FFEE_5EED

// chaosMix is SplitMix64: the storm's only source of "randomness".
func chaosMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chaosResultHash collapses a result to one FNV-64a hash over the exact
// float bits of every value, so bitwise identity is one comparison.
func chaosResultHash(res *serve.QueryResult) uint64 {
	names := make([]string, 0, len(res.Values))
	for name := range res.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		m := res.Values[name]
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				bits := math.Float64bits(m.At(i, j))
				for b := 0; b < 8; b++ {
					buf[b] = byte(bits >> (8 * b))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestShardKillChaosStorm kills and respawns real serve.Server shards
// mid-traffic (run under -race in CI): concurrent clients replay two
// workloads through a 3-shard gateway while a controller repeatedly kills
// a seeded victim, drives ejection through probe rounds, broadcasts an
// invalidation the corpse must miss, and verifies the respawned shard is
// readmitted only after catch-up. Every successful query must be bitwise
// identical to a single-instance serial reference, every failure must be
// a typed QueryError (zero silent failures), and shutdown must release
// every goroutine.
func TestShardKillChaosStorm(t *testing.T) {
	type workload struct {
		alg   algorithms.Name
		iters int
	}
	workloads := []workload{{algorithms.DFP, 2}, {algorithms.GD, 2}}

	// Serial single-instance reference hashes.
	ref := make([]uint64, len(workloads))
	direct := serve.New(serve.Config{Workers: 2, ShardID: "reference"})
	for wi, w := range workloads {
		res, err := direct.Do(context.Background(), remoteQuery(t, string(w.alg), "cri1", w.iters))
		if err != nil {
			t.Fatalf("reference %v: %v", w.alg, err)
		}
		ref[wi] = chaosResultHash(res)
	}
	if err := direct.Shutdown(context.Background()); err != nil {
		t.Fatalf("reference shutdown: %v", err)
	}

	goroutinesBefore := runtime.NumGoroutine()

	const shards = 3
	var slotMu sync.Mutex
	slots := make([]*Killable, shards)
	mkShard := func(id string) *Killable {
		return NewKillable(serve.New(serve.Config{Workers: 2, QueueDepth: 64, ShardID: id}))
	}
	insts := make([]Instance, shards)
	for i := range insts {
		slots[i] = mkShard(fmt.Sprintf("shard-%d", i))
		insts[i] = slots[i]
	}
	slot := func(i int) *Killable {
		slotMu.Lock()
		defer slotMu.Unlock()
		return slots[i]
	}

	sink := &recordingSink{}
	cfg := Config{
		Seed:            shardChaosSeed,
		EjectAfter:      2,
		PassiveFailures: 2,
		RejoinProbes:    1,
		ProbeTimeout:    250 * time.Millisecond,
		AuditSink:       sink,
		Respawn: func(i int, id string) Instance {
			k := mkShard(id)
			slotMu.Lock()
			slots[i] = k
			slotMu.Unlock()
			return k
		},
	}
	g := NewWithInstances(cfg, insts)

	// Concurrent clients: each outcome is either a bitwise-checked success
	// or a typed error — anything else is a silent failure.
	type outcome struct {
		wi       int
		hash     uint64
		failover bool
		err      error
	}
	const clients, perClient = 6, 12
	outcomes := make([]outcome, 0, clients*perClient)
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				wi := (c + k) % len(workloads)
				q := remoteQuery(t, string(workloads[wi].alg), "cri1", workloads[wi].iters)
				res, err := g.Do(context.Background(), Request{
					Tenant:    fmt.Sprintf("tenant-%d", c),
					RequestID: fmt.Sprintf("storm-%d-%d", c, k),
					Query:     q,
				})
				o := outcome{wi: wi, err: err}
				if err == nil {
					o.hash = chaosResultHash(res.QueryResult)
					o.failover = res.Failover
				}
				outMu.Lock()
				outcomes = append(outcomes, o)
				outMu.Unlock()
			}
		}(c)
	}

	// Controller: three seeded kill → eject → invalidate → respawn →
	// rejoin cycles while the clients hammer the tier.
	for cycle := 0; cycle < 3; cycle++ {
		victim := int(chaosMix(shardChaosSeed+uint64(cycle)) % shards)
		ejBefore := g.Stats().Ejections
		slot(victim).Kill(KillErrors)

		// Ejection within the probe budget. Passive detection racing ahead
		// of the prober is fine — then the counter has already moved and no
		// probe rounds are spent; what is not fine is the corpse surviving
		// the full active budget.
		for r := 0; r < cfg.EjectAfter && g.Stats().Ejections == ejBefore; r++ {
			g.ProbeNow()
		}
		if g.Stats().Ejections == ejBefore {
			t.Fatalf("cycle %d: victim %d not ejected within EjectAfter=%d probe rounds",
				cycle, victim, cfg.EjectAfter)
		}

		// A broadcast the corpse must miss — and the rejoined instance must
		// replay before taking traffic.
		want := g.InvalidateDataset("cri1")

		// Worst case from here: eject-confirm, respawn, catch-up, readmit.
		for r := 0; r < 6 && g.ShardState(victim) != ShardHealthy; r++ {
			g.ProbeNow()
		}
		if got := g.ShardState(victim); got != ShardHealthy {
			t.Fatalf("cycle %d: victim %d state %v after respawn rounds, want healthy", cycle, victim, got)
		}
		if got := g.ShardVersions("cri1")[victim]; got != want {
			t.Fatalf("cycle %d: victim readmitted at version %d, want broadcast version %d", cycle, victim, got)
		}
	}
	wg.Wait()

	// Every success bitwise-identical; every failure typed; no third kind.
	success, failures, failovers := 0, 0, 0
	for _, o := range outcomes {
		if o.err == nil {
			success++
			if o.failover {
				failovers++
			}
			if o.hash != ref[o.wi] {
				t.Fatalf("successful query for workload %d differs bitwise from the serial reference", o.wi)
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
	t.Logf("storm: %d ok (%d failed over), %d typed failures", success, failovers, failures)

	st := g.Stats()
	if st.Ejections < 3 || st.Respawns < 3 || st.Rejoins < 3 {
		t.Fatalf("stats ejections=%d respawns=%d rejoins=%d, want >=3 each", st.Ejections, st.Respawns, st.Rejoins)
	}
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The audit trail must let an operator reconstruct each outage.
	ejects, rejoins := 0, 0
	for _, e := range sink.all() {
		if e.Kind != EventTransition {
			continue
		}
		switch e.To {
		case "ejected":
			ejects++
		case "healthy":
			rejoins++
		}
	}
	if ejects < 3 || rejoins < 3 {
		t.Fatalf("audit trail has %d ejections and %d rejoins, want >=3 each", ejects, rejoins)
	}

	// Zero goroutine leaks: everything the storm started must unwind.
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
