package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"remac/internal/algorithms"
	"remac/internal/gateway"
	"remac/internal/gateway/chaostest"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// shardWorkload is the overlapping stream the shard experiment replays:
// two solvers over one dataset plus the GNMF stress case, so affinity
// routing has real cross-query locality to preserve (DFP and GD on cri1
// share loop-constant intermediates under one cache namespace).
var shardWorkload = []serveCase{
	{algorithms.DFP, "cri1", 3},
	{algorithms.GD, "cri1", 3},
	{algorithms.GNMF, "red2", 3},
}

// shardRepeats is how many times each workload entry replays per arm.
const shardRepeats = 12

// shardTenant skews the replayed traffic across tenants (half the stream
// from one heavy tenant, a long tail behind it) so the per-tenant stats
// and audit plane see a realistic mix. Deterministic in the query index.
func shardTenant(k int) string {
	switch k % 8 {
	case 0, 1, 2, 3:
		return "tenant-a"
	case 4, 5:
		return "tenant-b"
	case 6:
		return "tenant-c"
	default:
		return "tenant-d"
	}
}

// shardArm replays the workload through a gateway with n shards and
// returns the gateway stats plus per-workload result hashes.
func shardArm(shards int, random bool, seed uint64) (gateway.Stats, map[int]uint64, error) {
	gw := gateway.New(gateway.Config{
		Shards:      shards,
		Seed:        seed,
		RouteRandom: random,
		Serve:       serve.Config{Workers: 4, QueueDepth: 64},
	})
	hashes := map[int]uint64{}
	total := shardRepeats * len(shardWorkload)
	for k := 0; k < total; k++ {
		wi := k % len(shardWorkload)
		q, err := serveQuery(shardWorkload[wi])
		if err != nil {
			return gateway.Stats{}, nil, err
		}
		res, err := gw.Do(context.Background(), gateway.Request{Tenant: shardTenant(k), Query: q})
		if err != nil {
			return gateway.Stats{}, nil, fmt.Errorf("shard arm (%d shards): query %d: %w", shards, k, err)
		}
		if !matchesRef(hashes, wi, res.ResultHash) {
			return gateway.Stats{}, nil, fmt.Errorf("shard arm (%d shards): workload %d result differs bitwise between repeats", shards, wi)
		}
	}

	// Invalidation gate: an acknowledged fan-out must leave every shard at
	// the broadcast version before it returns.
	v := gw.InvalidateDataset("cri1")
	for i, sv := range gw.ShardVersions("cri1") {
		if sv != v {
			return gateway.Stats{}, nil, fmt.Errorf("shard arm (%d shards): shard %d at version %d after fan-out returned, want %d", shards, i, sv, v)
		}
	}

	st := gw.Stats()
	if err := gw.Shutdown(context.Background()); err != nil {
		return gateway.Stats{}, nil, err
	}
	return st, hashes, nil
}

// shardQuotaArm replays the victim tenants' stream — optionally alongside
// a quota-capped noisy tenant hammering the tier — and returns the stats.
func shardQuotaArm(noisy bool) (gateway.Stats, error) {
	cfg := gateway.Config{
		Shards: 2,
		Seed:   17,
		Serve:  serve.Config{Workers: 4, QueueDepth: 64},
	}
	if noisy {
		// The noisy tenant gets a near-zero rate and one slot: almost every
		// submission is a typed 429 before it can touch a shard.
		cfg.Quotas = map[string]gateway.TenantQuota{
			"noisy": {QPS: 0.5, Burst: 1, MaxConcurrent: 1},
		}
	}
	gw := gateway.New(cfg)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Two victim tenants replay the stream sequentially (their latencies
	// are the protected signal).
	for _, victim := range []string{"victim-1", "victim-2"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for k := 0; k < 2*len(shardWorkload); k++ {
				q, err := serveQuery(shardWorkload[k%len(shardWorkload)])
				if err != nil {
					errc <- err
					return
				}
				if _, err := gw.Do(context.Background(), gateway.Request{Tenant: tenant, Query: q}); err != nil {
					errc <- fmt.Errorf("victim %s: %w", tenant, err)
					return
				}
			}
		}(victim)
	}
	if noisy {
		// The noisy tenant fires a concurrent burst; the quota sheds it.
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q, err := serveQuery(shardWorkload[0])
				if err != nil {
					errc <- err
					return
				}
				_, err = gw.Do(context.Background(), gateway.Request{Tenant: "noisy", Query: q})
				if err != nil && !resilience.IsClass(err, resilience.Quota) {
					errc <- fmt.Errorf("noisy tenant: unexpected non-quota failure: %w", err)
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return gateway.Stats{}, err
	}
	st := gw.Stats()
	if err := gw.Shutdown(context.Background()); err != nil {
		return gateway.Stats{}, err
	}
	return st, nil
}

// outageFleet is a three-shard fleet and one way of taking a shard away
// from it mid-stream: a killed process or a severed network.
type outageFleet struct {
	name  string // names the arm in errors
	insts []gateway.Instance
	// respawn is the supervisor's hook while failover is on.
	respawn func(i int, id string) gateway.Instance
	query   func(serveCase) (serve.Query, error)
	// down takes the victim away; heal (optional) undoes it from outside —
	// a killed shard is replaced by respawn instead.
	down, heal func(victim int)
	// aux is a dataset no workload reads, invalidated during the outage: the
	// victim must miss the broadcast and replay it before it is readmitted.
	aux          string
	probeTimeout time.Duration
}

// noFailoverAllowance is the control arms' attempt allowance: one shard try
// and the one execution (or wire send) under it — nothing left to retry or
// fail over with.
const noFailoverAllowance = 2

// availabilityArm replays the workload through the fleet, takes the cri1
// home away after one clean pass, and measures availability. With failover
// on, the gateway also probes (ejecting the victim, then readmitting it —
// respawned or healed — only after invalidation catch-up); the control arm
// grants each query one try and one execution (no failover) and disables
// probing and passive detection, so every query routed at the victim fails.
// Returns the stats, the availability fraction, and the per-workload result
// hashes of the successes.
func availabilityArm(f outageFleet, failover bool) (gateway.Stats, float64, map[int]uint64, error) {
	cfg := gateway.Config{Seed: 17, ProbeTimeout: f.probeTimeout, EjectAfter: -1, PassiveFailures: -1}
	if failover {
		cfg.EjectAfter, cfg.PassiveFailures, cfg.RejoinProbes, cfg.Respawn = 2, 2, 1, f.respawn
	}
	gw := gateway.NewWithInstances(cfg, f.insts)
	fail := func(format string, args ...any) (gateway.Stats, float64, map[int]uint64, error) {
		gw.Shutdown(context.Background())
		return gateway.Stats{}, 0, nil, fmt.Errorf(f.name+": "+format, args...)
	}

	const repeats = 8
	total := repeats * len(shardWorkload)
	downAt := len(shardWorkload) // one clean pass establishes the references
	victim := -1
	hashes := map[int]uint64{}
	ok := 0
	var auxVersion int64
	for k := 0; k < total; k++ {
		if k == downAt {
			if victim < 0 {
				return fail("no cri1 success in the clean pass")
			}
			f.down(victim)
			if failover {
				auxVersion = gw.InvalidateDataset(f.aux)
			}
		}
		if failover && k > downAt && k%3 == 0 {
			gw.ProbeNow()
		}
		wi := k % len(shardWorkload)
		q, err := f.query(shardWorkload[wi])
		if err != nil {
			return fail("%w", err)
		}
		if !failover {
			q.Attempts = noFailoverAllowance
		}
		res, err := gw.Do(context.Background(), gateway.Request{Tenant: shardTenant(k), Query: q})
		if err != nil {
			if k < downAt {
				return fail("clean-pass query %d: %w", k, err)
			}
			if !resilience.IsClass(err, resilience.Internal) && !resilience.IsClass(err, resilience.Overloaded) {
				return fail("query %d failed outside the expected classes: %w", k, err)
			}
			continue
		}
		ok++
		if shardWorkload[wi].dataset == "cri1" && victim < 0 {
			victim = res.Shard
		}
		if res.ResultHash == 0 {
			return fail("query %d returned no result hash", k)
		}
		if !matchesRef(hashes, wi, res.ResultHash) {
			return fail("workload %d result differs bitwise across the outage", wi)
		}
	}

	if failover {
		// Drive the supervisor to readmission and check the catch-up gate:
		// rejoin stays shut until the victim answers version reads again and
		// has replayed the broadcast it missed.
		if f.heal != nil {
			f.heal(victim)
		}
		for r := 0; r < 8 && gw.ShardState(victim) != gateway.ShardHealthy; r++ {
			gw.ProbeNow()
		}
		if got := gw.ShardState(victim); got != gateway.ShardHealthy {
			return fail("victim %d state %v after probe rounds, want healthy", victim, got)
		}
		for i, sv := range gw.ShardVersions(f.aux) {
			if sv != auxVersion {
				return fail("shard %d at %s version %d after rejoin, want %d", i, f.aux, sv, auxVersion)
			}
		}
	}

	st := gw.Stats()
	if err := gw.Shutdown(context.Background()); err != nil {
		return gateway.Stats{}, 0, nil, err
	}
	return st, float64(ok) / float64(total), hashes, nil
}

// shardFailoverArm is the availability arm over three killable in-process
// shards: the victim's process dies, and the supervisor respawns it.
func shardFailoverArm(failover bool) (gateway.Stats, float64, map[int]uint64, error) {
	mk := func(id string) *chaostest.Killable {
		return chaostest.NewKillable(serve.New(serve.Config{Workers: 2, QueueDepth: 64, ShardID: id}))
	}
	slots := make([]*chaostest.Killable, 3)
	f := outageFleet{name: "shard failover", insts: make([]gateway.Instance, len(slots)), query: serveQuery, aux: "aux"}
	for i := range slots {
		slots[i] = mk(fmt.Sprintf("shard-%d", i))
		f.insts[i] = slots[i]
	}
	f.respawn = func(i int, id string) gateway.Instance {
		slots[i] = mk(id)
		return slots[i]
	}
	f.down = func(victim int) { slots[victim].Kill(chaostest.KillErrors) }
	return availabilityArm(f, failover)
}

// victimP95 is the worst victim tenant p95 in an arm.
func victimP95(st gateway.Stats) float64 {
	p := 0.0
	for _, tenant := range []string{"victim-1", "victim-2"} {
		if ts, ok := st.Tenants[tenant]; ok && ts.LatencyP95Sec > p {
			p = ts.LatencyP95Sec
		}
	}
	return p
}

// ShardBench measures the sharded serving tier: the overlapping stream
// replayed through 1, 2 and 4 affinity-routed shards and a 4-shard
// random-routing control, plus a noisy-neighbor pair of arms under tenant
// quotas. The experiment fails unless (1) every arm's results are bitwise
// identical to the single-instance reference, (2) affinity routing at 4
// shards sustains a strictly higher intermediate-cache hit rate than
// random routing, (3) the quota-capped noisy tenant receives typed 429s
// while the victims' p95 stays within 2x of the no-noisy-neighbor run,
// (4) every invalidation fan-out leaves all shards at the broadcast
// version before returning, and (5) availability during a one-shard kill
// is strictly higher with failover than in the no-failover control, with
// the victim ejected, respawned, and readmitted only after invalidation
// catch-up.
func ShardBench() (*Table, error) {
	t := &Table{
		ID:      "Shard",
		Title:   "Sharded serving tier: affinity vs random routing, tenant quotas under a noisy neighbor",
		Columns: []string{"shards", "queries", "avail%", "failovers", "quota 429s", "GFLOP", "plan hit%", "inter hit%", "p95(ms)"},
	}

	type routeArm struct {
		label  string
		shards int
		random bool
	}
	arms := []routeArm{
		{"single", 1, false},
		{"affinity-2", 2, false},
		{"affinity-4", 4, false},
		{"random-4", 4, true},
	}
	var refHashes map[int]uint64
	hitRate := map[string]float64{}
	for _, arm := range arms {
		st, hashes, err := shardArm(arm.shards, arm.random, 17)
		if err != nil {
			return nil, err
		}
		if refHashes == nil {
			refHashes = hashes
		} else {
			for wi, ref := range refHashes {
				if hashes[wi] != ref {
					return nil, fmt.Errorf("shard: arm %s workload %d differs bitwise from the single-instance reference", arm.label, wi)
				}
			}
		}
		hitRate[arm.label] = st.Merged.InterHitRate
		t.Rows = append(t.Rows, Row{
			Label: arm.label,
			Values: map[string]float64{
				"shards":     float64(arm.shards),
				"queries":    float64(st.Routed),
				"avail%":     100,
				"failovers":  0,
				"quota 429s": 0,
				"GFLOP":      st.Tenants["tenant-a"].FLOP/1e9 + st.Tenants["tenant-b"].FLOP/1e9 + st.Tenants["tenant-c"].FLOP/1e9 + st.Tenants["tenant-d"].FLOP/1e9,
				"plan hit%":  100 * st.Merged.PlanHitRate,
				"inter hit%": 100 * st.Merged.InterHitRate,
				"p95(ms)":    st.Merged.LatencyP95Sec * 1e3,
			},
		})
	}
	if hitRate["affinity-4"] <= hitRate["random-4"] {
		return nil, fmt.Errorf("shard: affinity routing at 4 shards hit %.1f%% of intermediate lookups, not strictly above random routing's %.1f%%",
			100*hitRate["affinity-4"], 100*hitRate["random-4"])
	}

	baseline, err := shardQuotaArm(false)
	if err != nil {
		return nil, err
	}
	noisyArm, err := shardQuotaArm(true)
	if err != nil {
		return nil, err
	}
	if noisyArm.QuotaRejected == 0 {
		return nil, fmt.Errorf("shard: the quota-capped noisy tenant was never rejected")
	}
	if ts := noisyArm.Tenants["noisy"]; ts.QuotaRejected == 0 {
		return nil, fmt.Errorf("shard: noisy tenant stats show no typed 429s: %+v", ts)
	}
	baseP95, noisyP95 := victimP95(baseline), victimP95(noisyArm)
	if baseP95 > 0 && noisyP95 > 2*baseP95 {
		return nil, fmt.Errorf("shard: victim p95 %.1fms under the quota-capped noisy neighbor, above 2x the %.1fms baseline",
			noisyP95*1e3, baseP95*1e3)
	}
	for _, qa := range []struct {
		label string
		st    gateway.Stats
	}{{"victims-only", baseline}, {"noisy+quota", noisyArm}} {
		label, st := qa.label, qa.st
		t.Rows = append(t.Rows, Row{
			Label: label,
			Values: map[string]float64{
				"shards":     2,
				"queries":    float64(st.Routed),
				"avail%":     100,
				"failovers":  0,
				"quota 429s": float64(st.QuotaRejected),
				"GFLOP":      st.Tenants["victim-1"].FLOP/1e9 + st.Tenants["victim-2"].FLOP/1e9,
				"plan hit%":  100 * st.Merged.PlanHitRate,
				"inter hit%": 100 * st.Merged.InterHitRate,
				"p95(ms)":    victimP95(st) * 1e3,
			},
		})
	}

	// Kill arms: one shard dies mid-stream, with and without failover.
	foStats, foAvail, foHashes, err := shardFailoverArm(true)
	if err != nil {
		return nil, err
	}
	ctlStats, ctlAvail, _, err := shardFailoverArm(false)
	if err != nil {
		return nil, err
	}
	for wi, ref := range refHashes {
		if hh, seen := foHashes[wi]; seen && hh != ref {
			return nil, fmt.Errorf("shard: failover arm workload %d differs bitwise from the single-instance reference", wi)
		}
	}
	if foAvail <= ctlAvail {
		return nil, fmt.Errorf("shard: failover availability %.1f%% not above the no-failover control's %.1f%% during a one-shard kill",
			100*foAvail, 100*ctlAvail)
	}
	if foStats.FailedOver == 0 {
		return nil, fmt.Errorf("shard: failover arm never failed a query over despite the kill")
	}
	if foStats.Ejections == 0 || foStats.Rejoins == 0 {
		return nil, fmt.Errorf("shard: failover arm ejections=%d rejoins=%d, want both nonzero", foStats.Ejections, foStats.Rejoins)
	}
	for _, ka := range []struct {
		label string
		st    gateway.Stats
		avail float64
	}{{"kill-failover", foStats, foAvail}, {"kill-no-failover", ctlStats, ctlAvail}} {
		t.Rows = append(t.Rows, Row{
			Label: ka.label,
			Values: map[string]float64{
				"shards":     3,
				"queries":    float64(ka.st.Routed),
				"avail%":     100 * ka.avail,
				"failovers":  float64(ka.st.FailedOver),
				"quota 429s": 0,
				"GFLOP":      ka.st.Tenants["tenant-a"].FLOP/1e9 + ka.st.Tenants["tenant-b"].FLOP/1e9 + ka.st.Tenants["tenant-c"].FLOP/1e9 + ka.st.Tenants["tenant-d"].FLOP/1e9,
				"plan hit%":  100 * ka.st.Merged.PlanHitRate,
				"inter hit%": 100 * ka.st.Merged.InterHitRate,
				"p95(ms)":    ka.st.Merged.LatencyP95Sec * 1e3,
			},
		})
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("per-workload results bitwise identical across all %d routing arms (FNV-64a over value bits)", len(arms)),
		fmt.Sprintf("affinity keeps each dataset's stream on one shard: %.1f%% intermediate hits at 4 shards vs %.1f%% under random routing",
			100*hitRate["affinity-4"], 100*hitRate["random-4"]),
		fmt.Sprintf("noisy neighbor: %d typed 429s for the capped tenant; victim p95 %.1fms vs %.1fms without it",
			noisyArm.Tenants["noisy"].QuotaRejected, noisyP95*1e3, baseP95*1e3),
		"every arm's invalidation fan-out left all shards at the broadcast version before returning",
		fmt.Sprintf("one-shard kill: %.1f%% availability with failover (%d failovers, %d ejections, victim respawned and readmitted after catch-up) vs %.1f%% without",
			100*foAvail, foStats.FailedOver, foStats.Ejections, 100*ctlAvail))
	return t, nil
}
