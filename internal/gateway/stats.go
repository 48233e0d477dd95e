package gateway

import (
	"remac/internal/resilience"
	"remac/internal/serve"
)

// tenantLatencyWindow bounds each tenant's sliding latency window.
const tenantLatencyWindow = 256

// tenantCap bounds the per-tenant state keyed by the client-supplied
// tenant name — the stats here and the quota buckets in quota.go — so a
// stream of made-up X-Tenant values cannot grow the gateway without bound:
// beyond it the least-recently-seen tenant's state is dropped (its counters
// restart from zero if it returns).
const tenantCap = 4096

// tenantStats is one tenant's live accounting: the exported counters,
// updated in place, plus the latency window its percentiles are read from.
type tenantStats struct {
	TenantStats
	lat *serve.LatencyRing
}

// tenantFinish folds one settled request into its tenant's stats. Quota
// rejections never enter the latency window (they settle in microseconds
// and would drown the signal the per-tenant percentiles exist for:
// whether real queries of this tenant are getting slower).
func (g *Gateway) tenantFinish(tenant string, latencySec, flop float64, err error) {
	g.tenantMu.Lock()
	defer g.tenantMu.Unlock()
	ts, ok := g.tenants.Get(tenant)
	if !ok {
		ts = &tenantStats{lat: serve.NewLatencyRing(tenantLatencyWindow)}
		g.tenants.Put(tenant, ts, 1)
	}
	ts.Queries++
	switch {
	case err == nil:
		ts.Completed++
		ts.FLOP += flop
		ts.lat.Observe(latencySec)
	case resilience.IsClass(err, resilience.Quota):
		ts.QuotaRejected++
	default:
		ts.Failed++
	}
}

// TenantStats is one tenant's aggregate view in Stats.
type TenantStats struct {
	Queries   uint64 `json:"queries"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// QuotaRejected counts 429-typed admissions denials.
	QuotaRejected uint64 `json:"quota_rejected"`
	// FLOP is the total charged floating-point work — the audit plane's
	// per-event cost, aggregated.
	FLOP float64 `json:"flop"`
	// Latency percentiles over the tenant's recent completed queries.
	LatencyP50Sec float64 `json:"latency_p50_sec"`
	LatencyP95Sec float64 `json:"latency_p95_sec"`
}

// ShardStats pairs a shard's identity with its metrics snapshot and
// lifecycle view.
type ShardStats struct {
	Shard     int            `json:"shard"`
	ID        string         `json:"id"`
	Lifecycle ShardLifecycle `json:"lifecycle"`
	Snapshot  serve.Snapshot `json:"snapshot"`
	// Wire reports transport counters for remote shards (nil for
	// in-process instances).
	Wire *WireStats `json:"wire,omitempty"`
}

// Stats is the gateway's aggregate /stats payload: routing counters, the
// merged cross-shard snapshot, and per-shard / per-tenant breakdowns.
type Stats struct {
	Shards int `json:"shards"`
	// Routed counts successfully served queries; Spilled the subset served
	// off their home shard; FailedOver the subset re-routed off a failed
	// shard.
	Routed     uint64 `json:"routed"`
	Spilled    uint64 `json:"spilled"`
	FailedOver uint64 `json:"failed_over"`
	// QuotaRejected counts tenant-quota denials (429); OverloadRejected
	// counts whole-tier overload failures that exhausted spill-over (503);
	// FailoverExhausted counts queries whose every failover attempt also
	// failed; DeadlineExceeded counts queries whose per-query deadline ran
	// out across attempts (504).
	QuotaRejected     uint64 `json:"quota_rejected"`
	OverloadRejected  uint64 `json:"overload_rejected"`
	FailoverExhausted uint64 `json:"failover_exhausted"`
	DeadlineExceeded  uint64 `json:"deadline_exceeded"`
	// Invalidations counts acknowledged invalidation broadcasts;
	// InvalidationsLagged counts shard catch-ups that a dead shard failed
	// to acknowledge (repaired by the rejoin gate before readmission).
	Invalidations       uint64 `json:"invalidations"`
	InvalidationsLagged uint64 `json:"invalidations_lagged"`
	// Ejections / Respawns / Rejoins count lifecycle transitions across
	// the fleet.
	Ejections uint64 `json:"ejections"`
	Respawns  uint64 `json:"respawns"`
	Rejoins   uint64 `json:"rejoins"`
	// AuditWritten / AuditDropped report audit-plane flow; drops mean the
	// queue is undersized for the traffic.
	AuditWritten uint64 `json:"audit_written"`
	AuditDropped uint64 `json:"audit_dropped"`

	// Merged is the cross-shard aggregate (serve.MergeSnapshots).
	Merged serve.Snapshot `json:"merged"`
	// PerShard breaks the same counters down by shard.
	PerShard []ShardStats `json:"per_shard"`
	// Tenants breaks traffic down by tenant.
	Tenants map[string]TenantStats `json:"tenants"`
}

// Stats assembles the aggregate view: every shard's snapshot (merged and
// per-shard), the routing and audit counters, and per-tenant breakdowns.
func (g *Gateway) Stats() Stats {
	g.statMu.Lock()
	st := g.stat
	g.statMu.Unlock()
	st.Shards = len(g.ids)
	st.Tenants = map[string]TenantStats{}
	if g.audit != nil {
		st.AuditWritten, st.AuditDropped = g.audit.counters()
	}
	snaps := make([]serve.Snapshot, len(g.ids))
	for i := range snaps {
		inst := g.instance(i)
		snaps[i] = inst.Metrics()
		ss := ShardStats{
			Shard: i, ID: g.ids[i], Lifecycle: g.life.view(i), Snapshot: snaps[i],
		}
		if ri, ok := inst.(*RemoteInstance); ok {
			ws := ri.WireStats()
			ss.Wire = &ws
		}
		st.PerShard = append(st.PerShard, ss)
	}
	st.Merged = serve.MergeSnapshots(snaps...)
	g.tenantMu.Lock()
	g.tenants.Each(func(name string, ts *tenantStats) bool {
		out := ts.TenantStats
		p := ts.lat.Percentiles(0.50, 0.95)
		out.LatencyP50Sec, out.LatencyP95Sec = p[0], p[1]
		st.Tenants[name] = out
		return false
	})
	g.tenantMu.Unlock()
	return st
}
