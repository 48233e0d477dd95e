package serve

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	"remac/internal/engine"
	"remac/internal/resilience"
)

// latencyWindow bounds the sliding window percentiles are computed over.
const latencyWindow = 1024

// LatencyRing is a fixed-size sliding window of latency samples with
// nearest-rank percentiles: the one ring behind the server-wide
// percentiles and the gateway's per-tenant percentiles.
// Not safe for concurrent use; each owner guards it with its own mutex.
type LatencyRing struct {
	n    int
	buf  []float64 // grows to n samples, then wraps at next
	next int
}

// NewLatencyRing returns a ring holding the last n samples.
func NewLatencyRing(n int) *LatencyRing { return &LatencyRing{n: n} }

// Observe records one sample, overwriting the oldest once the ring is full.
func (r *LatencyRing) Observe(sec float64) {
	if len(r.buf) < r.n {
		r.buf = append(r.buf, sec)
		return
	}
	r.buf[r.next] = sec
	r.next = (r.next + 1) % r.n
}

// Percentiles reads the nearest-rank percentile of the current window for
// each p (all zero while the window is empty).
func (r *LatencyRing) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(r.buf) == 0 {
		return out
	}
	sorted := append([]float64(nil), r.buf...)
	sort.Float64s(sorted)
	for i, p := range ps {
		k := int(p * float64(len(sorted)))
		if k >= len(sorted) {
			k = len(sorted) - 1
		}
		out[i] = sorted[k]
	}
	return out
}

// metrics aggregates server-wide counters. A single mutex is fine at this
// scale: updates are a handful per query, queries take milliseconds.
type metrics struct {
	mu    sync.Mutex
	start time.Time
	c     Snapshot // counter and gauge fields, updated in place under mu
	lat   *LatencyRing
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), lat: NewLatencyRing(latencyWindow)}
}

// add applies one counter update under the lock.
func (m *metrics) add(update func(c *Snapshot)) {
	m.mu.Lock()
	update(&m.c)
	m.mu.Unlock()
}

func (m *metrics) dequeued() {
	m.add(func(c *Snapshot) { c.QueueDepth--; c.InFlight++ })
}

// finished records one settled query: its wall latency and outcome.
// Canceled queries — whether they expired in the queue or mid-run — are
// counted apart from genuine failures, and neither feeds the latency
// window.
func (m *metrics) finished(latencySec float64, err error) {
	m.add(func(c *Snapshot) {
		c.InFlight--
		switch {
		case err == nil:
			c.Completed++
			m.lat.Observe(latencySec)
		case resilience.IsClass(err, resilience.Canceled) || errors.Is(err, engine.ErrCanceled):
			c.Canceled++
		default:
			c.Failed++
		}
	})
}

// Snapshot is a point-in-time view of the server's aggregate metrics,
// JSON-serializable for cmd/remac-serve's /stats endpoint. Its counter
// fields are also the live accumulators (metrics.c): adding a counter is
// one field here plus one increment where the event happens. Every numeric
// field sums across shards in MergeSnapshots except the derived ones
// (uptime, QPS, hit rates, latency percentiles), which snapshot and
// MergeSnapshots fill in.
type Snapshot struct {
	// Shard labels the instance this snapshot came from (Config.ShardID;
	// empty for a standalone server or a merged snapshot).
	Shard     string  `json:"shard,omitempty"`
	UptimeSec float64 `json:"uptime_sec"`
	Completed uint64  `json:"completed"`
	Failed    uint64  `json:"failed"`
	Canceled  uint64  `json:"canceled"`
	Rejected  uint64  `json:"rejected"`
	Shed      uint64  `json:"shed"`
	// QPS is completed queries per second of uptime.
	QPS float64 `json:"qps"`
	// Latency percentiles over the last completed queries (seconds).
	LatencyP50Sec float64 `json:"latency_p50_sec"`
	LatencyP95Sec float64 `json:"latency_p95_sec"`
	LatencyP99Sec float64 `json:"latency_p99_sec"`

	PlanHits    uint64  `json:"plan_cache_hits"`
	PlanMisses  uint64  `json:"plan_cache_misses"`
	PlanHitRate float64 `json:"plan_cache_hit_rate"`
	PlanEntries int     `json:"plan_cache_entries"`

	InterHits    uint64  `json:"intermediate_cache_hits"`
	InterMisses  uint64  `json:"intermediate_cache_misses"`
	InterHitRate float64 `json:"intermediate_cache_hit_rate"`
	InterEntries int     `json:"intermediate_cache_entries"`
	InterBytes   int64   `json:"intermediate_cache_bytes"`

	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`

	// Resilience counters.
	PanicsRecovered uint64                     `json:"panics_recovered"`
	WorkerRespawns  uint64                     `json:"worker_respawns"`
	BreakerState    string                     `json:"breaker_state"`
	Breaker         resilience.BreakerCounters `json:"breaker"`

	// Idempotency counters: engine plan executions, keyed resubmissions
	// replayed from the completed window, duplicates coalesced onto an
	// in-flight leader, and the window's current occupancy. Replays and
	// coalesces are executions that never happened.
	Executions    uint64 `json:"executions"`
	IdemReplays   uint64 `json:"idem_replays"`
	IdemCoalesced uint64 `json:"idem_coalesced"`
	IdemEntries   int    `json:"idem_entries"`

	// Integrity counters: corruptions that landed in served queries, split
	// by which verification layer caught them, plus lineage repair work.
	CorruptionsInjected uint64  `json:"corruptions_injected"`
	CorruptionsDigest   uint64  `json:"corruptions_detected_digest"`
	CorruptionsABFT     uint64  `json:"corruptions_detected_abft"`
	IntegrityRepairs    uint64  `json:"integrity_repairs"`
	RepairSec           float64 `json:"repair_sec"`

	// Coded-recovery counters: k-of-n decode recoveries served queries
	// performed (no recomputation), their simulated decode time, and the
	// parity-encoding work the coded policy charged.
	CodedRecoveries uint64  `json:"coded_recoveries"`
	DecodeSec       float64 `json:"decode_sec"`
	EncodeFLOP      float64 `json:"encode_flop"`

	// Deprecated: MQOSharedHits is always 0 and not on the wire: the
	// intermediate cache is the one cross-query source of loop-constant
	// values.
	MQOSharedHits uint64 `json:"-"`
	// Deprecated: MQOBatchedQueries is always 0 and not on the wire.
	MQOBatchedQueries uint64 `json:"-"`
	// Deprecated: Retries is always 0 and not on the wire: a server executes
	// each query once.
	Retries uint64 `json:"-"`
}

// snapshot copies the accumulators and fills in the derived fields.
func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	s := m.c
	p := m.lat.Percentiles(0.50, 0.95, 0.99)
	m.mu.Unlock()
	s.UptimeSec = time.Since(m.start).Seconds()
	s.LatencyP50Sec, s.LatencyP95Sec, s.LatencyP99Sec = p[0], p[1], p[2]
	s.fillRates()
	return s
}

// fillRates derives QPS and the cache hit rates from the counters.
func (s *Snapshot) fillRates() {
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	s.QPS = ratio(float64(s.Completed), s.UptimeSec)
	s.PlanHitRate = ratio(float64(s.PlanHits), float64(s.PlanHits+s.PlanMisses))
	s.InterHitRate = ratio(float64(s.InterHits), float64(s.InterHits+s.InterMisses))
}

// MergeSnapshots folds per-shard snapshots into one aggregate view for a
// gateway tier's /stats: every numeric field — counters, cache occupancy,
// resilience totals, the nested breaker counters — sums; rates (QPS, hit
// rates) are recomputed from the summed counters over the longest shard
// uptime; latency percentiles are completed-weighted averages of the shard
// percentiles — an approximation (exact merging would need the raw
// windows), adequate for dashboards and documented as such. The merged
// snapshot carries no Shard label.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var m Snapshot
	sum := reflect.ValueOf(&m).Elem()
	var uptime, p50, p95, p99 float64
	for _, s := range snaps {
		sumNumeric(sum, reflect.ValueOf(s))
		uptime = math.Max(uptime, s.UptimeSec)
		w := float64(s.Completed)
		p50 += float64(w * s.LatencyP50Sec)
		p95 += float64(w * s.LatencyP95Sec)
		p99 += float64(w * s.LatencyP99Sec)
		// The merged breaker state reports the worst shard: one open
		// breaker anywhere is the operational signal that matters.
		if worseBreakerState(s.BreakerState, m.BreakerState) {
			m.BreakerState = s.BreakerState
		}
	}
	w := math.Max(float64(m.Completed), 1)
	m.UptimeSec = uptime
	m.LatencyP50Sec, m.LatencyP95Sec, m.LatencyP99Sec = p50/w, p95/w, p99/w
	m.fillRates()
	return m
}

// sumNumeric adds every numeric field of src into dst, descending into
// nested structs; strings (labels, states) are left alone.
func sumNumeric(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Uint64:
			d.SetUint(d.Uint() + s.Uint())
		case reflect.Int, reflect.Int64:
			d.SetInt(d.Int() + s.Int())
		case reflect.Float64:
			d.SetFloat(d.Float() + s.Float())
		case reflect.Struct:
			sumNumeric(d, s)
		}
	}
}

// worseBreakerState orders breaker states by operational severity:
// open > half-open > closed > unknown/empty.
func worseBreakerState(a, b string) bool {
	rank := func(s string) int {
		switch s {
		case resilience.BreakerOpen.String():
			return 3
		case resilience.BreakerHalfOpen.String():
			return 2
		case resilience.BreakerClosed.String():
			return 1
		default:
			return 0
		}
	}
	return rank(a) > rank(b)
}
