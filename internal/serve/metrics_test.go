package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/resilience"
)

// TestMetricsQuantileConcurrent hammers finished() from many goroutines
// while readers pull quantiles, then checks the window's contents are
// coherent: counters exact, quantiles inside the fed value range and
// monotone in p. Run under -race this also proves the locking.
func TestMetricsQuantileConcurrent(t *testing.T) {
	m := newMetrics()
	const (
		writers      = 8
		perWriter    = 400 // 3200 total: forces ring wraparound past 1024
		loVal, hiVal = 0.001, 0.010
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: quantiles must stay within the fed range at every
	// intermediate point, not just at the end.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if q := m.snapshot().LatencyP95Sec; q != 0 && (q < loVal || q > hiVal) {
					t.Errorf("mid-run p95 %g outside fed range [%g, %g]", q, loVal, hiVal)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.dequeued()
				// Latencies sweep the [loVal, hiVal] range deterministically.
				lat := loVal + (hiVal-loVal)*float64(i)/float64(perWriter)
				switch i % 8 {
				case 6: // canceled outcome: no latency sample
					m.finished(lat, &resilience.QueryError{Class: resilience.Canceled, Err: context.Canceled})
				case 7: // failed outcome: no latency sample
					m.finished(lat, &resilience.QueryError{Class: resilience.Execution, Err: errors.New("boom")})
				default:
					m.finished(lat, nil)
				}
			}
		}(w)
	}
	// Wait for writers (the first 8+2 Adds minus the 2 readers).
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Stop readers once writers are done: writers finish, then signal.
	go func() {
		for {
			m.mu.Lock()
			total := m.c.Completed + m.c.Failed + m.c.Canceled
			m.mu.Unlock()
			if total == writers*perWriter {
				close(stop)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done

	snap := m.snapshot()
	wantOK := uint64(writers * perWriter * 6 / 8)
	wantCanceled := uint64(writers * perWriter / 8)
	if snap.Completed != wantOK || snap.Canceled != wantCanceled || snap.Failed != wantCanceled {
		t.Fatalf("counters = ok %d / canceled %d / failed %d, want %d / %d / %d",
			snap.Completed, snap.Canceled, snap.Failed, wantOK, wantCanceled, wantCanceled)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in-flight = %d after everything settled", snap.InFlight)
	}
	// The window wrapped (3200 samples > 1024 slots) and must still hold
	// only fed values, ordered by quantile.
	p50, p95, p99 := snap.LatencyP50Sec, snap.LatencyP95Sec, snap.LatencyP99Sec
	for _, q := range []float64{p50, p95, p99} {
		if q < loVal || q > hiVal {
			t.Fatalf("quantile %g outside fed range [%g, %g]", q, loVal, hiVal)
		}
	}
	if p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles not monotone: p50 %g, p95 %g, p99 %g", p50, p95, p99)
	}
}

// TestMetricsWindowWraparound feeds exactly latencyWindow+k samples and
// checks the oldest k fell out of the quantile computation.
func TestMetricsWindowWraparound(t *testing.T) {
	m := newMetrics()
	const k = 16
	// First k samples are huge outliers; the next latencyWindow overwrite
	// every slot with 1.0.
	for i := 0; i < k; i++ {
		m.dequeued()
		m.finished(1000, nil)
	}
	for i := 0; i < latencyWindow; i++ {
		m.dequeued()
		m.finished(1.0, nil)
	}
	if p99 := m.snapshot().LatencyP99Sec; p99 != 1.0 {
		t.Fatalf("p99 = %g: outliers survived a full window wraparound", p99)
	}
}

// TestBreakerCountersInSnapshot drives a real server into the full breaker
// cycle with always-failing execution probes and an injected clock, checking
// each transition lands in Metrics(): closed → open (Opened, shed Do calls
// with RetryAfter) → half-open (clock advance) → closed (probe successes).
func TestBreakerCountersInSnapshot(t *testing.T) {
	clk := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Unix(1700000000, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.t
	}
	advance := func(d time.Duration) {
		clk.mu.Lock()
		clk.t = clk.t.Add(d)
		clk.mu.Unlock()
	}

	s := New(Config{
		Workers:    1,
		QueueDepth: 8,
		Breaker: resilience.BreakerConfig{
			Window: 8, MinSamples: 4, FailureThreshold: 0.5,
			Cooldown: time.Second, HalfOpenProbes: 2, Now: now,
		},
	})
	defer s.Shutdown(context.Background())

	fail := testQuery(t, algorithms.GD, "cri1", 2)
	fail.Probe = func() error { return errors.New("probe: backend down") }
	ok := testQuery(t, algorithms.GD, "cri1", 2)

	if st := s.Metrics().BreakerState; st != "closed" {
		t.Fatalf("initial breaker state %q", st)
	}
	// Four execution failures cross MinSamples at rate 1.0: the breaker opens.
	for i := 0; i < 4; i++ {
		if _, err := s.Do(context.Background(), fail); !errors.Is(err, resilience.ErrExecution) {
			t.Fatalf("failing query %d: err = %v, want execution class", i, err)
		}
	}
	snap := s.Metrics()
	if snap.BreakerState != "open" {
		t.Fatalf("state after failures = %q, want open", snap.BreakerState)
	}
	if snap.Breaker.Opened != 1 {
		t.Fatalf("Opened = %d, want 1", snap.Breaker.Opened)
	}

	// While open every submission is shed with a Retry-After hint.
	_, err := s.Do(context.Background(), ok)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("open-breaker submission: err = %v, want overloaded", err)
	}
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("overloaded error carried no Retry-After: %+v", qe)
	}
	if snap = s.Metrics(); snap.Shed == 0 || snap.Breaker.Shed == 0 {
		t.Fatalf("shed not counted: Shed %d, Breaker.Shed %d", snap.Shed, snap.Breaker.Shed)
	}

	// Cooldown elapses: half-open; two successful probes close it again.
	advance(time.Second)
	if st := s.Metrics().BreakerState; st != "half-open" {
		t.Fatalf("state after cooldown = %q, want half-open", st)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Do(context.Background(), ok); err != nil {
			t.Fatalf("probe query %d: %v", i, err)
		}
	}
	snap = s.Metrics()
	if snap.BreakerState != "closed" {
		t.Fatalf("state after probe successes = %q, want closed", snap.BreakerState)
	}
	if snap.Breaker.HalfOpened != 1 || snap.Breaker.Closed != 1 {
		t.Fatalf("transition counters = %+v, want HalfOpened 1, Closed 1", snap.Breaker)
	}
	// Healthy again: a normal query sails through.
	if _, err := s.Do(context.Background(), ok); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
}

// TestHealthProbes checks the /healthz vs /readyz split: liveness is
// unconditional, readiness tracks breaker state and drain.
func TestHealthProbes(t *testing.T) {
	s := New(Config{
		Workers:    1,
		QueueDepth: 4,
		Breaker: resilience.BreakerConfig{
			Window: 8, MinSamples: 2, FailureThreshold: 0.5,
			Cooldown: time.Minute, HalfOpenProbes: 1,
		},
	})

	if h := s.Healthz(); !h.OK || h.Status != "serving" {
		t.Fatalf("fresh server healthz = %+v", h)
	}
	if r := s.Readyz(); !r.OK {
		t.Fatalf("fresh server readyz = %+v", r)
	}

	// Trip the breaker: still live, no longer ready, with a retry hint.
	fail := testQuery(t, algorithms.GD, "cri1", 2)
	fail.Probe = func() error { return errors.New("probe: down") }
	for i := 0; i < 2; i++ {
		s.Do(context.Background(), fail)
	}
	if h := s.Healthz(); !h.OK {
		t.Fatalf("open breaker failed liveness: %+v", h)
	}
	r := s.Readyz()
	if r.OK || r.Breaker != "open" || r.RetryAfterSec <= 0 {
		t.Fatalf("open breaker readyz = %+v, want not-ready with retry hint", r)
	}

	// Draining: liveness still true, readiness false.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h := s.Healthz(); !h.OK || h.Status != "draining" {
		t.Fatalf("draining healthz = %+v", h)
	}
	if r := s.Readyz(); r.OK {
		t.Fatalf("draining server still ready: %+v", r)
	}
}

// TestReadyzHintIsTheCooldownRemainder: while the breaker is open the
// /readyz payload and a rejected Do give the same hint — what is left of the
// cooldown, 0.4 s of 1 s at 600 ms after the trip — not the whole cooldown.
func TestReadyzHintIsTheCooldownRemainder(t *testing.T) {
	var nowNS atomic.Int64
	nowNS.Store(time.Unix(1700000000, 0).UnixNano())
	s := New(Config{
		Workers: 1,
		Breaker: resilience.BreakerConfig{
			Window: 8, MinSamples: 2, FailureThreshold: 0.5, Cooldown: time.Second,
			Now: func() time.Time { return time.Unix(0, nowNS.Load()) },
		},
	})
	defer s.Shutdown(context.Background())
	fail := testQuery(t, algorithms.GD, "cri1", 2)
	fail.Probe = func() error { return errors.New("probe: down") }
	for i := 0; i < 2; i++ {
		s.Do(context.Background(), fail)
	}
	nowNS.Add(int64(600 * time.Millisecond))

	const want = 0.4
	if r := s.Readyz(); r.OK || r.Breaker != "open" || math.Abs(r.RetryAfterSec-want) > 1e-9 {
		t.Errorf("readyz 600 ms into a 1 s cooldown = %+v, want retry_after_sec %g", r, want)
	}
	_, err := s.Do(context.Background(), testQuery(t, algorithms.GD, "cri1", 2))
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.Class != resilience.Overloaded || math.Abs(qe.RetryAfter.Seconds()-want) > 1e-9 {
		t.Errorf("Do 600 ms into a 1 s cooldown: %v, want an Overloaded rejection with RetryAfter %gs", err, want)
	}
}

// TestMergeSnapshots: counters sum, rates recompute from the sums, uptime
// is the longest shard's, latency percentiles are completed-weighted, and
// the worst breaker state wins.
func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{
		Shard:            "shard-0",
		UptimeSec:        10,
		Completed:        30,
		Failed:           1,
		PlanHits:         9,
		PlanMisses:       1,
		InterHits:        20,
		InterMisses:      5,
		InterBytes:       1 << 20,
		InterEntries:     4,
		QueueDepth:       2,
		InFlight:         1,
		LatencyP50Sec:    0.010,
		LatencyP95Sec:    0.020,
		BreakerState:     resilience.BreakerClosed.String(),
		Breaker:          resilience.BreakerCounters{Opened: 1, Shed: 3},
		IntegrityRepairs: 4,
		RepairSec:        1000,
	}
	b := Snapshot{
		Shard:         "shard-1",
		UptimeSec:     8,
		Completed:     10,
		Rejected:      2,
		PlanHits:      1,
		PlanMisses:    9,
		InterMisses:   15,
		LatencyP50Sec: 0.030,
		LatencyP95Sec: 0.060,
		BreakerState:  resilience.BreakerOpen.String(),
		Breaker:       resilience.BreakerCounters{Opened: 2},
	}

	m := MergeSnapshots(a, b)
	if m.Shard != "" {
		t.Fatalf("merged snapshot carries a shard label %q", m.Shard)
	}
	if m.Completed != 40 || m.Failed != 1 || m.Rejected != 2 {
		t.Fatalf("outcome counters did not sum: %+v", m)
	}
	if m.UptimeSec != 10 {
		t.Fatalf("uptime = %v, want the longest shard's 10", m.UptimeSec)
	}
	if m.QPS != 4 {
		t.Fatalf("QPS = %v, want 40 completed / 10 s = 4", m.QPS)
	}
	if m.PlanHits != 10 || m.PlanMisses != 10 || m.PlanHitRate != 0.5 {
		t.Fatalf("plan cache merge wrong: hits %d misses %d rate %v", m.PlanHits, m.PlanMisses, m.PlanHitRate)
	}
	if m.InterHits != 20 || m.InterMisses != 20 || m.InterHitRate != 0.5 {
		t.Fatalf("intermediate cache merge wrong: hits %d misses %d rate %v", m.InterHits, m.InterMisses, m.InterHitRate)
	}
	if m.InterBytes != 1<<20 || m.InterEntries != 4 {
		t.Fatalf("cache occupancy did not sum: %d bytes %d entries", m.InterBytes, m.InterEntries)
	}
	if m.QueueDepth != 2 || m.InFlight != 1 {
		t.Fatalf("queue gauges did not sum: depth %d inflight %d", m.QueueDepth, m.InFlight)
	}
	// Completed-weighted percentile: (30*0.010 + 10*0.030) / 40 = 0.015.
	if m.LatencyP50Sec < 0.0149 || m.LatencyP50Sec > 0.0151 {
		t.Fatalf("p50 = %v, want completed-weighted 0.015", m.LatencyP50Sec)
	}
	if m.LatencyP95Sec < 0.0299 || m.LatencyP95Sec > 0.0301 {
		t.Fatalf("p95 = %v, want completed-weighted 0.030", m.LatencyP95Sec)
	}
	if m.BreakerState != resilience.BreakerOpen.String() {
		t.Fatalf("breaker state = %q, want the worst shard's open", m.BreakerState)
	}
	if m.Breaker.Opened != 3 || m.Breaker.Shed != 3 {
		t.Fatalf("breaker counters did not sum: %+v", m.Breaker)
	}
	if m.IntegrityRepairs != 4 || m.RepairSec != 1000 {
		t.Fatalf("integrity counters did not sum: %+v", m)
	}
}

// TestMergeSnapshotsEmptyAndSingle: merging nothing is the zero snapshot;
// merging one snapshot keeps its counters (modulo the shard label).
func TestMergeSnapshotsEmptyAndSingle(t *testing.T) {
	if m := MergeSnapshots(); m.Completed != 0 || m.QPS != 0 {
		t.Fatalf("empty merge not zero: %+v", m)
	}
	one := Snapshot{Shard: "shard-0", UptimeSec: 5, Completed: 7, LatencyP50Sec: 0.002}
	m := MergeSnapshots(one)
	if m.Completed != 7 || m.UptimeSec != 5 || m.LatencyP50Sec != 0.002 {
		t.Fatalf("single merge mangled counters: %+v", m)
	}
}

// TestSnapshotKeysGolden pins the /stats wire contract (recorded before the
// counters became the accumulators): dashboards, RemoteInstance.Metrics and
// benchmark/ read these keys.
func TestSnapshotKeysGolden(t *testing.T) {
	want := []string{"breaker", "breaker_state", "canceled", "coded_recoveries", "completed",
		"corruptions_detected_abft", "corruptions_detected_digest", "corruptions_injected", "decode_sec",
		"encode_flop", "executions", "failed", "idem_coalesced", "idem_entries",
		"idem_replays", "in_flight", "integrity_repairs", "intermediate_cache_bytes",
		"intermediate_cache_entries", "intermediate_cache_hit_rate", "intermediate_cache_hits",
		"intermediate_cache_misses", "latency_p50_sec", "latency_p95_sec", "latency_p99_sec",
		"panics_recovered", "plan_cache_entries", "plan_cache_hit_rate", "plan_cache_hits",
		"plan_cache_misses", "qps", "queue_depth", "rejected", "repair_sec", "shed",
		"uptime_sec", "worker_respawns"}
	b, err := json.Marshal(Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot JSON keys = %q, want %q", got, want)
	}
}

// TestMergeSnapshotsSumsEveryCounter: a counter added to Snapshot merges
// with no further code — every numeric field outside the derived set sums,
// nested breaker counters included.
func TestMergeSnapshotsSumsEveryCounter(t *testing.T) {
	derived := map[string]bool{"UptimeSec": true, "QPS": true, "PlanHitRate": true, "InterHitRate": true,
		"LatencyP50Sec": true, "LatencyP95Sec": true, "LatencyP99Sec": true}
	var fill func(v reflect.Value, x int64)
	fill = func(v reflect.Value, x int64) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(uint64(x))
			case reflect.Int, reflect.Int64:
				f.SetInt(x)
			case reflect.Float64:
				f.SetFloat(float64(x))
			case reflect.Struct:
				fill(f, x)
			}
		}
	}
	var a, b Snapshot
	fill(reflect.ValueOf(&a).Elem(), 3)
	fill(reflect.ValueOf(&b).Elem(), 4)
	m := MergeSnapshots(a, b)
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := path + v.Type().Field(i).Name
			if derived[name] {
				continue
			}
			var got float64
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				got = float64(f.Uint())
			case reflect.Int, reflect.Int64:
				got = float64(f.Int())
			case reflect.Float64:
				got = f.Float()
			case reflect.Struct:
				check(name+".", f)
				continue
			default:
				continue
			}
			if got != 7 {
				t.Errorf("merged %s = %v, want 3 + 4", name, got)
			}
		}
	}
	check("", reflect.ValueOf(m))
	if m.UptimeSec != 4 || m.QPS != 7.0/4 || m.PlanHitRate != 0.5 || m.InterHitRate != 0.5 {
		t.Errorf("derived fields not recomputed: uptime %v qps %v plan %v inter %v",
			m.UptimeSec, m.QPS, m.PlanHitRate, m.InterHitRate)
	}
}
