package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"remac/internal/resilience"
	"remac/internal/serve"
)

// fakeShard is a scriptable Instance for routing tests.
type fakeShard struct {
	id string

	mu         sync.Mutex
	served     int
	attempts   int
	datasets   []string
	versions   map[string]int64
	invalOrder *[]string // shared recorder: "shardID" appended per invalidation
	overloaded bool
	fail       error
	down       bool            // liveness: Do fails Internal, Healthz reports not-OK
	noAck      bool            // drop invalidations (a shard that stopped acknowledging)
	deadlines  []time.Time     // ctx deadline observed per Do attempt (zero when none)
	timeouts   []time.Duration // q.Timeout observed per Do attempt
}

func newFakeShard(id string) *fakeShard {
	return &fakeShard{id: id, versions: map[string]int64{}}
}

func (f *fakeShard) Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	dl, _ := ctx.Deadline()
	f.deadlines = append(f.deadlines, dl)
	f.timeouts = append(f.timeouts, q.Timeout)
	if f.down {
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "shard", Err: ErrShardDown}
	}
	if f.overloaded {
		return nil, &resilience.QueryError{Class: resilience.Overloaded, Stage: "admission", Err: serve.ErrOverloaded}
	}
	if f.fail != nil {
		return nil, f.fail
	}
	f.served++
	f.datasets = append(f.datasets, q.Dataset)
	return &serve.QueryResult{Record: serve.Record{FLOP: 100}}, nil
}

func (f *fakeShard) InvalidateDataset(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.noAck || f.down {
		return
	}
	f.versions[id]++
	if f.invalOrder != nil {
		*f.invalOrder = append(*f.invalOrder, f.id)
	}
}

func (f *fakeShard) DatasetVersion(id string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.versions[id]
}

func (f *fakeShard) Metrics() serve.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return serve.Snapshot{Shard: f.id, Completed: uint64(f.served)}
}

func (f *fakeShard) Healthz() serve.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return serve.Health{OK: false, Status: "dead"}
	}
	return serve.Health{OK: true, Status: "serving"}
}
func (f *fakeShard) Readyz() serve.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return serve.Health{OK: !f.overloaded, Status: "serving"}
}
func (f *fakeShard) Shutdown(ctx context.Context) error { return nil }

func (f *fakeShard) servedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.served
}

func (f *fakeShard) setOverloaded(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.overloaded = v
}

func (f *fakeShard) setDown(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = v
}

func (f *fakeShard) setNoAck(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noAck = v
}

func (f *fakeShard) attemptCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

func fakeFleet(n int) ([]Instance, []*fakeShard) {
	insts := make([]Instance, n)
	fakes := make([]*fakeShard, n)
	for i := 0; i < n; i++ {
		fakes[i] = newFakeShard(fmt.Sprintf("shard-%d", i))
		insts[i] = fakes[i]
	}
	return insts, fakes
}

func gatewayQuery(dataset string) serve.Query {
	q := serve.NewQuery("x = read(A)\nwrite(x)", nil)
	q.Dataset = dataset
	return q
}

// TestGatewayAffinityRouting: every query for one dataset version lands
// on the same shard, and distinct datasets spread across the fleet.
func TestGatewayAffinityRouting(t *testing.T) {
	insts, fakes := fakeFleet(4)
	g := NewWithInstances(Config{Seed: 1}, insts)
	defer g.Shutdown(context.Background())

	for i := 0; i < 12; i++ {
		res, err := g.Do(context.Background(), Request{Tenant: "t", Query: gatewayQuery("cri1")})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if res.Spilled {
			t.Fatal("unloaded fleet spilled a query")
		}
	}
	busy := 0
	for _, f := range fakes {
		if f.servedCount() > 0 {
			busy++
			if f.servedCount() != 12 {
				t.Fatalf("dataset split across shards: shard %s served %d of 12", f.id, f.servedCount())
			}
		}
	}
	if busy != 1 {
		t.Fatalf("one dataset touched %d shards, want exactly 1", busy)
	}

	// Enough distinct datasets reach more than one shard.
	for i := 0; i < 16; i++ {
		if _, err := g.Do(context.Background(), Request{Tenant: "t", Query: gatewayQuery(fmt.Sprintf("ds-%d", i))}); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	busy = 0
	for _, f := range fakes {
		if f.servedCount() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("16 datasets landed on %d shard(s); placement is degenerate", busy)
	}
}

// TestGatewaySpilloverBounded: an overloaded home shard spills to the
// next shard in ring order (marked on the result and counted), and with
// the request's allowance spent the typed Overloaded error surfaces.
func TestGatewaySpilloverBounded(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 2}, insts)
	defer g.Shutdown(context.Background())

	q := gatewayQuery("cri1")
	q.Attempts = 2 // two shard tries: the home and one spill target
	order := g.order(q)
	fakes[order[0]].setOverloaded(true)

	res, err := g.Do(context.Background(), Request{Tenant: "t", Query: q})
	if err != nil {
		t.Fatalf("Do with open home breaker: %v", err)
	}
	if !res.Spilled || res.Shard != order[1] {
		t.Fatalf("spill-over went to shard %d (spilled=%v), want %d", res.Shard, res.Spilled, order[1])
	}
	if st := g.Stats(); st.Spilled != 1 {
		t.Fatalf("Stats.Spilled = %d, want 1", st.Spilled)
	}

	// Saturate the alternate too: both tries are spent on rejections, so
	// the third shard is never tried and the rejection surfaces typed.
	fakes[order[1]].setOverloaded(true)
	_, err = g.Do(context.Background(), Request{Tenant: "t", Query: q})
	if !resilience.IsClass(err, resilience.Overloaded) {
		t.Fatalf("exhausted spill-over returned %v, want Overloaded class", err)
	}
	if fakes[order[2]].servedCount() != 0 {
		t.Fatal("spill-over exceeded its bound")
	}
	if st := g.Stats(); st.OverloadRejected != 1 {
		t.Fatalf("Stats.OverloadRejected = %d, want 1", st.OverloadRejected)
	}
}

// TestGatewayQuotaRejectsTyped: a tenant over its quota gets a 429-typed
// Quota-class error before any shard is touched; other tenants proceed.
func TestGatewayQuotaRejectsTyped(t *testing.T) {
	insts, fakes := fakeFleet(2)
	g := NewWithInstances(Config{
		Seed:   3,
		Quotas: map[string]TenantQuota{"noisy": {QPS: 0.001, Burst: 1}},
	}, insts)
	defer g.Shutdown(context.Background())

	if _, err := g.Do(context.Background(), Request{Tenant: "noisy", Query: gatewayQuery("d")}); err != nil {
		t.Fatalf("first query within burst: %v", err)
	}
	served := fakes[0].servedCount() + fakes[1].servedCount()
	_, err := g.Do(context.Background(), Request{Tenant: "noisy", Query: gatewayQuery("d")})
	if !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("over-quota error = %v, want Quota class", err)
	}
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("quota rejection lacks Retry-After: %+v", qe)
	}
	if got := fakes[0].servedCount() + fakes[1].servedCount(); got != served {
		t.Fatal("rejected query reached a shard")
	}
	if _, err := g.Do(context.Background(), Request{Tenant: "polite", Query: gatewayQuery("d")}); err != nil {
		t.Fatalf("other tenant rejected alongside the noisy one: %v", err)
	}
	st := g.Stats()
	if st.QuotaRejected != 1 {
		t.Fatalf("Stats.QuotaRejected = %d, want 1", st.QuotaRejected)
	}
	if ts := st.Tenants["noisy"]; ts.QuotaRejected != 1 || ts.Completed != 1 {
		t.Fatalf("noisy tenant stats = %+v, want 1 completed / 1 quota-rejected", ts)
	}
}

// TestGatewayInvalidationFanout: one InvalidateDataset bumps every shard
// in shard order before returning, versions converge exactly, and
// concurrent broadcasts serialize.
func TestGatewayInvalidationFanout(t *testing.T) {
	insts, fakes := fakeFleet(3)
	var order []string
	for _, f := range fakes {
		f.invalOrder = &order
	}
	g := NewWithInstances(Config{Seed: 4}, insts)
	defer g.Shutdown(context.Background())

	if v := g.InvalidateDataset("cri1"); v != 1 {
		t.Fatalf("first invalidation returned version %d, want 1", v)
	}
	for i, v := range g.ShardVersions("cri1") {
		if v != 1 {
			t.Fatalf("shard %d serves version %d after fan-out returned, want 1", i, v)
		}
	}
	if len(order) != 3 || order[0] != "shard-0" || order[1] != "shard-1" || order[2] != "shard-2" {
		t.Fatalf("broadcast order = %v, want shard-0,1,2", order)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.InvalidateDataset("cri1")
		}()
	}
	wg.Wait()
	if v := g.DatasetVersion("cri1"); v != 9 {
		t.Fatalf("gateway version = %d after 9 invalidations, want 9", v)
	}
	for i, v := range g.ShardVersions("cri1") {
		if v != 9 {
			t.Fatalf("shard %d at version %d, want 9", i, v)
		}
	}
	if st := g.Stats(); st.Invalidations != 9 {
		t.Fatalf("Stats.Invalidations = %d, want 9", st.Invalidations)
	}
}

// TestGatewayAuditTrail: every outcome lands on the audit plane with
// tenant, request id, canonical key, shard, outcome class, FLOP and
// latency; request ids are generated when absent and echoed when given.
func TestGatewayAuditTrail(t *testing.T) {
	insts, _ := fakeFleet(2)
	sink := &recordingSink{}
	clock := newFakeClock()
	g := NewWithInstances(Config{
		Seed:      5,
		AuditSink: sink,
		Clock: func() time.Time {
			clock.advance(time.Millisecond)
			return clock.now()
		},
		Quotas: map[string]TenantQuota{"capped": {QPS: 0.001, Burst: 1}},
	}, insts)

	res, err := g.Do(context.Background(), Request{Tenant: "alice", RequestID: "req-1", Query: gatewayQuery("cri1")})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.RequestID != "req-1" {
		t.Fatalf("explicit request id not echoed: %q", res.RequestID)
	}
	res2, err := g.Do(context.Background(), Request{Tenant: "alice", Query: gatewayQuery("cri1")})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res2.RequestID == "" {
		t.Fatal("no request id generated")
	}
	g.Do(context.Background(), Request{Tenant: "capped", Query: gatewayQuery("cri1")})
	if _, err := g.Do(context.Background(), Request{Tenant: "capped", Query: gatewayQuery("cri1")}); !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("capped tenant not rejected: %v", err)
	}

	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	events := sink.all()
	if len(events) != 4 {
		t.Fatalf("audit saw %d events, want 4", len(events))
	}
	ok := events[0]
	if ok.Tenant != "alice" || ok.RequestID != "req-1" || ok.Outcome != "ok" ||
		ok.Shard < 0 || ok.FLOP != 100 || ok.LatencySec <= 0 || ok.CanonicalKey == "" {
		t.Fatalf("success event malformed: %+v", ok)
	}
	rej := events[3]
	if rej.Outcome != resilience.Quota.String() || rej.Shard != -1 || rej.FLOP != 0 {
		t.Fatalf("quota event malformed: %+v", rej)
	}
	// The gateway tail matches the sink.
	if tail := g.Audit(10); len(tail) != 4 || tail[0].Seq != 1 {
		t.Fatalf("Audit tail = %d events starting at seq %d, want 4 from 1", len(tail), tail[0].Seq)
	}
}

// TestGatewayStatsMergesShards: per-shard snapshots surface alongside the
// merged aggregate whose counters are the shard sums.
func TestGatewayStatsMergesShards(t *testing.T) {
	insts, fakes := fakeFleet(3)
	g := NewWithInstances(Config{Seed: 6}, insts)
	defer g.Shutdown(context.Background())

	for i := 0; i < 9; i++ {
		if _, err := g.Do(context.Background(), Request{Tenant: "t", Query: gatewayQuery(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	st := g.Stats()
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Fatalf("per-shard breakdown has %d entries, want 3", len(st.PerShard))
	}
	var sum uint64
	for i, ps := range st.PerShard {
		if ps.ID != fakes[i].id {
			t.Fatalf("shard %d labeled %q, want %q", i, ps.ID, fakes[i].id)
		}
		sum += ps.Snapshot.Completed
	}
	if sum != 9 || st.Merged.Completed != 9 {
		t.Fatalf("completed: shards sum %d, merged %d, want 9", sum, st.Merged.Completed)
	}
	if st.Routed != 9 {
		t.Fatalf("Routed = %d, want 9", st.Routed)
	}
	if ts := st.Tenants["t"]; ts.Completed != 9 || ts.FLOP != 900 {
		t.Fatalf("tenant stats = %+v, want 9 completed / 900 FLOP", ts)
	}
}

// TestGatewayReadyz: ready while at least one shard admits, not after all
// are saturated.
func TestGatewayReadyz(t *testing.T) {
	insts, fakes := fakeFleet(2)
	g := NewWithInstances(Config{Seed: 8}, insts)
	defer g.Shutdown(context.Background())
	if h := g.Readyz(); !h.OK || h.ReadyShards != 2 {
		t.Fatalf("fresh gateway not ready: %+v", h)
	}
	fakes[0].setOverloaded(true)
	if h := g.Readyz(); !h.OK || h.ReadyShards != 1 {
		t.Fatalf("one ready shard should keep the gateway ready: %+v", h)
	}
	fakes[1].setOverloaded(true)
	if h := g.Readyz(); h.OK {
		t.Fatalf("no ready shards but gateway claims ready: %+v", h)
	}
}
