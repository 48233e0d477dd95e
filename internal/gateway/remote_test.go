package gateway

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// startShard boots a real single-shard HTTP front-end — the exact mux
// cmd/remac-serve runs — and returns its in-process server for
// executions-counter assertions.
func startShard(t *testing.T, cfg serve.Config, mcfg httpapi.ServeHandlerConfig) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(httpapi.NewServeMux(srv, httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), mcfg))
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return srv, hs
}

// remoteQuery is the query the HTTP front-ends build for a workload: what
// a shard runs, and (carrying its algorithm name) what a RemoteInstance can
// transmit.
func remoteQuery(t *testing.T, alg, dataset string, iters int) serve.Query {
	t.Helper()
	b := httpapi.NewQueryBuilder(engine.RecoveryPolicy{})
	q, err := b.Build(httpapi.QueryRequest{Algorithm: alg, Dataset: dataset, Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRemoteDoEndToEnd: a RemoteInstance executes a query on a real shard
// over HTTP and relays the server-computed bitwise hash and summaries.
func TestRemoteDoEndToEnd(t *testing.T) {
	srv, hs := startShard(t, serve.Config{Workers: 2}, httpapi.ServeHandlerConfig{})
	ri := NewRemote(RemoteConfig{BaseURL: hs.URL})
	defer ri.Shutdown(context.Background())

	q := remoteQuery(t, "DFP", "cri1", 3)
	q.IdempotencyKey = "e2e-1"
	res, err := ri.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultHash == 0 {
		t.Fatal("no result hash relayed")
	}
	if len(res.Summaries) == 0 {
		t.Fatal("no value summaries relayed")
	}
	// The wire hash must equal a local execution of the same query.
	local := serve.New(serve.Config{Workers: 2})
	defer local.Shutdown(context.Background())
	ref, err := local.Do(context.Background(), remoteQuery(t, "DFP", "cri1", 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultHash != ref.ResultHash {
		t.Fatalf("wire hash %016x != local hash %016x", res.ResultHash, ref.ResultHash)
	}
	if got := srv.Metrics().Executions; got != 1 {
		t.Fatalf("shard executions = %d, want 1", got)
	}
}

// TestRemoteDroppedResponseReplays: a response lost after the shard
// committed is retried under the same idempotency key; the shard replays
// the original result and the plan executes exactly once.
func TestRemoteDroppedResponseReplays(t *testing.T) {
	srv, hs := startShard(t, serve.Config{Workers: 2}, httpapi.ServeHandlerConfig{})
	nf := NewNetFault(nil, NetFaultConfig{Seed: 1})
	ri := NewRemote(RemoteConfig{
		BaseURL: hs.URL,
		Client:  &http.Client{Transport: nf},
		Budget:  NewRetryBudget(8, 1),
	})
	defer ri.Shutdown(context.Background())

	nf.ForceDropNext(1)
	q := remoteQuery(t, "GD", "cri1", 2)
	q.IdempotencyKey = "drop-1"
	res, err := ri.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Fatal("retry after a dropped response was not served as a replay")
	}
	if got := srv.Metrics().Executions; got != 1 {
		t.Fatalf("dropped-response retry executed %d times, want 1", got)
	}
	ws := ri.WireStats()
	if ws.Replays != 1 || ws.Retries != 1 {
		t.Fatalf("wire stats = %+v, want 1 replay / 1 retry", ws)
	}
	if srv.Metrics().IdemReplays != 1 {
		t.Fatalf("shard IdemReplays = %d, want 1", srv.Metrics().IdemReplays)
	}
}

// TestRemoteRetryBudgetExhaustion: when the shared budget cannot fund
// another retry, Do fails typed — Overloaded class (503) with a
// Retry-After hint and ErrRetryBudgetExhausted at the root — instead of
// hammering the wire.
func TestRemoteRetryBudgetExhaustion(t *testing.T) {
	_, hs := startShard(t, serve.Config{Workers: 2}, httpapi.ServeHandlerConfig{})
	nf := NewNetFault(nil, NetFaultConfig{Seed: 1})
	budget := NewRetryBudget(1, 0)
	ri := NewRemote(RemoteConfig{
		BaseURL: hs.URL,
		Client:  &http.Client{Transport: nf},
		Budget:  budget,
	})
	defer ri.Shutdown(context.Background())

	nf.ForceDropNext(10)
	q := remoteQuery(t, "GD", "cri1", 2)
	q.IdempotencyKey = "budget-1"
	_, err := ri.Do(context.Background(), q)
	if err == nil {
		t.Fatal("query succeeded with every response dropped")
	}
	if !resilience.IsClass(err, resilience.Overloaded) {
		t.Fatalf("budget exhaustion class = %v, want Overloaded", err)
	}
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("error does not wrap ErrRetryBudgetExhausted: %v", err)
	}
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("budget exhaustion carries no Retry-After: %v", err)
	}
	if ri.WireStats().BudgetExhausted != 1 {
		t.Fatalf("BudgetExhausted = %d, want 1", ri.WireStats().BudgetExhausted)
	}
	if bs := budget.Stats(); bs.Taken != 1 || bs.Exhausted != 1 {
		t.Fatalf("budget stats = %+v, want 1 taken / 1 exhausted", bs)
	}
}

// TestRemoteSendsGrantTheUnitTheyTake: every send takes one unit of the
// request's allowance before it starts (so what is left falls strictly from
// send to send) and carries exactly that unit as X-Attempts-Left, beside a
// rising X-Attempt; however many sends the wire forces, the shard executes
// once. When the allowance runs out mid-retry the failure is the same
// Internal-class wire exhaustion as ever, and an allowance that arrives
// empty is refused before anything touches the wire.
func TestRemoteSendsGrantTheUnitTheyTake(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	mux := httpapi.NewServeMux(srv, httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), httpapi.ServeHandlerConfig{})
	type send struct {
		grant, attempt string
		left           int
	}
	var mu sync.Mutex
	var sends []send
	var allow *resilience.Allowance
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" {
			mu.Lock()
			sends = append(sends, send{r.Header.Get(httpapi.AttemptsLeftHeader), r.Header.Get(httpapi.AttemptHeader), allow.Left()})
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	defer hs.Close()
	nf := NewNetFault(nil, NetFaultConfig{Seed: 1})
	ri := NewRemote(RemoteConfig{BaseURL: hs.URL, Client: &http.Client{Transport: nf}})
	defer ri.Shutdown(context.Background())
	do := func(n int, key string) (*serve.QueryResult, error) {
		mu.Lock()
		sends, allow = nil, resilience.NewAllowance(n)
		mu.Unlock()
		q := remoteQuery(t, "GD", "cri1", 2)
		q.IdempotencyKey = key
		res, err := ri.Do(resilience.WithAllowance(context.Background(), allow), q)
		mu.Lock() // the handlers that appended have all returned
		defer mu.Unlock()
		return res, err
	}

	nf.ForceDropNext(2)
	res, err := do(5, "grant-1")
	if err != nil || !res.Replayed {
		t.Fatalf("two dropped responses then a reply: result %+v, err %v", res, err)
	}
	want := []send{{"1", "0", 4}, {"1", "1", 3}, {"1", "2", 2}}
	if len(sends) != len(want) {
		t.Fatalf("saw %d sends %+v, want %d", len(sends), sends, len(want))
	}
	for i, w := range want {
		if sends[i] != w {
			t.Errorf("send %d = %+v, want %+v", i, sends[i], w)
		}
	}
	if got := srv.Metrics().Executions; got != 1 {
		t.Fatalf("three sends executed %d times, want 1", got)
	}

	nf.ForceDropNext(10)
	_, err = do(2, "grant-2")
	if !resilience.IsClass(err, resilience.Internal) || !errors.Is(err, ErrNetDropped) || len(sends) != 2 || allow.Left() != 0 {
		t.Fatalf("allowance of 2 against a dead wire: %d sends, %d left, err %v; want 2 sends and Internal wire exhaustion",
			len(sends), allow.Left(), err)
	}
	_, err = do(0, "grant-3")
	if !resilience.IsClass(err, resilience.Overloaded) || !errors.Is(err, resilience.ErrAllowanceSpent) || len(sends) != 0 {
		t.Fatalf("empty allowance: %d sends, err %v; want none and Overloaded/ErrAllowanceSpent", len(sends), err)
	}
}

// TestRemoteStatusErrorIsAuthoritative: an HTTP error status is an
// answer, not transport noise — it parses back into the shard's typed
// error and is never wire-retried.
func TestRemoteStatusErrorIsAuthoritative(t *testing.T) {
	_, hs := startShard(t, serve.Config{Workers: 2}, httpapi.ServeHandlerConfig{})
	ri := NewRemote(RemoteConfig{BaseURL: hs.URL, Budget: NewRetryBudget(8, 1)})
	defer ri.Shutdown(context.Background())

	// An unknown-dataset build failure on the far side is a Compile-class
	// 400. Force it past wireRequest by faking a plausible dataset locally.
	q := remoteQuery(t, "GD", "cri1", 2)
	q.Dataset = "no-such-dataset"
	q.Algorithm = "GD"
	q.IdempotencyKey = "status-1"
	_, err := ri.Do(context.Background(), q)
	if err == nil {
		t.Fatal("unknown dataset succeeded")
	}
	if !resilience.IsClass(err, resilience.Compile) {
		t.Fatalf("remote compile failure class = %v, want Compile", err)
	}
	if ws := ri.WireStats(); ws.Attempts != 1 || ws.Retries != 0 {
		t.Fatalf("status error was wire-retried: %+v", ws)
	}
}

// TestRemoteWireExhaustionIsInternal: resets past the per-try send cap
// surface as an Internal-class wire failure — the signal failover and
// passive ejection key on.
func TestRemoteWireExhaustionIsInternal(t *testing.T) {
	_, hs := startShard(t, serve.Config{Workers: 2}, httpapi.ServeHandlerConfig{})
	nf := NewNetFault(nil, NetFaultConfig{Seed: 1})
	nf.SetPartition(PartitionData)
	ri := NewRemote(RemoteConfig{
		BaseURL: hs.URL,
		Client:  &http.Client{Transport: nf},
		Budget:  NewRetryBudget(8, 1),
	})
	defer ri.Shutdown(context.Background())

	q := remoteQuery(t, "GD", "cri1", 2)
	q.IdempotencyKey = "wire-1"
	_, err := ri.Do(context.Background(), q)
	if err == nil {
		t.Fatal("partitioned query succeeded")
	}
	if !resilience.IsClass(err, resilience.Internal) {
		t.Fatalf("wire exhaustion class = %v, want Internal", err)
	}
	if !errors.Is(err, ErrNetPartition) {
		t.Fatalf("root cause lost: %v", err)
	}
	// The probe path still works under an asymmetric data partition.
	if hz := ri.Healthz(); !hz.OK {
		t.Fatalf("probe path severed by PartitionData: %+v", hz)
	}
	// Full partition severs probes too, and version reads fail to -1.
	nf.SetPartition(PartitionAll)
	if hz := ri.Healthz(); hz.OK {
		t.Fatal("probe succeeded under PartitionAll")
	}
	if v := ri.DatasetVersion("cri1"); v != -1 {
		t.Fatalf("partitioned DatasetVersion = %d, want -1", v)
	}
	nf.SetPartition(PartitionNone)
	if hz := ri.Healthz(); !hz.OK {
		t.Fatalf("healed probe still failing: %+v", hz)
	}
}

// TestRemoteDeadlineCarving: a query deadline shorter than the attempt
// timeout bounds the wire attempt; expiry surfaces as Canceled class.
func TestRemoteDeadlineCarving(t *testing.T) {
	_, hs := startShard(t, serve.Config{Workers: 1}, httpapi.ServeHandlerConfig{})
	nf := NewNetFault(nil, NetFaultConfig{Seed: 1, LatencyRate: 1, Latency: 5 * time.Second})
	ri := NewRemote(RemoteConfig{
		BaseURL:        hs.URL,
		Client:         &http.Client{Transport: nf},
		AttemptTimeout: 10 * time.Second,
	})
	defer ri.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	q := remoteQuery(t, "GD", "cri1", 2)
	q.IdempotencyKey = "deadline-1"
	start := time.Now()
	_, err := ri.Do(ctx, q)
	if err == nil {
		t.Fatal("query succeeded past its deadline")
	}
	if !resilience.IsClass(err, resilience.Canceled) {
		t.Fatalf("deadline expiry class = %v, want Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline was not carved into the attempt: took %v", elapsed)
	}
}

// TestRemoteNotTransmittable: queries with no wire representation fail
// typed and local — nothing touches the network.
func TestRemoteNotTransmittable(t *testing.T) {
	ri := NewRemote(RemoteConfig{BaseURL: "http://127.0.0.1:0"})
	defer ri.Shutdown(context.Background())
	q := serve.NewQuery("x = read(A)\nwrite(x)", nil)
	_, err := ri.Do(context.Background(), q)
	if err == nil {
		t.Fatal("dataset-less query transmitted")
	}
	if !resilience.IsClass(err, resilience.Compile) || !errors.Is(err, ErrNotTransmittable) {
		t.Fatalf("want typed Compile/ErrNotTransmittable, got %v", err)
	}
	if ri.WireStats().Attempts != 0 {
		t.Fatal("untransmittable query reached the wire")
	}
}

// TestRemoteInvalidationCatchUp: invalidations and version reads travel
// the wire, so the gateway's acknowledged broadcast works unchanged.
func TestRemoteInvalidationCatchUp(t *testing.T) {
	srv, hs := startShard(t, serve.Config{Workers: 1}, httpapi.ServeHandlerConfig{})
	ri := NewRemote(RemoteConfig{BaseURL: hs.URL})
	defer ri.Shutdown(context.Background())

	if v := ri.DatasetVersion("cri1"); v != 0 {
		t.Fatalf("fresh version = %d, want 0", v)
	}
	ri.InvalidateDataset("cri1")
	if v := ri.DatasetVersion("cri1"); v != 1 {
		t.Fatalf("post-invalidate version = %d, want 1", v)
	}
	if v := srv.DatasetVersion("cri1"); v != 1 {
		t.Fatalf("shard-side version = %d, want 1", v)
	}
}

// TestNewMixedFleet: New puts in-process and remote shards behind one ring
// — locals first — lifts the shard-level deadline into the gateway's once
// for both kinds, and its default Respawn rebuilds either kind in place.
// With remotes, zero -shards means none (without, it means two).
func TestNewMixedFleet(t *testing.T) {
	_, hs := startShard(t, serve.Config{Workers: 1, ShardID: "far"}, httpapi.ServeHandlerConfig{})
	remote := RemoteConfig{BaseURL: hs.URL}
	g := New(Config{Shards: 1, EjectAfter: 1, RejoinProbes: 1, PassiveFailures: -1,
		Serve: serve.Config{Workers: 1, DefaultTimeout: 7 * time.Second}}, remote)
	defer g.Shutdown(context.Background())
	if g.Shards() != 2 || g.ids[0] != "shard-0" || g.ids[1] != "far" {
		t.Fatalf("fleet ids %v, want [shard-0 far]", g.ids)
	}
	if _, ok := g.instance(0).(*serve.Server); !ok {
		t.Fatalf("shard 0 is %T, want an in-process server", g.instance(0))
	}
	if _, ok := g.instance(1).(*RemoteInstance); !ok {
		t.Fatalf("shard 1 is %T, want a remote instance", g.instance(1))
	}
	if g.cfg.DefaultTimeout != 7*time.Second || g.cfg.Serve.DefaultTimeout != 0 {
		t.Fatalf("deadline not lifted: gateway %v, shard %v", g.cfg.DefaultTimeout, g.cfg.Serve.DefaultTimeout)
	}
	for i := range g.ids {
		fresh := g.cfg.Respawn(i, g.ids[i])
		if reflect.TypeOf(fresh) != reflect.TypeOf(g.instance(i)) || fresh.Metrics().Shard != g.ids[i] {
			t.Fatalf("respawn of shard %d gave %T labelled %q", i, fresh, fresh.Metrics().Shard)
		}
		fresh.Shutdown(context.Background())
	}
	for _, ds := range []string{"cri1", "cri2", "red1", "red2"} { // both shards home something
		if _, err := g.Do(context.Background(), Request{Tenant: "t", Query: remoteQuery(t, "GD", ds, 1)}); err != nil {
			t.Fatalf("query on %s: %v", ds, err)
		}
	}

	only := New(Config{}, remote)
	defer only.Shutdown(context.Background())
	if only.Shards() != 1 {
		t.Fatalf("-shards 0 with one remote built %d shards, want 1", only.Shards())
	}
}

// TestGatewayRetryAfterAggregation: when every spill target is
// overloaded, the final 503 carries the soonest Retry-After any shard
// advertised — not whichever shard was tried last.
func TestGatewayRetryAfterAggregation(t *testing.T) {
	insts, fakes := fakeFleet(3)
	for i, ra := range []time.Duration{9 * time.Second, 2 * time.Second, 6 * time.Second} {
		fakes[i].mu.Lock()
		fakes[i].fail = &resilience.QueryError{
			Class: resilience.Overloaded, Stage: "admission",
			Err: serve.ErrOverloaded, RetryAfter: ra,
		}
		fakes[i].mu.Unlock()
	}
	gw := NewWithInstances(Config{ProbeInterval: -1}, insts)
	defer gw.Shutdown(context.Background())

	_, err := gw.Do(context.Background(), Request{Tenant: "t", Query: gatewayQuery("cri1")})
	if err == nil {
		t.Fatal("fully-overloaded fleet served a query")
	}
	if !resilience.IsClass(err, resilience.Overloaded) {
		t.Fatalf("class = %v, want Overloaded", err)
	}
	if got := retryAfterOf(err); got != 2*time.Second {
		t.Fatalf("aggregated Retry-After = %v, want the 2s minimum", got)
	}
}

// TestGatewayQuotaIsTerminal: a 429 from a shard is tenant-level
// backpressure — the gateway must not spill it across the fleet.
func TestGatewayQuotaIsTerminal(t *testing.T) {
	insts, fakes := fakeFleet(3)
	for _, f := range fakes {
		f.mu.Lock()
		f.fail = &resilience.QueryError{
			Class: resilience.Quota, Stage: "admission",
			Err: errors.New("tenant over quota"), RetryAfter: 4 * time.Second,
		}
		f.mu.Unlock()
	}
	gw := NewWithInstances(Config{ProbeInterval: -1}, insts)
	defer gw.Shutdown(context.Background())

	_, err := gw.Do(context.Background(), Request{Tenant: "t", Query: gatewayQuery("cri1")})
	if err == nil {
		t.Fatal("quota-rejected query served")
	}
	if !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("class = %v, want Quota", err)
	}
	total := 0
	for _, f := range fakes {
		total += f.attemptCount()
	}
	if total != 1 {
		t.Fatalf("quota rejection hit %d shards, want 1 (no spill-over)", total)
	}
	if got := retryAfterOf(err); got != 4*time.Second {
		t.Fatalf("quota Retry-After = %v, want the shard's 4s", got)
	}
}

// TestGatewayIdempotencyKeyStamping: the gateway stamps its request id as
// the key before the first attempt, and a failover re-sends the same key.
func TestGatewayIdempotencyKeyStamping(t *testing.T) {
	insts, fakes := fakeFleet(2)
	keys := make(chan string, 4)
	// fakeShard records nothing about keys; intercept with a wrapper.
	wrapped := make([]Instance, len(insts))
	for i, inst := range insts {
		inst := inst
		wrapped[i] = &instanceFunc{
			inner: inst,
			do: func(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
				keys <- q.IdempotencyKey
				return inst.Do(ctx, q)
			},
		}
	}
	fakes[0].setDown(true)
	fakes[1].setDown(true)
	gw := NewWithInstances(Config{ProbeInterval: -1}, wrapped)
	defer gw.Shutdown(context.Background())

	_, err := gw.Do(context.Background(), Request{Tenant: "t", RequestID: "rid-key", Query: gatewayQuery("cri1")})
	if err == nil {
		t.Fatal("down fleet served")
	}
	close(keys)
	n := 0
	for k := range keys {
		n++
		if k != "rid-key" {
			t.Fatalf("attempt %d carried key %q, want the request id", n, k)
		}
	}
	if n != 2 {
		t.Fatalf("observed %d attempts, want 2 (home + failover)", n)
	}
}

// instanceFunc wraps an Instance with an interceptable Do.
type instanceFunc struct {
	inner Instance
	do    func(ctx context.Context, q serve.Query) (*serve.QueryResult, error)
}

func (i *instanceFunc) Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
	return i.do(ctx, q)
}
func (i *instanceFunc) InvalidateDataset(id string)        { i.inner.InvalidateDataset(id) }
func (i *instanceFunc) DatasetVersion(id string) int64     { return i.inner.DatasetVersion(id) }
func (i *instanceFunc) Metrics() serve.Snapshot            { return i.inner.Metrics() }
func (i *instanceFunc) Healthz() serve.Health              { return i.inner.Healthz() }
func (i *instanceFunc) Readyz() serve.Health               { return i.inner.Readyz() }
func (i *instanceFunc) Shutdown(ctx context.Context) error { return i.inner.Shutdown(ctx) }

// TestKillablePartition: KillPartition fails queries with the wire
// taxonomy, reports partitioned probes and -1 versions, and heals with
// shard state intact on Revive.
func TestKillablePartition(t *testing.T) {
	inner := newFakeShard("shard-0")
	k := NewKillable(inner)
	defer k.Shutdown(context.Background())

	k.InvalidateDataset("cri1")
	k.Kill(KillPartition)
	_, err := k.Do(context.Background(), gatewayQuery("cri1"))
	if err == nil {
		t.Fatal("partitioned killable served")
	}
	if !resilience.IsClass(err, resilience.Internal) || !errors.Is(err, ErrNetPartition) {
		t.Fatalf("want Internal/ErrNetPartition, got %v", err)
	}
	if hz := k.Healthz(); hz.OK || hz.Status != "partitioned" {
		t.Fatalf("partitioned Healthz = %+v", hz)
	}
	if hz := k.Readyz(); hz.OK || hz.Status != "partitioned" {
		t.Fatalf("partitioned Readyz = %+v", hz)
	}
	if v := k.DatasetVersion("cri1"); v != -1 {
		t.Fatalf("partitioned DatasetVersion = %d, want -1", v)
	}
	k.Revive()
	if v := k.DatasetVersion("cri1"); v != 1 {
		t.Fatalf("healed DatasetVersion = %d, want the pre-partition 1", v)
	}
	if _, err := k.Do(context.Background(), gatewayQuery("cri1")); err != nil {
		t.Fatalf("healed killable: %v", err)
	}
}
