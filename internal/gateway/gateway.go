// Package gateway is the sharded multi-node serving tier: a front-end
// that routes queries across several serve.Server instances with
// dataset-affine consistent-hash placement (so plan/intermediate/MQO
// cache locality survives scale-out), layers per-tenant admission quotas
// above each shard's circuit breaker, fans dataset invalidations out to
// every shard with an acknowledged ordered broadcast, and records every
// query on an audit plane (who ran what, where, at what cost).
//
// Shards are in-process serve.Server instances behind the Instance
// interface, so tests and benches stay hermetic while cmd/remac-gateway
// exposes the same tier over HTTP. Routing is deterministic: the ring's
// seeded placement plus ordered spill-over means any two gateways with
// the same configuration route a key identically.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"remac/internal/fault"
	"remac/internal/httpapi"
	"remac/internal/lang"
	"remac/internal/lru"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// Instance is one serving shard as the gateway sees it. *serve.Server
// implements it; tests substitute fakes.
type Instance interface {
	Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error)
	InvalidateDataset(id string)
	DatasetVersion(id string) int64
	Metrics() serve.Snapshot
	Healthz() serve.Health
	Readyz() serve.Health
	Shutdown(ctx context.Context) error
}

var _ Instance = (*serve.Server)(nil)

// Config parameterizes a Gateway. The zero value of every optional field
// picks a sensible default.
type Config struct {
	// Shards is the number of in-process serve.Server instances to run
	// (ignored by NewWithInstances). Default 2.
	Shards int
	// Serve configures each spawned shard; ShardID is overwritten per
	// shard ("shard-0", "shard-1", …).
	Serve serve.Config
	// VirtualNodes per shard on the consistent-hash ring. Default 64.
	VirtualNodes int
	// Seed perturbs ring placement (any fixed value is deterministic).
	Seed uint64
	// SpillOver bounds how many alternate shards a query may try after its
	// home shard rejects it with an Overloaded-class error (breaker open
	// or queue saturated). 0 disables spill-over; default 1. The ring's
	// preference order makes the alternates deterministic.
	SpillOver int
	// RouteRandom replaces affinity routing with seeded pseudo-random
	// shard choice. It exists for the shard bench's control arm — random
	// routing destroys cache locality by construction — and for A/B
	// measurements; production configurations want affinity.
	RouteRandom bool
	// Failover bounds how many alternate shards a query may try after a
	// shard fails it with an Internal-class error (crash, panic, abandoned
	// producer). Distinct from SpillOver: spill-over reacts to overload
	// (the shard is alive but saturated), failover to failure (the shard is
	// broken). Negative disables failover; default 1.
	Failover int

	// ProbeInterval is the active health monitor's period. Zero disables
	// the background prober — ProbeNow still drives rounds manually (tests,
	// benches, operators).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one shard probe; a probe that hangs past it is a
	// liveness failure (a wedged shard must not stall the monitor). Default
	// 1s.
	ProbeTimeout time.Duration
	// EjectAfter is how many consecutive failed probes eject a shard
	// (healthy → suspect on the first, ejected on the EjectAfter-th).
	// Negative disables active detection; default 3.
	EjectAfter int
	// PassiveFailures is how many consecutive Internal-class query
	// outcomes on one shard trip passive ejection (a breaker window one
	// layer above the shard's own). Negative disables passive detection;
	// default 3.
	PassiveFailures int
	// RejoinProbes is how many consecutive passed probes — each with
	// dataset versions fully caught up to the gateway's broadcast versions
	// — a rejoining shard needs before readmission. Default 2.
	RejoinProbes int
	// ReadyQuorum is the minimum number of live (non-ejected, probe-OK)
	// shards for the gateway itself to report healthy/ready. Default 1.
	ReadyQuorum int
	// Respawn, when non-nil, is the supervisor's factory for replacing a
	// dead ejected instance. New installs a default that respawns an
	// in-process serve.Server with the shard's original configuration;
	// NewWithInstances leaves it nil unless the caller provides one.
	Respawn func(shard int, id string) Instance

	// DefaultTimeout is the per-query deadline bound once at the gateway:
	// every spill-over and failover attempt shares the remaining budget
	// (no fresh timeout per attempt). Query.Timeout overrides it per
	// query. Zero means no gateway deadline.
	DefaultTimeout time.Duration

	// Quotas maps tenant name to its admission quota; tenants not listed
	// get DefaultQuota. A zero quota is unlimited.
	Quotas map[string]TenantQuota
	// DefaultQuota applies to tenants without an explicit entry.
	DefaultQuota TenantQuota

	// AuditDepth bounds the audit queue (default 1024); a full queue drops
	// events (counted) rather than blocking the serving path. Negative
	// disables the audit plane entirely.
	AuditDepth int
	// AuditTail bounds the in-memory event tail served by Audit (default
	// 256).
	AuditTail int
	// AuditSink, when non-nil, additionally receives every event from the
	// single writer goroutine (a JSONL file, a test recorder, …).
	AuditSink Sink

	// Clock is injectable for tests (quota refill and audit timestamps).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.VirtualNodes == 0 {
		c.VirtualNodes = 64
	}
	if c.SpillOver == 0 {
		c.SpillOver = 1
	}
	if c.SpillOver < 0 {
		c.SpillOver = 0
	}
	if c.Failover == 0 {
		c.Failover = 1
	}
	if c.Failover < 0 {
		c.Failover = 0
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectAfter == 0 {
		c.EjectAfter = 3
	}
	if c.PassiveFailures == 0 {
		c.PassiveFailures = 3
	}
	if c.RejoinProbes <= 0 {
		c.RejoinProbes = 2
	}
	if c.ReadyQuorum <= 0 {
		c.ReadyQuorum = 1
	}
	if c.AuditDepth == 0 {
		c.AuditDepth = 1024
	}
	if c.AuditTail <= 0 {
		c.AuditTail = 256
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Request is one query submission through the gateway.
type Request struct {
	// Tenant identifies the submitting tenant for quotas, audit and
	// per-tenant stats; empty maps to "anonymous".
	Tenant string
	// RequestID correlates this request across the gateway, the shard and
	// the audit plane; empty generates one. It is echoed on the Result and
	// inside error bodies by the HTTP front-ends.
	RequestID string
	// Query is the underlying serving query. Query.Dataset is also the
	// routing key (with the gateway's dataset version appended).
	Query serve.Query
}

// Result is a gateway-served query result: the shard outcome plus routing
// metadata.
type Result struct {
	*serve.QueryResult
	// Shard is the index of the instance that served the query; ShardID
	// its metrics label.
	Shard   int
	ShardID string
	// Spilled marks a query served off its home shard because the home
	// rejected it as overloaded.
	Spilled bool
	// Failover marks a query re-routed off a shard that failed it with an
	// Internal-class error (as opposed to Spilled's overload).
	Failover bool
	// RequestID is the propagated (or generated) request id.
	RequestID string
}

// Gateway routes queries across shards. Create with New (spawns
// in-process serve.Servers) or NewWithInstances (caller-provided shards),
// submit with Do, stop with Shutdown.
type Gateway struct {
	cfg    Config
	ids    []string
	ring   *ring
	quotas *quotas
	audit  *auditor

	// instMu guards the shard slice: the supervisor swaps a respawned
	// instance in place while traffic flows.
	instMu sync.RWMutex
	shards []Instance

	life *lifecycle

	routeSeq atomic.Uint64 // RouteRandom stream position

	invMu    sync.Mutex // serializes invalidation broadcasts
	verMu    sync.Mutex
	versions map[string]int64

	// stat accumulates the routing, invalidation and lifecycle counters of
	// Stats in place (count); Stats() copies it and fills in the rest.
	statMu sync.Mutex
	stat   Stats

	tenantMu sync.Mutex
	tenants  *lru.Cache[string, *tenantStats]
}

// New builds a gateway running cfg.Shards in-process serve.Server shards.
// The per-query deadline moves up a layer: the shard's DefaultTimeout is
// lifted into the gateway's, so spill-over and failover attempts share one
// budget instead of each attempt getting a fresh shard-level timeout.
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = cfg.Serve.DefaultTimeout
	}
	cfg.Serve.DefaultTimeout = 0
	spawn := func(id string) Instance {
		scfg := cfg.Serve
		scfg.ShardID = id
		return serve.New(scfg)
	}
	if cfg.Respawn == nil {
		cfg.Respawn = func(_ int, id string) Instance { return spawn(id) }
	}
	shards := make([]Instance, cfg.Shards)
	ids := make([]string, cfg.Shards)
	for i := range shards {
		ids[i] = fmt.Sprintf("shard-%d", i)
		shards[i] = spawn(ids[i])
	}
	return newGateway(cfg, shards, ids)
}

// NewWithInstances builds a gateway over caller-provided shards (tests,
// or a future remote-instance client). cfg.Shards is ignored.
func NewWithInstances(cfg Config, instances []Instance) *Gateway {
	if len(instances) == 0 {
		panic("gateway: NewWithInstances requires at least one instance")
	}
	cfg.Shards = len(instances)
	cfg = cfg.withDefaults()
	ids := make([]string, len(instances))
	for i := range instances {
		if id := instances[i].Metrics().Shard; id != "" {
			ids[i] = id
		} else {
			ids[i] = fmt.Sprintf("shard-%d", i)
		}
	}
	return newGateway(cfg, instances, ids)
}

func newGateway(cfg Config, shards []Instance, ids []string) *Gateway {
	g := &Gateway{
		cfg:      cfg,
		shards:   shards,
		ids:      ids,
		ring:     newRing(len(shards), cfg.VirtualNodes, cfg.Seed),
		quotas:   newQuotas(cfg.Quotas, cfg.DefaultQuota, cfg.Clock),
		versions: map[string]int64{},
		tenants:  lru.New[string, *tenantStats](tenantCap),
	}
	if cfg.AuditDepth > 0 {
		g.audit = newAuditor(cfg.AuditDepth, cfg.AuditTail, cfg.AuditSink)
	}
	g.life = newLifecycle(g)
	return g
}

// count applies one counter update under the stats lock.
func (g *Gateway) count(update func(st *Stats)) {
	g.statMu.Lock()
	update(&g.stat)
	g.statMu.Unlock()
}

// Shards returns the number of shards behind the gateway.
func (g *Gateway) Shards() int { return len(g.ids) }

// instance reads shard i's current instance (the supervisor may have
// swapped it since the last read).
func (g *Gateway) instance(i int) Instance {
	g.instMu.RLock()
	defer g.instMu.RUnlock()
	return g.shards[i]
}

// swapInstance installs a fresh instance for shard i and returns the old
// one (for the supervisor to shut down).
func (g *Gateway) swapInstance(i int, fresh Instance) Instance {
	g.instMu.Lock()
	defer g.instMu.Unlock()
	old := g.shards[i]
	g.shards[i] = fresh
	return old
}

// ProbeNow runs one synchronous probe round across every shard, applying
// the lifecycle state machine: the manual counterpart of the background
// prober (ProbeInterval > 0), used by tests, benches and operators.
func (g *Gateway) ProbeNow() { g.life.probeRound() }

// ShardState returns shard i's current lifecycle state.
func (g *Gateway) ShardState(i int) ShardState { return g.life.snapshotStates()[i] }

// LifecycleStates returns every shard's lifecycle state, in shard order.
func (g *Gateway) LifecycleStates() []ShardState { return g.life.snapshotStates() }

// routeKey is the ring key for a query: dataset@version, so every query
// touching one dataset version shares a home shard (and with it the plan
// cache, intermediate cache and MQO batches warmed by its siblings).
// After an invalidation bumps the version the key changes — placement
// deliberately re-rolls, which is free because the bump already made every
// cached value unreachable. Dataset-less queries route by canonical
// program text so identical scripts still colocate.
func (g *Gateway) routeKey(q serve.Query) string {
	if q.Dataset == "" {
		return "script:" + canonicalKey(q.Script)
	}
	return fmt.Sprintf("%s@%d", q.Dataset, g.DatasetVersion(q.Dataset))
}

// canonicalKey fingerprints a script's canonical token stream (falling
// back to the raw text when it does not parse — the shard will return the
// compile error; the audit trail still wants a stable key).
func canonicalKey(script string) string {
	text, err := lang.Canonical(script)
	if err != nil {
		text = script
	}
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

// order returns the shard preference order for a query under the
// configured routing policy.
func (g *Gateway) order(q serve.Query) []int {
	if !g.cfg.RouteRandom {
		return g.ring.order(g.routeKey(q))
	}
	// Seeded pseudo-random (SplitMix64 over a stream counter): uniform,
	// deterministic for a given seed and call sequence, and cache-blind.
	x := fault.Mix64(g.cfg.Seed + 0x9e3779b97f4a7c15*g.routeSeq.Add(1))
	home := int(x % uint64(len(g.ids)))
	out := make([]int, len(g.ids))
	for i := range out {
		out[i] = (home + i) % len(g.ids)
	}
	return out
}

// routable filters a preference order down to shards that take traffic
// (healthy or suspect). Ejected and rejoining shards are skipped in place:
// surviving shards keep their position, so only the dead shard's keys move
// — each to the next shard in its own preference order, deterministically.
func (g *Gateway) routable(order []int) []int {
	states := g.life.snapshotStates()
	out := make([]int, 0, len(order))
	for _, s := range order {
		if states[s].takesTraffic() {
			out = append(out, s)
		}
	}
	return out
}

// routableOrder is the preference order Do actually walks for a query.
func (g *Gateway) routableOrder(q serve.Query) []int {
	return g.routable(g.order(q))
}

// ErrFailoverExhausted is the root cause inside the Internal-class error
// returned when every failover attempt also failed.
var ErrFailoverExhausted = errors.New("gateway: failover budget exhausted")

// ErrDeadlineExhausted is the root cause inside the Canceled-class (504)
// error returned when the query's deadline ran out across attempts.
var ErrDeadlineExhausted = errors.New("gateway: per-query deadline exhausted")

// ErrNoShards is the root cause inside the Overloaded-class (503) error
// returned when ejections have left no routable shard for a query.
var ErrNoShards = errors.New("gateway: no routable shards")

// Do routes one request: tenant quota admission, then the home shard from
// the ring's routable preference order, moving to the next shard when one
// rejects or fails — spill-over (bounded by cfg.SpillOver) on
// Overloaded-class rejections, failover (bounded by cfg.Failover) on
// Internal-class failures. The per-query deadline is bound once here:
// every attempt shares the remaining budget, and exhausting it yields a
// typed Canceled-class (504) error. Every shard outcome feeds the passive
// failure detector, and every request outcome — success, quota rejection,
// overload, failover exhaustion — is recorded on the audit plane with the
// tenant, canonical query key, shard, outcome class, charged FLOP and
// latency.
func (g *Gateway) Do(ctx context.Context, req Request) (*Result, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	rid := req.RequestID
	if rid == "" {
		rid = NewRequestID()
	}
	start := g.cfg.Clock()
	ev := Event{
		Tenant:       tenant,
		RequestID:    rid,
		CanonicalKey: canonicalKey(req.Query.Script),
		Dataset:      req.Query.Dataset,
		Shard:        -1,
	}

	// Bind the deadline once, before the first attempt: spill-over and
	// failover attempts share the remaining budget rather than each
	// getting a fresh shard-level timeout, so a query can never exceed its
	// deadline by straggling across the fleet. The shard-level timeout is
	// cleared so the shard cannot re-arm a fresh one per attempt.
	q := req.Query
	timeout := q.Timeout
	if timeout == 0 {
		timeout = g.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	q.Timeout = 0

	// Stamp the idempotency key before the first attempt so every retry,
	// spill-over and failover of this query carries the same key: a shard
	// that already executed it replays the committed result instead of
	// executing twice. Callers may pin their own key (client-side retries
	// across gateway connections); otherwise the request id — unique per
	// gateway attempt sequence — is exactly the right scope.
	if q.IdempotencyKey == "" {
		q.IdempotencyKey = rid
	}

	release, err := g.quotas.admit(tenant)
	if err != nil {
		g.count(func(st *Stats) { st.QuotaRejected++ })
		g.tenantFinish(tenant, 0, 0, err)
		g.auditFinish(ev, start, err)
		return nil, err
	}
	defer release()

	order := g.routableOrder(q)
	if len(order) == 0 {
		err := &resilience.QueryError{Class: resilience.Overloaded, Stage: "route",
			Err: ErrNoShards, RetryAfter: time.Second}
		g.count(func(st *Stats) { st.OverloadRejected++ })
		g.tenantFinish(tenant, 0, 0, err)
		g.auditFinish(ev, start, err)
		return nil, err
	}
	var res *serve.QueryResult
	var lastErr error
	shard := -1
	spills, failovers := 0, 0
	spilled, failedOver := false, false
	var retryAfterHint time.Duration
	for i := 0; i < len(order); i++ {
		shard = order[i]
		res, lastErr = g.instance(shard).Do(ctx, q)
		g.life.observe(shard, lastErr, rid)
		if lastErr == nil {
			break
		}
		if ctx.Err() != nil || i+1 >= len(order) {
			break
		}
		if resilience.IsClass(lastErr, resilience.Quota) {
			// 429 from a shard is tenant-level backpressure, not shard
			// saturation: every replica enforces the same quota, so
			// spilling over would just burn the fleet re-rejecting the
			// same tenant. Terminal — the Retry-After travels back as-is.
			break
		}
		if resilience.IsClass(lastErr, resilience.Overloaded) && spills < g.cfg.SpillOver {
			// Saturated or breaker-open shard (503): bounded spill-over to
			// the next shard in preference order. Remember the soonest
			// Retry-After any shard advertised — if every replica turns us
			// away, the final rejection tells the client when the
			// least-loaded one expects capacity back.
			if ra := retryAfterOf(lastErr); ra > 0 && (retryAfterHint == 0 || ra < retryAfterHint) {
				retryAfterHint = ra
			}
			spills++
			spilled = true
			continue
		}
		if resilience.IsClass(lastErr, resilience.Internal) && failovers < g.cfg.Failover {
			// Broken shard (crash, panic, abandoned producer, wire-retry
			// exhaustion on a remote shard): bounded failover to the next
			// shard in preference order.
			failovers++
			failedOver = true
			continue
		}
		break
	}
	ev.Shard = shard
	ev.Spilled = spilled
	ev.Failover = failedOver
	latency := g.cfg.Clock().Sub(start).Seconds()
	if lastErr != nil {
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			g.count(func(st *Stats) { st.DeadlineExceeded++ })
			lastErr = &resilience.QueryError{Class: resilience.Canceled, Stage: "deadline",
				Err: fmt.Errorf("%w: %w", ErrDeadlineExhausted, lastErr)}
		case resilience.IsClass(lastErr, resilience.Internal) && failedOver:
			g.count(func(st *Stats) { st.FailoverExhausted++ })
			lastErr = &resilience.QueryError{Class: resilience.Internal, Stage: "failover",
				Err: fmt.Errorf("%w after %d attempt(s): %w", ErrFailoverExhausted, failovers+1, lastErr)}
		case resilience.IsClass(lastErr, resilience.Overloaded):
			g.count(func(st *Stats) { st.OverloadRejected++ })
			// The last-tried shard's hint competes for the minimum too.
			if ra := retryAfterOf(lastErr); ra > 0 && (retryAfterHint == 0 || ra < retryAfterHint) {
				retryAfterHint = ra
			}
			if spilled && retryAfterHint > 0 && retryAfterOf(lastErr) != retryAfterHint {
				// The fleet-wide rejection carries the soonest Retry-After
				// seen while spilling, not whichever shard happened to be
				// tried last.
				lastErr = &resilience.QueryError{Class: resilience.Overloaded, Stage: "route",
					Err:        fmt.Errorf("all %d spill target(s) overloaded: %w", spills+1, lastErr),
					RetryAfter: retryAfterHint}
			}
		}
		g.tenantFinish(tenant, latency, 0, lastErr)
		g.auditFinish(ev, start, lastErr)
		return nil, lastErr
	}
	g.count(func(st *Stats) {
		st.Routed++
		if spilled {
			st.Spilled++
		}
		if failedOver {
			st.FailedOver++
		}
	})
	ev.FLOP = res.FLOP
	g.tenantFinish(tenant, latency, res.FLOP, nil)
	g.auditFinish(ev, start, nil)
	return &Result{
		QueryResult: res,
		Shard:       shard,
		ShardID:     g.ids[shard],
		Spilled:     spilled,
		Failover:    failedOver,
		RequestID:   rid,
	}, nil
}

// auditFinish stamps the outcome and latency and submits the event.
func (g *Gateway) auditFinish(ev Event, start time.Time, err error) {
	if g.audit == nil {
		return
	}
	now := g.cfg.Clock()
	ev.LatencySec = now.Sub(start).Seconds()
	ev.Outcome = outcomeClass(err)
	g.audit.submit(ev, now)
}

// outcomeClass renders an error as its audit outcome string.
func outcomeClass(err error) string {
	if err == nil {
		return "ok"
	}
	if class, ok := resilience.ClassOf(err); ok {
		return class.String()
	}
	switch {
	case errors.Is(err, serve.ErrClosed):
		return "closed"
	case errors.Is(err, serve.ErrOverloaded):
		return resilience.Overloaded.String()
	default:
		return "error"
	}
}

// InvalidateDataset bumps the dataset version and broadcasts the bump to
// every shard in index order, synchronously: when it returns, every live
// shard's DatasetVersion(id) has reached the gateway's version, so no
// live shard can serve an intermediate cached under the old version to
// any query admitted after the return (each shard binds the version at
// query start and old-version cache keys are unreachable and eagerly
// dropped). Broadcasts are serialized, so concurrent invalidations apply
// in one global order and shard versions never diverge from the
// gateway's. A dead shard that cannot acknowledge is left behind (the
// catch-up is bounded, counted in stats) — it is not serving, and the
// rejoin gate replays the catch-up before it ever takes traffic again.
func (g *Gateway) InvalidateDataset(id string) int64 {
	g.invMu.Lock()
	defer g.invMu.Unlock()
	g.verMu.Lock()
	g.versions[id]++
	v := g.versions[id]
	g.verMu.Unlock()
	for i := range g.ids {
		if !g.bumpToVersion(g.instance(i), id, v) {
			g.count(func(st *Stats) { st.InvalidationsLagged++ })
		}
	}
	g.count(func(st *Stats) { st.Invalidations++ })
	return v
}

// bumpToVersion drives one shard's dataset version up to v with an
// acknowledged catch-up: a shard bumped out-of-band may already be ahead;
// behind ones are bumped until they reach v. Each round must make
// progress — a shard that stops acknowledging (dead, wedged) ends the
// loop instead of spinning the broadcast forever. Reports whether the
// shard reached v.
func (g *Gateway) bumpToVersion(inst Instance, id string, v int64) bool {
	cur := inst.DatasetVersion(id)
	for cur < v {
		inst.InvalidateDataset(id)
		next := inst.DatasetVersion(id)
		if next <= cur {
			return false
		}
		cur = next
	}
	return true
}

// catchUp replays every dataset's broadcast version onto shard i and, if
// the shard is fully caught up, runs admit while still holding the
// broadcast lock — so no invalidation can slip between the version check
// and the readmission decision. Returns whether the shard was caught up.
func (g *Gateway) catchUp(i int, admit func() bool) bool {
	g.invMu.Lock()
	defer g.invMu.Unlock()
	g.verMu.Lock()
	versions := make(map[string]int64, len(g.versions))
	for id, v := range g.versions {
		versions[id] = v
	}
	g.verMu.Unlock()
	inst := g.instance(i)
	for id, v := range versions {
		if !g.bumpToVersion(inst, id, v) {
			return false
		}
	}
	if admit != nil {
		admit()
	}
	return true
}

// DatasetVersion returns the gateway's current version for a dataset id
// (0 until the first InvalidateDataset).
func (g *Gateway) DatasetVersion(id string) int64 {
	g.verMu.Lock()
	defer g.verMu.Unlock()
	return g.versions[id]
}

// ShardVersions reports each shard's view of a dataset version, in shard
// order — after an InvalidateDataset returns, every shard that was live
// for the broadcast equals the gateway's.
func (g *Gateway) ShardVersions(id string) []int64 {
	out := make([]int64, len(g.ids))
	for i := range out {
		out[i] = g.instance(i).DatasetVersion(id)
	}
	return out
}

// Audit returns up to n most recent audit events, oldest first (nil when
// the audit plane is disabled).
func (g *Gateway) Audit(n int) []Event {
	if g.audit == nil {
		return nil
	}
	return g.audit.Tail(n)
}

// Health is the gateway's aggregate probe payload.
type Health struct {
	OK bool `json:"ok"`
	// ReadyShards counts shards currently ready for traffic (Readyz) or
	// live (Healthz).
	ReadyShards int `json:"ready_shards"`
	// EjectedShards counts shards currently out of the routing order.
	EjectedShards int `json:"ejected_shards,omitempty"`
	// Quorum is the configured minimum of live shards for the gateway
	// itself to report OK.
	Quorum int `json:"quorum"`
	// Lifecycle holds each shard's lifecycle state, in shard order.
	Lifecycle []string `json:"lifecycle"`
	// Shards holds each shard's own probe payload, in shard order.
	Shards []serve.Health `json:"shards"`
}

// safeProbe runs a shard probe with panic isolation so a broken instance
// cannot take the gateway's own health endpoint down with it.
func safeProbe(probe func() serve.Health) (h serve.Health) {
	defer func() {
		if r := recover(); r != nil {
			h = serve.Health{OK: false, Status: "probe panicked"}
		}
	}()
	return probe()
}

// timedProbe additionally bounds the probe by ProbeTimeout: a wedged
// shard reports unhealthy instead of hanging the gateway's own endpoint.
func (g *Gateway) timedProbe(probe func() serve.Health) serve.Health {
	ch := make(chan serve.Health, 1)
	go func() { ch <- safeProbe(probe) }()
	t := time.NewTimer(g.cfg.ProbeTimeout)
	defer t.Stop()
	select {
	case h := <-ch:
		return h
	case <-t.C:
		return serve.Health{OK: false, Status: "probe timed out"}
	}
}

// Healthz is the fleet liveness probe: OK while at least ReadyQuorum
// shards are live (not ejected, passing their own liveness probe). Losing
// quorum degrades the gateway itself to unhealthy, so orchestrators see a
// fleet-wide outage rather than per-query failures.
func (g *Gateway) Healthz() Health {
	return g.fleetHealth(func(inst Instance) serve.Health { return inst.Healthz() })
}

// Readyz is the readiness probe: OK while at least ReadyQuorum routable
// shards admit traffic (spill-over reaches them even for keys homed
// elsewhere).
func (g *Gateway) Readyz() Health {
	return g.fleetHealth(func(inst Instance) serve.Health { return inst.Readyz() })
}

// fleetHealth aggregates one probe across the fleet under the lifecycle
// view: ejected and rejoining shards never count toward quorum.
func (g *Gateway) fleetHealth(probe func(Instance) serve.Health) Health {
	states := g.life.snapshotStates()
	h := Health{Quorum: g.cfg.ReadyQuorum}
	for i := range g.ids {
		inst := g.instance(i)
		shh := g.timedProbe(func() serve.Health { return probe(inst) })
		h.Shards = append(h.Shards, shh)
		h.Lifecycle = append(h.Lifecycle, states[i].String())
		if states[i] == ShardEjected {
			h.EjectedShards++
		}
		if states[i].takesTraffic() && shh.OK {
			h.ReadyShards++
		}
	}
	h.OK = h.ReadyShards >= h.Quorum
	return h
}

// Shutdown stops the lifecycle monitor (and waits out its in-flight
// respawn cleanups), drains every shard concurrently, then drains the
// audit queue (flushing accepted events into the tail and sink). It
// returns the first shard error, if any.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.life.shutdown()
	var wg sync.WaitGroup
	errs := make([]error, len(g.ids))
	for i := range g.ids {
		wg.Add(1)
		go func(i int, sh Instance) {
			defer wg.Done()
			errs[i] = sh.Shutdown(ctx)
		}(i, g.instance(i))
	}
	wg.Wait()
	if g.audit != nil {
		g.audit.Drain()
	}
	return errors.Join(errs...)
}

// NewRequestID returns a process-unique request id (nanosecond timestamp
// + counter, hex). The implementation lives in httpapi — which both HTTP
// front-ends and the remote transport share — and is aliased here for the
// gateway's in-process callers.
func NewRequestID() string { return httpapi.NewRequestID() }

// retryAfterOf extracts the Retry-After hint a typed rejection carries
// (zero when absent).
func retryAfterOf(err error) time.Duration {
	var qe *resilience.QueryError
	if errors.As(err, &qe) {
		return qe.RetryAfter
	}
	return 0
}
