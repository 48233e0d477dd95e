// Package gateway is the sharded multi-node serving tier: a front-end
// that routes queries across several serve.Server instances with
// dataset-affine consistent-hash placement (so plan and intermediate
// cache locality survives scale-out), layers per-tenant admission quotas
// above each shard's circuit breaker, fans dataset invalidations out to
// every shard with an acknowledged ordered broadcast, and records every
// query on an audit plane (who ran what, where, at what cost).
//
// Shards are in-process serve.Server instances behind the Instance
// interface, so tests and benches stay hermetic while cmd/remac-gateway
// exposes the same tier over HTTP. Routing is deterministic: the ring's
// seeded placement plus an ordered walk means any two gateways with the
// same configuration route a key identically.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

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
	// Shards is the number of in-process serve.Server instances New runs
	// (ignored by NewWithInstances). Zero means 2, unless New is also given
	// remote shards — then it means none.
	Shards int
	// Serve configures each spawned shard; ShardID is overwritten per
	// shard ("shard-0", "shard-1", …).
	Serve serve.Config
	// Seed perturbs ring placement (any fixed value is deterministic).
	Seed uint64

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
	// outcomes on one shard, with no success between them, trip passive
	// ejection. Negative disables passive detection; default 3.
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
	// every shard try shares the remaining budget (no fresh timeout per
	// try). Query.Timeout overrides it per query. Zero means no gateway
	// deadline.
	DefaultTimeout time.Duration

	// Quotas maps tenant name to its admission quota; tenants not listed
	// get DefaultQuota. A zero quota is unlimited.
	Quotas map[string]TenantQuota
	// DefaultQuota applies to tenants without an explicit entry.
	DefaultQuota TenantQuota

	// AuditSink, when non-nil, additionally receives every audit event, in
	// Seq order (a JSONL file, a test recorder, …).
	AuditSink Sink

	// Clock is injectable for tests (quota refill and audit timestamps).
	Clock func() time.Time
}

// Constants, not configuration: no bench arm, storm or deployment has ever
// needed another value (DESIGN.md §16, knob table).
const (
	// virtualNodes is each shard's point count on the consistent-hash ring.
	virtualNodes = 64
	// auditTail is how many events Audit (GET /audit) can look back on.
	auditTail = 256
	// DefaultAllowance is the attempt allowance Do mints for a request that
	// does not bring its own (Request.Attempts): enough for a shard try and its
	// execution on three shards, or for one remote shard's three wire sends
	// followed by a try and a send on the next.
	DefaultAllowance = 6
)

func (c Config) withDefaults() Config {
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
	// Attempts, when positive, is the attempt allowance Do mints for the
	// request (resilience.Allowance) in place of DefaultAllowance.
	Attempts int
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

// New builds a gateway over cfg.Shards in-process serve.Server shards
// followed by one RemoteInstance per remote, all behind the same ring and
// lifecycle monitor, and installs the supervisor's default Respawn for both
// kinds (a remote respawn is a fresh client against the same URL — the
// process out there has its own supervisor). The per-query deadline moves
// up a layer: the shard's DefaultTimeout is lifted into the gateway's, so
// every shard try shares one budget instead of each getting a fresh
// shard-level timeout.
func New(cfg Config, remotes ...RemoteConfig) *Gateway {
	locals := max(cfg.Shards, 0)
	if cfg.Shards == 0 && len(remotes) == 0 {
		locals = 2
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = cfg.Serve.DefaultTimeout
	}
	cfg.Serve.DefaultTimeout = 0
	spawn := func(shard int, id string) Instance {
		if shard >= locals {
			rc := remotes[shard-locals]
			if id != "" {
				rc.ShardID = id
			}
			return NewRemote(rc)
		}
		scfg := cfg.Serve
		scfg.ShardID = id
		return serve.New(scfg)
	}
	if cfg.Respawn == nil {
		cfg.Respawn = spawn
	}
	instances := make([]Instance, locals+len(remotes))
	for i := range instances {
		id := ""
		if i < locals {
			id = fmt.Sprintf("shard-%d", i)
		}
		instances[i] = spawn(i, id)
	}
	return NewWithInstances(cfg, instances)
}

// NewWithInstances builds a gateway over caller-provided shards, labelled
// by what each reports as its shard id. cfg.Shards is ignored.
func NewWithInstances(cfg Config, instances []Instance) *Gateway {
	if len(instances) == 0 {
		panic("gateway: NewWithInstances requires at least one instance")
	}
	cfg = cfg.withDefaults()
	ids := make([]string, len(instances))
	for i := range instances {
		if id := instances[i].Metrics().Shard; id != "" {
			ids[i] = id
		} else {
			ids[i] = fmt.Sprintf("shard-%d", i)
		}
	}
	g := &Gateway{
		cfg:      cfg,
		shards:   instances,
		ids:      ids,
		ring:     newRing(len(instances), virtualNodes, cfg.Seed),
		quotas:   newQuotas(cfg.Quotas, cfg.DefaultQuota, cfg.Clock),
		versions: map[string]int64{},
		tenants:  lru.New[string, *tenantStats](tenantCap),
		audit:    newAuditor(auditTail, cfg.AuditSink),
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

// routeKey is the ring key for a query: dataset@version, so every query
// touching one dataset version shares a home shard (and with it the plan
// cache and intermediate cache warmed by its siblings).
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

// order returns the shard preference order for a query: its routing key's
// walk of the ring.
func (g *Gateway) order(q serve.Query) []int { return g.ring.order(g.routeKey(q)) }

// routableOrder is the preference order Do actually walks: the ring's
// order filtered down to shards that take traffic (healthy or suspect).
// Ejected and rejoining shards are skipped in place: surviving shards keep
// their position, so only the dead shard's keys move — each to the next
// shard in its own preference order, deterministically.
func (g *Gateway) routableOrder(q serve.Query) []int {
	states := g.life.snapshotStates()
	order := g.order(q)
	out := order[:0]
	for _, s := range order {
		if states[s].takesTraffic() {
			out = append(out, s)
		}
	}
	return out
}

// ErrFailoverExhausted is the root cause inside the Internal-class error
// returned when every shard the request failed over to failed it too.
var ErrFailoverExhausted = errors.New("gateway: failover exhausted")

// ErrDeadlineExhausted is the root cause inside the Canceled-class (504)
// error returned when the query's deadline ran out across attempts.
var ErrDeadlineExhausted = errors.New("gateway: per-query deadline exhausted")

// ErrNoShards is the root cause inside the Overloaded-class (503) error
// returned when ejections have left no routable shard for a query.
var ErrNoShards = errors.New("gateway: no routable shards")

// Do serves one request in five stages — admit, route, attempt, classify,
// record — after binding the two bounds every stage shares: the deadline
// and the attempt allowance. Each stage below says what it may touch;
// record is the only one that writes Stats, tenant stats, the audit Event
// and the Result, and it runs exactly once whatever the outcome.
func (g *Gateway) Do(ctx context.Context, req Request) (*Result, error) {
	r := &request{tenant: req.Tenant, rid: req.RequestID, q: req.Query, start: g.cfg.Clock(), shard: -1}
	if r.tenant == "" {
		r.tenant = "anonymous"
	}
	if r.rid == "" {
		r.rid = httpapi.NewRequestID()
	}
	// The idempotency key is stamped before the first try so every re-send,
	// spill-over and failover of this request carries the same one: a shard
	// that already executed it replays the committed result instead of
	// executing twice. Callers may pin their own (client-side retries across
	// gateway connections); otherwise the request id is exactly the scope.
	if r.q.IdempotencyKey == "" {
		r.q.IdempotencyKey = r.rid
	}

	// Both bounds are bound once, here. The deadline: every try shares the
	// remaining time, and it is cleared on the query so no shard can re-arm a
	// fresh one per try. The allowance: every shard try, wire send and engine
	// execution this request causes anywhere in the tier takes one unit of
	// it before starting, so the request never starts more than it was
	// minted with.
	timeout, attempts := r.q.Timeout, req.Attempts
	if timeout == 0 {
		timeout = g.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if attempts <= 0 {
		attempts = DefaultAllowance
	}
	r.allow = resilience.NewAllowance(attempts)
	ctx = resilience.WithAllowance(ctx, r.allow)
	r.q.Timeout = 0

	release, err := g.quotas.admit(r.tenant)
	if err == nil {
		defer release()
		var order []int
		if order, err = g.route(r.q); err == nil {
			err = r.classify(ctx, g.attempt(ctx, r, order))
		}
	}
	return g.record(r, err)
}

// request is one Do call between its stages: what was asked, the allowance
// it spends, and what the shard walk left behind for classify and record.
type request struct {
	tenant, rid string
	q           serve.Query
	start       time.Time
	allow       *resilience.Allowance

	shard               int // last shard tried; -1 when none was
	tries               int
	spilled, failedOver bool
	// retryAfter is the soonest hint any overloaded shard advertised.
	retryAfter time.Duration
	res        *serve.QueryResult
}

// route is the second stage (admit, the first, is quotas.admit): the
// query's preference order over the shards that take traffic. It reads the
// ring and the lifecycle states and fails typed when ejections have left
// nothing to route to.
func (g *Gateway) route(q serve.Query) ([]int, error) {
	order := g.routableOrder(q)
	if len(order) == 0 {
		return nil, &resilience.QueryError{Class: resilience.Overloaded, Stage: "route",
			Err: ErrNoShards, RetryAfter: time.Second}
	}
	return order, nil
}

// attempt is the third stage: the walk down the preference order. Each try
// takes one unit of the allowance, calls the shard, and feeds the outcome
// to the passive failure detector; nothing else is touched. What moves the
// walk on is only what the shard answered: Overloaded (saturated or
// breaker-open: spill over) and Internal (crashed, panicked, wire retries
// exhausted: fail over). Everything else is an answer — a 429 in
// particular is tenant-level backpressure every replica would repeat. The
// walk ends with the order, the deadline or the allowance, whichever runs
// out first, and returns the last shard's error.
func (g *Gateway) attempt(ctx context.Context, r *request, order []int) (err error) {
	for i, shard := range order {
		if !r.allow.Take() {
			break
		}
		r.shard, r.tries = shard, r.tries+1
		r.res, err = g.instance(shard).Do(ctx, r.q)
		g.life.observe(shard, err, r.rid)
		if err == nil {
			return nil
		}
		overloaded := resilience.IsClass(err, resilience.Overloaded)
		if ra := retryAfterOf(err); overloaded && ra > 0 && (r.retryAfter == 0 || ra < r.retryAfter) {
			r.retryAfter = ra
		}
		if ctx.Err() != nil || i+1 == len(order) || r.allow.Left() == 0 {
			break
		}
		switch {
		case overloaded:
			r.spilled = true
		case resilience.IsClass(err, resilience.Internal):
			r.failedOver = true
		default:
			return err
		}
	}
	return err
}

// classify is the fourth stage, and pure: it turns the walk's last error
// into the request's outcome. A deadline that ran out across tries is the
// typed 504; an Internal failure after failing over says the tier, not the
// query, is degraded; a fleet-wide overload carries the soonest
// Retry-After any shard advertised, not whichever shard was tried last.
// Running out of allowance is none of these: the last error already says
// what went wrong.
func (r *request) classify(ctx context.Context, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return &resilience.QueryError{Class: resilience.Canceled, Stage: "deadline",
			Err: fmt.Errorf("%w: %w", ErrDeadlineExhausted, err)}
	case resilience.IsClass(err, resilience.Internal) && r.failedOver:
		return &resilience.QueryError{Class: resilience.Internal, Stage: "failover",
			Err: fmt.Errorf("%w after %d shard(s): %w", ErrFailoverExhausted, r.tries, err)}
	case resilience.IsClass(err, resilience.Overloaded) && r.spilled && r.retryAfter > 0 && retryAfterOf(err) != r.retryAfter:
		return &resilience.QueryError{Class: resilience.Overloaded, Stage: "route",
			Err:        fmt.Errorf("all %d shard(s) tried are overloaded: %w", r.tries, err),
			RetryAfter: r.retryAfter}
	}
	return err
}

// record is the last stage and the only writer: one Stats delta, one
// tenant-stats update, one audit event and the Result, all read off the
// request and its typed outcome.
func (g *Gateway) record(r *request, err error) (*Result, error) {
	now := g.cfg.Clock()
	latency := now.Sub(r.start).Seconds()
	var flop float64
	if err == nil {
		flop = r.res.FLOP
	}
	g.count(func(st *Stats) {
		switch {
		case err == nil:
			st.Routed++
			if r.spilled {
				st.Spilled++
			}
			if r.failedOver {
				st.FailedOver++
			}
		case errors.Is(err, ErrQuotaExceeded):
			st.QuotaRejected++
		case errors.Is(err, ErrDeadlineExhausted):
			st.DeadlineExceeded++
		case errors.Is(err, ErrFailoverExhausted):
			st.FailoverExhausted++
		case resilience.IsClass(err, resilience.Overloaded):
			st.OverloadRejected++
		}
	})
	g.tenantFinish(r.tenant, latency, flop, err)
	g.audit.submit(Event{
		Tenant:       r.tenant,
		RequestID:    r.rid,
		CanonicalKey: canonicalKey(r.q.Script),
		Dataset:      r.q.Dataset,
		Shard:        r.shard,
		Outcome:      outcomeClass(err),
		Spilled:      r.spilled,
		Failover:     r.failedOver,
		FLOP:         flop,
		LatencySec:   latency,
	}, now)
	if err != nil {
		return nil, err
	}
	return &Result{
		QueryResult: r.res,
		Shard:       r.shard,
		ShardID:     g.ids[r.shard],
		Spilled:     r.spilled,
		Failover:    r.failedOver,
		RequestID:   r.rid,
	}, nil
}

// outcomeClass renders an error as its audit outcome string: the class the
// HTTP front-ends would write (httpapi.Classify), "error" when it has none.
func outcomeClass(err error) string {
	if err == nil {
		return "ok"
	}
	if class, _, _ := httpapi.Classify(err); class != "" {
		return class
	}
	return "error"
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
	inst := g.instance(i)
	for id, v := range g.versions { // written only under invMu, which is held
		if !g.bumpToVersion(inst, id, v) {
			return false
		}
	}
	admit()
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

// Audit returns up to n most recent audit events, oldest first.
func (g *Gateway) Audit(n int) []Event {
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
		shh := g.life.guardedProbe(func() serve.Health { return probe(inst) })
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
// respawn cleanups) and drains every shard concurrently. It returns the
// first shard error, if any.
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
	return errors.Join(errs...)
}

// retryAfterOf extracts the Retry-After hint a typed rejection carries
// (zero when absent).
func retryAfterOf(err error) time.Duration {
	var qe *resilience.QueryError
	if errors.As(err, &qe) {
		return qe.RetryAfter
	}
	return 0
}
