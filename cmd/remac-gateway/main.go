// remac-gateway fronts a sharded serving tier (internal/gateway): N
// in-process serve.Server shards behind a consistent-hash router with
// per-tenant admission quotas, acknowledged cross-shard invalidation, an
// audit plane, and a shard lifecycle monitor that detects dead shards
// (active probes plus consecutive query failures), fails queries over to the
// next ring shard, ejects and respawns the dead instance, and readmits it
// only after its dataset versions catch back up.
//
// Usage:
//
//	remac-gateway -shards 3                          # 3 shards on :8357
//	remac-gateway -shards 4 \
//	    -quota noisy=0.5:1:1 -quota batch=10:20:8    # per-tenant quotas
//	remac-gateway -shards 4 \
//	    -probe-interval 500ms -eject-after 2         # aggressive ejection
//	remac-gateway -shards 0 \
//	    -shard http://10.0.0.2:8356 \
//	    -shard http://10.0.0.3:8356                  # remote shard fleet
//
// Remote shards (-shard URLs, repeatable) are remac-serve processes the
// gateway reaches over HTTP: queries, health probes, invalidation fan-out
// and version catch-up all travel the wire, with per-attempt timeouts
// carved from the query deadline, a gateway-wide retry budget (64 tokens,
// a tenth of one back per success), and idempotency keys so a retried
// query whose response was lost replays the committed result instead of
// executing twice. Mixed fleets (-shards N -shard URL...) put local and
// remote instances behind the same ring and lifecycle monitor.
//
// How often a request may be tried is not a flag: every request carries one
// attempt allowance (gateway.DefaultAllowance) that each shard try, wire
// send and engine execution debits, wherever in the tier it happens.
//
// Endpoints:
//
//	POST /query   same body as remac-serve, plus tenant identity via the
//	              X-Tenant header or a "tenant" JSON field. Replies carry
//	              the serving shard, whether the query spilled off its home
//	              shard or failed over off a dead one, and the request id.
//	GET  /stats   aggregate view: merged cross-shard snapshot, per-shard
//	              (including lifecycle state) and per-tenant breakdowns,
//	              routing/failover/audit counters.
//	POST /invalidate?dataset=cri2  acknowledged fan-out: bumps the version
//	              on every shard before replying, so no live shard serves
//	              the old version once the response arrives.
//	GET  /audit   most recent audit events, including membership
//	              transitions (?n= bounds the tail).
//	GET  /healthz fleet liveness; GET /readyz readiness. Both report 503
//	              once ejections drop the live-shard count below
//	              -ready-quorum.
//
// Tenants over their token-bucket QPS or concurrency quota receive 429
// with Retry-After and a structured JSON body; whole-tier overload is
// 503; a query whose deadline runs out across attempts is 504. Every
// response echoes X-Request-ID (client-sent or generated).
//
// SIGINT/SIGTERM drain every shard, then exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"remac/internal/engine"
	"remac/internal/gateway"
	"remac/internal/httpapi"
	"remac/internal/resilience"
)

// handler adapts the gateway API to HTTP.
type handler struct {
	gw      *gateway.Gateway
	builder *httpapi.QueryBuilder
	// maxBody caps POST /query bodies (0: httpapi.MaxQueryBodyBytes;
	// negative: unbounded).
	maxBody int64
}

func (h *handler) query(w http.ResponseWriter, r *http.Request, rid string) {
	req, q, ok := h.builder.DecodeAndBuild(w, r, rid, h.maxBody)
	if !ok {
		return
	}
	res, err := h.gw.Do(r.Context(), gateway.Request{
		Tenant:    httpapi.Tenant(r, req),
		RequestID: rid,
		Query:     q,
	})
	if err != nil {
		httpapi.WriteError(w, rid, err)
		return
	}
	resp := httpapi.BuildResponse(res.QueryResult)
	resp.RequestID = res.RequestID
	resp.Shard = res.ShardID
	resp.Spilled = res.Spilled
	resp.Failover = res.Failover
	httpapi.WriteJSON(w, rid, resp)
	res.Release() // an in-process shard's result holds cells; the reply is written
}

func (h *handler) invalidate(w http.ResponseWriter, r *http.Request, rid string) {
	ds, ok := httpapi.DatasetParam(w, r, rid, true)
	if !ok {
		return
	}
	v := h.gw.InvalidateDataset(ds)
	httpapi.WriteJSON(w, rid, map[string]any{
		"dataset": ds, "version": v, "shard_versions": h.gw.ShardVersions(ds),
	})
}

func (h *handler) audit(w http.ResponseWriter, r *http.Request, rid string) {
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			httpapi.WriteError(w, rid, &resilience.QueryError{
				Class: resilience.Compile, Stage: "request", Err: fmt.Errorf("n must be a non-negative integer"),
			})
			return
		}
		n = v
	}
	events := h.gw.Audit(n)
	if events == nil {
		events = []gateway.Event{}
	}
	httpapi.WriteJSON(w, rid, map[string]any{"events": events})
}

// health renders a fleet probe: 200 while the live-shard quorum holds, 503
// with Retry-After once ejections have broken it.
func health(probe func() gateway.Health) http.HandlerFunc {
	return httpapi.Endpoint(http.MethodGet, func(w http.ResponseWriter, _ *http.Request, rid string) {
		hz := probe()
		httpapi.WriteHealth(w, rid, hz.OK, time.Second, hz)
	})
}

// newMux wires the handler's routes (shared with the tests).
func newMux(h *handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", httpapi.Endpoint(http.MethodPost, h.query))
	mux.HandleFunc("/stats", httpapi.Endpoint(http.MethodGet, func(w http.ResponseWriter, _ *http.Request, rid string) {
		httpapi.WriteJSON(w, rid, h.gw.Stats())
	}))
	mux.HandleFunc("/invalidate", httpapi.Endpoint(http.MethodPost, h.invalidate))
	mux.HandleFunc("/audit", httpapi.Endpoint(http.MethodGet, h.audit))
	mux.HandleFunc("/healthz", health(h.gw.Healthz))
	mux.HandleFunc("/readyz", health(h.gw.Readyz))
	return mux
}

// parseQuota parses one -quota value: "tenant=qps[:burst[:concurrent]]".
func parseQuota(spec string) (string, gateway.TenantQuota, error) {
	name, rest, ok := strings.Cut(spec, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || rest == "" {
		return "", gateway.TenantQuota{}, fmt.Errorf("quota %q: want tenant=qps[:burst[:concurrent]]", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) > 3 {
		return "", gateway.TenantQuota{}, fmt.Errorf("quota %q: too many fields", spec)
	}
	var q gateway.TenantQuota
	var err error
	if q.QPS, err = strconv.ParseFloat(parts[0], 64); err != nil || q.QPS < 0 {
		return "", gateway.TenantQuota{}, fmt.Errorf("quota %q: bad qps %q", spec, parts[0])
	}
	if len(parts) > 1 {
		if q.Burst, err = strconv.Atoi(parts[1]); err != nil || q.Burst < 0 {
			return "", gateway.TenantQuota{}, fmt.Errorf("quota %q: bad burst %q", spec, parts[1])
		}
	}
	if len(parts) > 2 {
		if q.MaxConcurrent, err = strconv.Atoi(parts[2]); err != nil || q.MaxConcurrent < 0 {
			return "", gateway.TenantQuota{}, fmt.Errorf("quota %q: bad concurrent %q", spec, parts[2])
		}
	}
	return name, q, nil
}

// The wire retry budget every remote shard draws on: 64 tokens, a tenth of
// one restored per successful wire query. Constants — no deployment or bench
// arm has needed another value (DESIGN.md §16).
const retryBudget, retryRefill = 64, 0.1

// options is everything the command line sets: the gateway configuration
// the flags write into directly, and what needs parsing or wiring first.
type options struct {
	addr         string
	maxBody      int64
	recovery     string
	defaultQuota string
	cfg          gateway.Config
	// remotes are the -shard URLs; remote is what every RemoteInstance
	// shares apart from its URL.
	remotes []string
	remote  gateway.RemoteConfig
}

// registerFlags declares the binary's whole flag surface on fs. It is the
// only place a flag is defined: TestFlagSurfaceGolden pins the names, and
// DESIGN.md §16 has a row per name saying who needs it.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{cfg: gateway.Config{Quotas: map[string]gateway.TenantQuota{}}}
	c, sc := &o.cfg, &o.cfg.Serve
	fs.StringVar(&o.addr, "addr", ":8357", "listen address")
	fs.IntVar(&c.Shards, "shards", 2, "number of in-process serving shards")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", time.Second, "active health probe period (0: probing disabled)")
	fs.IntVar(&c.EjectAfter, "eject-after", 3, "consecutive failed probes before a shard is ejected (negative: active detection off)")
	fs.IntVar(&c.PassiveFailures, "passive-failures", 3, "consecutive internal-class query failures before passive ejection (negative: off)")
	fs.IntVar(&c.RejoinProbes, "rejoin-probes", 2, "consecutive caught-up probes before a rejoining shard is readmitted")
	fs.IntVar(&c.ReadyQuorum, "ready-quorum", 1, "minimum live shards for /healthz and /readyz to report 200")
	fs.Uint64Var(&c.Seed, "seed", 0, "ring placement seed")
	fs.IntVar(&sc.Workers, "workers", 0, "worker pool size per shard (0: GOMAXPROCS)")
	fs.IntVar(&sc.QueueDepth, "queue", 64, "admission queue depth per shard")
	fs.DurationVar(&c.DefaultTimeout, "timeout", 0, "default per-query deadline (0: none)")
	fs.IntVar(&sc.PlanCacheEntries, "plan-cache", 128, "compiled-plan cache entries per shard (negative: disabled)")
	fs.Int64Var(&sc.IntermediateBudgetBytes, "inter-budget", 4<<30, "intermediate cache budget per shard in modelled bytes (negative: disabled)")
	fs.DurationVar(&sc.BatchWindow, "batch-window", 2*time.Millisecond, "MQO batching window per shard (0: disabled)")
	fs.StringVar(&o.recovery, "recovery", "", "default recovery policy: lineage, checkpoint, coded or coded:k,n")
	fs.Func("quota", "per-tenant quota tenant=qps[:burst[:concurrent]] (repeatable)", func(spec string) error {
		name, q, err := parseQuota(spec)
		if err == nil {
			c.Quotas[name] = q
		}
		return err
	})
	fs.StringVar(&o.defaultQuota, "default-quota", "", "quota for tenants without a -quota entry: qps[:burst[:concurrent]] (empty: unlimited)")
	fs.Func("shard", "remote shard base URL, e.g. http://host:8356 (repeatable; joins the fleet alongside the -shards in-process instances)", func(u string) error {
		u = strings.TrimSpace(u)
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("shard %q: want an http(s) base URL", u)
		}
		o.remotes = append(o.remotes, u)
		return nil
	})
	fs.Int64Var(&o.maxBody, "max-body", 0, "max POST /query body bytes (0: 1 MiB default, negative: unbounded)")
	fs.DurationVar(&o.remote.AttemptTimeout, "attempt-timeout", 10*time.Second, "per-attempt wire timeout for remote shards (carved from the query deadline)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	recovery, err := engine.ParseRecovery(o.recovery)
	if err != nil {
		log.Fatalf("-recovery: %v", err)
	}
	if o.defaultQuota != "" {
		if _, o.cfg.DefaultQuota, err = parseQuota("default=" + o.defaultQuota); err != nil {
			log.Fatalf("-default-quota: %v", err)
		}
	}
	// One RemoteConfig per -shard URL, all drawing on one retry budget.
	o.remote.Budget = gateway.NewRetryBudget(retryBudget, retryRefill)
	remotes := make([]gateway.RemoteConfig, len(o.remotes))
	for i, u := range o.remotes {
		remotes[i] = o.remote
		remotes[i].BaseURL = u
	}
	gw := gateway.New(o.cfg, remotes...)
	h := &handler{gw: gw, builder: httpapi.NewQueryBuilder(recovery), maxBody: o.maxBody}
	httpapi.ListenAndDrain("remac-gateway", o.addr, newMux(h), gw.Shutdown)
}
