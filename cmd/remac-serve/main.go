// remac-serve exposes the concurrent query-serving subsystem
// (internal/serve) over HTTP: a thin stdlib JSON front-end for submitting
// DML workloads against the generated datasets and reading aggregate
// server metrics. The route wiring lives in httpapi.NewServeMux, shared
// with the gateway's remote-shard transport, so a RemoteInstance always
// talks to exactly the handler this binary runs.
//
// Usage:
//
//	remac-serve                          # listen on :8356
//	remac-serve -addr :9000 -workers 8   # custom bind and pool size
//
// Endpoints:
//
//	POST /query   {"algorithm":"DFP","dataset":"cri2","iterations":5}
//	              or {"script":"...","dataset":"cri1"} — custom scripts see
//	              the dataset's standard symbols (A, b, H0, x0).
//	              Optional: "strategy" ("adaptive", "none", "explicit",
//	              "conservative", "aggressive", "automatic"),
//	              "timeout_ms", "no_plan_cache", "no_intermediate_cache".
//	              Bodies are capped (-max-body, default 1 MiB → 413); an
//	              X-Idempotency-Key header makes retried submissions
//	              replay the committed result instead of re-executing
//	              (for the last 1024 keys). An
//	              X-Attempts-Left header is the attempt allowance the
//	              sender grants this query (a gateway's send carries 1);
//	              it is clamped to -retries, and anything but a positive
//	              integer is a 400.
//	GET  /stats   aggregate metrics snapshot (QPS, latency percentiles,
//	              cache hit rates, queue depth, resilience counters) as JSON.
//	GET  /healthz liveness probe: 200 while the process and pool are up.
//	GET  /readyz  readiness probe: 200 when admitting, 503 while draining,
//	              with the queue full, or with the breaker open (then
//	              +Retry-After: the cooldown left).
//	POST /invalidate?dataset=cri2  bump a dataset version, dropping its
//	              cached intermediates. Non-POST methods get 405; a missing,
//	              blank or unknown dataset gets 400.
//	GET  /version?dataset=cri2  read the dataset's current version — the
//	              acknowledgment a gateway's invalidation catch-up polls.
//
// Every response echoes an X-Request-ID header — the client's, or a
// generated one — and failed queries carry it in their JSON bodies too, so
// a request can be correlated across a gateway tier, this server and the
// audit plane.
//
// Query failures map to distinct statuses by resilience class: 400 for
// compile errors, 413 for oversized bodies, 422 for divergent loops (max
// iterations), 503 with a Retry-After header for overload/draining,
// 504 for canceled or timed-out queries, and 500 only for execution
// failures and recovered panics. Error bodies are structured JSON
// ({"error", "class", "query_id", "stage", "retry_after_sec",
// "request_id"}).
//
// SIGINT/SIGTERM stop admission, drain in-flight queries, then exit.
package main

import (
	"flag"
	"log"
	"time"

	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/serve"
)

// options is everything the command line sets: the server configuration
// the flags write into directly, and what needs parsing or wiring first.
type options struct {
	addr     string
	maxBody  int64
	recovery string
	cfg      serve.Config
}

// registerFlags declares the binary's whole flag surface on fs. It is the
// only place a flag is defined: TestFlagSurfaceGolden pins the names, and
// DESIGN.md §16 has a row per name saying who needs it.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.cfg
	fs.StringVar(&o.addr, "addr", ":8356", "listen address")
	fs.IntVar(&c.Workers, "workers", 0, "worker pool size (0: GOMAXPROCS)")
	fs.IntVar(&c.QueueDepth, "queue", 64, "admission queue depth")
	fs.DurationVar(&c.DefaultTimeout, "timeout", 0, "default per-query deadline (0: none)")
	fs.IntVar(&c.PlanCacheEntries, "plan-cache", 128, "compiled-plan cache entries (negative: disabled)")
	fs.Int64Var(&c.IntermediateBudgetBytes, "inter-budget", 4<<30, "intermediate cache budget in modelled bytes (negative: disabled)")
	fs.DurationVar(&c.BatchWindow, "batch-window", 2*time.Millisecond, "MQO batching window: queries admitted within it share loop-constant producer executions (0: disabled)")
	fs.IntVar(&c.Retry.MaxAttempts, "retries", 0, "attempt allowance of a query that arrives without one (0: default 3, negative: one attempt, no retries)")
	fs.StringVar(&o.recovery, "recovery", "", "default recovery policy for queries that do not set one: lineage, checkpoint, coded or coded:k,n")
	fs.StringVar(&c.ShardID, "shard", "", "shard label for this instance in metrics snapshots (set by a gateway tier)")
	fs.Int64Var(&o.maxBody, "max-body", 0, "max POST /query body bytes (0: 1 MiB default, negative: unbounded)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	recovery, err := engine.ParseRecovery(o.recovery)
	if err != nil {
		log.Fatalf("-recovery: %v", err)
	}

	srv := serve.New(o.cfg)
	mux := httpapi.NewServeMux(srv, httpapi.NewQueryBuilder(recovery), httpapi.ServeHandlerConfig{
		MaxBodyBytes: o.maxBody,
	})
	httpapi.ListenAndDrain("remac-serve", o.addr, mux, srv.Shutdown)
}
