package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/engine"
	"remac/internal/gateway"
	"remac/internal/httpapi"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/serve"
	"remac/internal/sparsity"
	"remac/internal/trace"
)

// workload is one traffic mix over one path of the program.
type workload struct {
	name, why string
	// footprintMB is a little more than the resident set the workload
	// reaches; that much memory is touched before set-up (see prefault).
	footprintMB int
	setup       func(seed int64, sz sizing) (*instance, error)
}

// workloads lists the six workloads in the order they are reported.
// BENCHMARK.json names, with the same "why", the four the driver runs:
// its time limit affords four windows long enough to be steady, and
// serve_warm and gateway_warm — two clients saturating two cores — are the
// two that a busy neighbour moves most.
var workloads = []workload{
	{"compile_cold", "Planner-bound, kernels bypassed: parse, metadata scan and adaptive compile of 4 algorithms x 8 dataset shapes; search, cost-graph and estimator work shows here only.", 1024, setupCompileCold},
	{"exec_heavy", "Kernel- and runtime-bound, compile bypassed: engine runs of plans compiled in set-up (dense n x n products, CSR x dense, MNC propagation); carries the exact simulated-clock numbers.", 640, setupExecHeavy},
	{"serve_warm", "Serving layer at its best case: 2 closed-loop clients on serve.Server.Do with plan and intermediate caches hitting, so per-query bookkeeping (plan key, result hash, metrics) shows.", 384, setupServeWarm},
	{"serve_open", "Same server and queries in an open loop, 12 qps sent as seeded pairs into the 2 ms batch window: admission queue, batching and MQO sharing act; latency rises here before closed-loop throughput moves.", 384, setupServeOpen},
	{"gateway_warm", "Whole tier: decode, input binding, gateway quota/ring/audit, loopback HTTP to 2 shards, encode; minus serve_warm this isolates the tier's own cost.", 3584, setupGatewayWarm},
	{"gateway_churn", "Whole tier, one client, writes beside reads and a plan working set larger than the cache: every second query is a raw-script variant that misses and evicts a plan, invalidations drop intermediates.", 2304, setupGatewayChurn},
}

// instance is a workload set up for one seed: servers started, plans
// compiled, caches warm, first results checked against the reference.
type instance struct {
	// kinds are the latency groups (one distribution each); keyKind maps
	// each key — a distinct op the schedule can pick — to its kind.
	kinds   []string
	keyKind []int
	// writeKind is the kind of the write op (-1 if the workload has none);
	// it is kept out of the query latency and throughput metrics.
	writeKind int
	// clients is the closed-loop client count; 0 means open loop at qps.
	clients  int
	qps      float64
	schedule func(i int) int
	// blockOps consecutive ops of the schedule, starting at a multiple of
	// blockOps, always hold the same work (one pass of the mix, plus the
	// block's writes); blockQueries of them are queries.
	blockOps, blockQueries int
	run                    opFunc
	// keepValues makes the serving paths return result matrices (set-up
	// only: a measured window keeps hashes).
	keepValues bool
	// first is the first outcome of each key, against which every repeat
	// must be bitwise identical (nil until the key first runs).
	first []*outcome
	// settle finishes verification after the measured window, outside the
	// timed region, and may complete sample outcomes (compile path).
	settle func(w *window) error
	// counters reads the server-side counters (zero without a server).
	counters func() counters
	// scripts are the distinct program texts of the mix, for the
	// canonicalisation probe.
	scripts []string
	// extras adds the workload's own per-layer metrics to a traced run and
	// finishes any verification they imply.
	extras func(m map[string]float64) error
	close  func()
}

// counters are the cumulative server-side counts a traced window reports as
// deltas.
type counters struct {
	serve serve.Snapshot
	gw    gateway.Stats
	wire  gateway.WireStats
}

func newInstance(kinds []string, keyKind []int) *instance {
	return &instance{
		kinds: kinds, keyKind: keyKind, writeKind: -1, clients: 1,
		blockOps: len(keyKind), blockQueries: len(keyKind),
		first:    make([]*outcome, len(keyKind)),
		counters: func() counters { return counters{} },
		close:    func() {},
	}
}

func kindNames(mix []queryKind) ([]string, []int) {
	names := make([]string, len(mix))
	keyKind := make([]int, len(mix))
	for i, k := range mix {
		names[i] = k.String()
		keyKind[i] = i
	}
	return names, keyKind
}

// warm runs the given keys once, outside any timed region, and records each
// outcome as the key's first; check, when non-nil, validates it.
func (in *instance) warm(keys []int, check func(key int, o *outcome) error) error {
	for _, key := range keys {
		o, err := in.run(context.Background(), key, -1, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", in.kinds[in.keyKind[key]], err)
		}
		if check != nil {
			if err := check(key, &o); err != nil {
				return fmt.Errorf("%s: %w", in.kinds[in.keyKind[key]], err)
			}
		}
		in.first[key] = &o
	}
	return nil
}

func allKeys(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sameOutcome is the bitwise contract between two executions of one key:
// same plan, same result hash, same answer matrices.
func sameOutcome(first, o *outcome) error {
	if first.planSig != o.planSig {
		return fmt.Errorf("plan %q differs from the first execution's %q", o.planSig, first.planSig)
	}
	if first.hash != o.hash {
		return fmt.Errorf("result hash %016x differs from the first execution's %016x", o.hash, first.hash)
	}
	for name, m := range o.values {
		if f := first.values[name]; f != nil && !bitwiseEqual(f, m) {
			return fmt.Errorf("%s differs bitwise from the first execution", name)
		}
	}
	return nil
}

// ---- library path -------------------------------------------------------

// libQuery is one query on the library path.
type libQuery struct {
	kind   queryKind
	script string
	inputs map[string]engine.Input
}

func libQueries(mix []queryKind, seed int64) ([]libQuery, error) {
	dss, err := datasets(mix, seed)
	if err != nil {
		return nil, err
	}
	out := make([]libQuery, len(mix))
	for i, k := range mix {
		script, err := algorithms.Script(k.alg, loopIterations)
		if err != nil {
			return nil, err
		}
		out[i] = libQuery{kind: k, script: script, inputs: bindInputs(k.alg, dss[k.base])}
	}
	return out, nil
}

func scriptsOf(queries []libQuery) []string {
	out := make([]string, len(queries))
	for i, q := range queries {
		out[i] = q.script
	}
	return out
}

func optConfig(strategy opt.Strategy) opt.Config {
	return opt.Config{Strategy: strategy, Estimator: sparsity.MNC{}, Cluster: cluster.DefaultConfig(), Iterations: loopIterations}
}

// compileQuery is the call sequence of remac.Compile: parse, scan each
// input's metadata, optimize.
func compileQuery(ctx context.Context, tr *tracer, op, parent int, q libQuery, strategy opt.Strategy) (*opt.Compiled, error) {
	s := tr.begin(op, "lang.parse", parent)
	prog, err := lang.Parse(q.script)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, "sparsity.metaof", parent)
	metas := map[string]sparsity.Meta{}
	for name, in := range q.inputs {
		metas[name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
	}
	tr.end(s)
	s = tr.begin(op, "opt.compile", parent)
	c, err := opt.CompileCtx(ctx, prog, metas, optConfig(strategy))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.child(s, "search.blockwise", c.SearchTime)
	tr.child(s, "costgraph.plan", c.PlanTime)
	return c, nil
}

// runPlan is the call sequence of remac.Program.Run.
func runPlan(ctx context.Context, tr *tracer, op, parent int, q libQuery, c *opt.Compiled) (outcome, error) {
	s := tr.begin(op, "engine.run", parent)
	res, err := engine.RunWithOptions(ctx, c, q.inputs, nil, engine.RunOptions{})
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		values:      map[string]*matrix.Matrix{},
		simSec:      res.Stats.TotalTime(),
		computeSec:  res.Stats.ComputeTime,
		transmitSec: res.Stats.TransmitTime,
		iterations:  res.Iterations,
		engineOps:   res.Stats.Ops,
		flop:        res.Stats.FLOP,
	}
	for i, p := range cluster.Primitives {
		o.bytes[i] = res.Stats.BytesFor(p)
	}
	for _, name := range answerVars(q.kind.alg) {
		if v := res.Env[name]; v != nil {
			o.values[name] = v.Data()
		}
	}
	return o, nil
}

func planSignature(c *opt.Compiled) string {
	return fmt.Sprintf("%s|%x", strings.Join(c.Decision.Keys(), ","), c.Decision.TotalCost)
}

func referenceOf(q libQuery) (map[string][]float64, error) {
	return reference(q.kind.alg, q.inputs, defaultAlpha, loopIterations)
}

func setupCompileCold(seed int64, sz sizing) (*instance, error) {
	queries, err := libQueries(sz.mix(compileMix), seed)
	if err != nil {
		return nil, err
	}
	in := newInstance(kindNames(sz.mix(compileMix)))
	in.scripts = scriptsOf(queries)
	in.schedule = passSchedule(len(queries), seed)
	in.run = func(ctx context.Context, key, op int, tr *tracer) (outcome, error) {
		root := tr.begin(op, "op", -1)
		c, err := compileQuery(ctx, tr, op, root, queries[key], opt.Adaptive)
		tr.end(root)
		o := outcome{done: time.Now()}
		if err != nil {
			return o, err
		}
		o.planSig = planSignature(c)
		o.optionsFound = len(c.Search.Options)
		o.optionsSelected = len(c.Decision.Selected)
		o.modelledCost = c.Decision.TotalCost
		if in.first[key] == nil {
			o.plan = c
		}
		return o, nil
	}
	if err := in.warm(allKeys(len(queries)), nil); err != nil {
		return nil, err
	}
	// A plan is correct when running it gives the reference answer. Each
	// key's first plan is run once, after the first measured window; its
	// simulated seconds become those of every op of the key.
	var ran []outcome
	in.settle = func(w *window) error {
		for key := len(ran); key < len(queries); key++ {
			q := queries[key]
			o, err := runPlan(context.Background(), nil, -1, -1, q, in.first[key].plan)
			if err != nil {
				return fmt.Errorf("%s: run: %w", q.kind, err)
			}
			ref, err := referenceOf(q)
			if err != nil {
				return err
			}
			if err := checkAnswer(ref, o.values); err != nil {
				return fmt.Errorf("%s: %w", q.kind, err)
			}
			ran = append(ran, o)
		}
		for i := range w.samples {
			o, r := &w.samples[i].out, ran[w.samples[i].key]
			o.simSec, o.computeSec, o.transmitSec = r.simSec, r.computeSec, r.transmitSec
		}
		return nil
	}
	return in, nil
}

func setupExecHeavy(seed int64, sz sizing) (*instance, error) {
	queries, err := libQueries(sz.mix(execMix), seed)
	if err != nil {
		return nil, err
	}
	plans := make([]*opt.Compiled, len(queries))
	for i, q := range queries {
		if plans[i], err = compileQuery(context.Background(), nil, -1, -1, q, opt.Adaptive); err != nil {
			return nil, fmt.Errorf("%s: compile: %w", q.kind, err)
		}
	}
	in := newInstance(kindNames(sz.mix(execMix)))
	in.scripts = scriptsOf(queries)
	in.schedule = passSchedule(len(queries), seed)
	in.run = func(ctx context.Context, key, op int, tr *tracer) (outcome, error) {
		root := tr.begin(op, "op", -1)
		o, err := runPlan(ctx, tr, op, root, queries[key], plans[key])
		tr.end(root)
		o.done = time.Now()
		return o, err
	}
	err = in.warm(allKeys(len(queries)), func(key int, o *outcome) error {
		ref, err := referenceOf(queries[key])
		if err != nil {
			return err
		}
		return checkAnswer(ref, o.values)
	})
	if err != nil {
		return nil, err
	}
	in.extras = func(m map[string]float64) error {
		m["engine.recorder_overhead_pct"] = recorderOverhead(queries, plans)
		speedup, err := strategyAgreement(queries, in.first)
		m["cluster.sim_speedup_x"] = speedup
		return err
	}
	return in, nil
}

// recorderOverhead runs one pass of the mix with the engine's own span
// recorder attached and one without, and returns the difference as a
// percentage of the pass without.
func recorderOverhead(queries []libQuery, plans []*opt.Compiled) float64 {
	pass := func(rec func() *trace.Recorder) time.Duration {
		start := time.Now()
		for i, q := range queries {
			// Set-up already ran and checked this plan; only the time matters.
			_, _ = engine.RunWithOptions(context.Background(), plans[i], q.inputs, rec(), engine.RunOptions{})
		}
		return time.Since(start)
	}
	plain := pass(func() *trace.Recorder { return nil })
	recorded := pass(trace.New)
	return (recorded.Seconds()/plain.Seconds() - 1) * 100
}

// strategyAgreement compiles and runs each query without elimination and
// checks that it agrees with the adaptive plan's answer (adaptive holds each
// query's set-up outcome); it returns the geometric mean of NoElimination ÷
// Adaptive simulated seconds, the paper's headline ratio.
func strategyAgreement(queries []libQuery, adaptiveFirst []*outcome) (float64, error) {
	var ratios []float64
	for key, q := range queries {
		c, err := compileQuery(context.Background(), nil, -1, -1, q, opt.NoElimination)
		if err != nil {
			return 0, fmt.Errorf("%s: compile without elimination: %w", q.kind, err)
		}
		base, err := runPlan(context.Background(), nil, -1, -1, q, c)
		if err != nil {
			return 0, fmt.Errorf("%s: run without elimination: %w", q.kind, err)
		}
		adaptive := adaptiveFirst[key]
		ref := map[string][]float64{}
		for name, m := range adaptive.values {
			ref[name] = flat(m)
		}
		if err := checkAnswer(ref, base.values); err != nil {
			return 0, fmt.Errorf("%s: NoElimination against Adaptive: %w", q.kind, err)
		}
		ratios = append(ratios, base.simSec/adaptive.simSec)
	}
	return geomean(ratios), nil
}

// ---- serving path, in process -------------------------------------------

// serveOutcome reduces a served result to an outcome.
func serveOutcome(res *serve.QueryResult, keepValues bool) outcome {
	o := outcome{
		hash:        res.ResultHash,
		simSec:      res.SimulatedSec,
		computeSec:  res.ComputeSec,
		transmitSec: res.TransmitSec,
		iterations:  res.Iterations,
		flop:        res.FLOP,
	}
	if keepValues {
		o.values = res.Values
	}
	return o
}

// traceServed synthesizes the shard-reported body and plan spans under the
// span of the call that waited for them.
func traceServed(tr *tracer, parent int, res *serve.QueryResult) {
	body := tr.child(parent, "serve.body", time.Duration(res.WallSec*float64(time.Second)))
	tr.child(body, "serve.plan", time.Duration(res.CompileSec*float64(time.Second)))
}

func setupServe(seed int64, sz sizing, cfg serve.Config) (*instance, error) {
	mix := sz.mix(serveMix)
	lib, err := libQueries(mix, seed)
	if err != nil {
		return nil, err
	}
	// Queries are built once so that input pointers are stable, as a client
	// holding its matrices would submit them.
	queries := make([]serve.Query, len(lib))
	for i, q := range lib {
		queries[i] = serve.NewQuery(q.script, q.inputs)
		queries[i].Dataset = datasetName(q.kind.base, seed)
		queries[i].Iterations = loopIterations
	}
	srv := serve.New(cfg)
	in := newInstance(kindNames(mix))
	in.scripts = scriptsOf(lib)
	in.schedule = passSchedule(len(queries), seed)
	in.counters = func() counters { return counters{serve: srv.Metrics()} }
	in.close = func() { srv.Shutdown(context.Background()) }
	in.run = func(ctx context.Context, key, op int, tr *tracer) (outcome, error) {
		root := tr.begin(op, "op", -1)
		s := tr.begin(op, "serve.do", root)
		res, err := srv.Do(ctx, queries[key])
		tr.end(s)
		tr.end(root)
		done := time.Now()
		if err != nil {
			return outcome{done: done}, err
		}
		traceServed(tr, s, res)
		o := serveOutcome(res, in.keepValues)
		o.done = done
		return o, nil
	}
	in.keepValues = true
	err = in.warm(allKeys(len(queries)), func(key int, o *outcome) error {
		ref, err := referenceOf(lib[key])
		if err != nil {
			return err
		}
		return checkAnswer(ref, o.values)
	})
	in.keepValues = false
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func setupServeWarm(seed int64, sz sizing) (*instance, error) {
	in, err := setupServe(seed, sz, serve.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	in.clients = 2
	return in, nil
}

// openLoopQPS is the fixed arrival rate of serve_open, about 60 % of what two
// closed-loop clients reach on this mix on the two-core reference box.
const openLoopQPS = 12

func setupServeOpen(seed int64, sz sizing) (*instance, error) {
	in, err := setupServe(seed, sz, serve.Config{Workers: 2, QueueDepth: 64, BatchWindow: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	in.clients, in.qps = 0, openLoopQPS
	if sz.smoke { // a fraction of a second still has to see arrivals
		in.qps = 100
	}
	return in, nil
}

// ---- whole tier ---------------------------------------------------------

// tier is a gateway over HTTP shards, all in this process: the gateway
// handler's call sequence on one side, cmd/remac-serve's mux on the other.
type tier struct {
	gw      *gateway.Gateway
	builder *httpapi.QueryBuilder
	remotes []*gateway.RemoteInstance
	close   func()
}

var tenants = []string{"tenant-a", "tenant-b", "tenant-c"}

func startTier(planEntries int) *tier {
	const shards = 2
	t := &tier{builder: httpapi.NewQueryBuilder(engine.RecoveryPolicy{})}
	budget := gateway.NewRetryBudget(64, 0.1)
	var servers []*serve.Server
	var fronts []*httptest.Server
	var insts []gateway.Instance
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		srv := serve.New(serve.Config{
			ShardID: id, Workers: 2, QueueDepth: 64,
			BatchWindow: 2 * time.Millisecond, PlanCacheEntries: planEntries,
		})
		front := httptest.NewServer(httpapi.NewServeMux(srv,
			httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), httpapi.ServeHandlerConfig{}))
		remote := gateway.NewRemote(gateway.RemoteConfig{BaseURL: front.URL, ShardID: id, Budget: budget})
		servers, fronts = append(servers, srv), append(fronts, front)
		t.remotes = append(t.remotes, remote)
		insts = append(insts, remote)
	}
	t.gw = gateway.NewWithInstances(gateway.Config{
		DefaultQuota: gateway.TenantQuota{QPS: 10000, Burst: 10000, MaxConcurrent: 64},
	}, insts)
	t.close = func() {
		t.gw.Shutdown(context.Background())
		for i := range fronts {
			fronts[i].Close()
			servers[i].Shutdown(context.Background())
		}
	}
	return t
}

func (t *tier) counters() counters {
	c := counters{gw: t.gw.Stats()}
	c.serve = c.gw.Merged
	for _, r := range t.remotes {
		ws := r.WireStats()
		c.wire.Attempts += ws.Attempts
		c.wire.Retries += ws.Retries
		c.wire.Replays += ws.Replays
	}
	return c
}

// query is what cmd/remac-gateway's POST /query handler does with one
// request body: decode, bind inputs, route, summarize, encode.
func (t *tier) query(ctx context.Context, tr *tracer, op, parent int, tenant string, body []byte) (outcome, error) {
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	r.Header.Set(httpapi.TenantHeader, tenant)
	w := httptest.NewRecorder()
	rid := httpapi.RequestID(r)

	s := tr.begin(op, "httpapi.decode", parent)
	req, ok := httpapi.DecodeQuery(w, r, rid, 0)
	tr.end(s)
	if !ok {
		return outcome{}, fmt.Errorf("decode: %s", w.Body.String())
	}
	s = tr.begin(op, "httpapi.build", parent)
	q, err := t.builder.Build(req)
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	s = tr.begin(op, "gateway.do", parent)
	res, err := t.gw.Do(ctx, gateway.Request{Tenant: httpapi.Tenant(r, req), RequestID: rid, Query: q})
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	traceServed(tr, s, res.QueryResult)
	s = tr.begin(op, "httpapi.encode", parent)
	resp := httpapi.BuildResponse(res.QueryResult)
	resp.RequestID, resp.Shard, resp.Spilled, resp.Failover = res.RequestID, res.ShardID, res.Spilled, res.Failover
	httpapi.WriteJSON(w, rid, resp)
	tr.end(s)
	return serveOutcome(res.QueryResult, false), nil
}

// tierQuery is one key of a tier workload: a request body, plus what is
// needed to check its first result.
type tierQuery struct {
	kind  queryKind
	alpha float64
	body  []byte
	req   httpapi.QueryRequest
}

func algorithmRequest(k queryKind, seed int64) tierQuery {
	req := httpapi.QueryRequest{Algorithm: string(k.alg), Dataset: datasetName(k.base, seed), Iterations: loopIterations}
	body, _ := json.Marshal(req)
	return tierQuery{kind: k, alpha: defaultAlpha, body: body, req: req}
}

// checkInProcess runs each query once on a throwaway in-process server,
// checks the values against the reference, and returns the result hashes
// the wire path must reproduce.
func checkInProcess(queries []tierQuery) ([]uint64, error) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	builder := httpapi.NewQueryBuilder(engine.RecoveryPolicy{})
	hashes := make([]uint64, len(queries))
	for i, tq := range queries {
		q, err := builder.Build(tq.req)
		if err != nil {
			return nil, err
		}
		res, err := srv.Do(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("%s: in process: %w", tq.kind, err)
		}
		ref, err := reference(tq.kind.alg, q.Inputs, tq.alpha, loopIterations)
		if err != nil {
			return nil, err
		}
		if err := checkAnswer(ref, res.Values); err != nil {
			return nil, fmt.Errorf("%s: %w", tq.kind, err)
		}
		hashes[i] = res.ResultHash
	}
	return hashes, nil
}

func tenantOf(seed int64, op int) string {
	return tenants[rand.New(rand.NewSource(seed^int64(op)*2654435761)).Intn(len(tenants))]
}

func setupGatewayWarm(seed int64, sz sizing) (*instance, error) {
	mix := sz.mix(serveMix)
	queries := make([]tierQuery, len(mix))
	for i, k := range mix {
		queries[i] = algorithmRequest(k, seed)
	}
	hashes, err := checkInProcess(queries)
	if err != nil {
		return nil, err
	}
	t := startTier(0)
	in := newInstance(kindNames(mix))
	in.clients = 2
	in.schedule = passSchedule(len(queries), seed)
	in.counters = t.counters
	in.close = t.close
	in.run = func(ctx context.Context, key, op int, tr *tracer) (outcome, error) {
		root := tr.begin(op, "op", -1)
		o, err := t.query(ctx, tr, op, root, tenantOf(seed, op), queries[key].body)
		tr.end(root)
		o.done = time.Now()
		return o, err
	}
	err = in.warm(allKeys(len(queries)), func(key int, o *outcome) error {
		if o.hash != hashes[key] {
			return fmt.Errorf("wire result hash %016x differs from the in-process %016x", o.hash, hashes[key])
		}
		return nil
	})
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// Churn sizing: variants raw scripts per non-GNMF catalogue query, differing
// in a seed-drawn step size, against a plan cache of churnPlanEntries per
// shard — a working set larger than the cache, so the LRU evicts; every
// churnWriteEvery-th op is an invalidation, after two passes of the ten
// query kinds.
const (
	churnVariants    = 6
	churnPlanEntries = 16
	churnWriteEvery  = 21
)

func setupGatewayChurn(seed int64, sz sizing) (*instance, error) {
	mix := sz.mix(serveMix)
	rng := rand.New(rand.NewSource(seed))
	var queries []tierQuery
	// A least-squares kind is two latency groups: its first variant, whose
	// plan stays cached, and the others, which compile (see the schedule). One
	// group over both would have its median on the gap between the two.
	names, _ := kindNames(mix)
	var keyKind []int
	// warmKeys holds the first key of every kind: checked against the
	// reference in process, then used to warm the shards. The other variants
	// first run — and miss the plan cache — inside the measured window.
	var warmKeys []int
	var bases []string
	seen := map[string]bool{}
	for ki, k := range mix {
		if ds := datasetName(k.base, seed); !seen[ds] {
			seen[ds] = true
			bases = append(bases, ds)
		}
		warmKeys = append(warmKeys, len(queries))
		if k.alg == algorithms.GNMF { // raw scripts bind the least-squares symbols only
			queries, keyKind = append(queries, algorithmRequest(k, seed)), append(keyKind, ki)
			continue
		}
		script, err := algorithms.Script(k.alg, loopIterations)
		if err != nil {
			return nil, err
		}
		names = append(names, k.String()+" plan miss")
		for v := 0; v < churnVariants; v++ {
			group := ki
			if v > 0 {
				group = len(names) - 1
			}
			alpha := defaultAlpha * (1 + float64(rng.Intn(9000)+1)/10000)
			req := httpapi.QueryRequest{
				Script:  strings.Replace(script, "alpha = 0.0001", fmt.Sprintf("alpha = %g", alpha), 1),
				Dataset: datasetName(k.base, seed), Iterations: loopIterations,
			}
			body, _ := json.Marshal(req)
			queries, keyKind = append(queries, tierQuery{kind: k, alpha: alpha, body: body, req: req}), append(keyKind, group)
		}
	}
	checked := make([]tierQuery, len(warmKeys))
	for i, key := range warmKeys {
		checked[i] = queries[key]
	}
	hashes, err := checkInProcess(checked)
	if err != nil {
		return nil, err
	}
	writeKey := len(queries)
	in := newInstance(append(names, "invalidate"), append(keyKind, len(names)))
	in.writeKind = len(names)
	in.blockOps, in.blockQueries = churnWriteEvery, churnWriteEvery-1
	t := startTier(churnPlanEntries)
	in.counters = t.counters
	in.close = t.close
	// Every churnWriteEvery-th op is a write. The queries between writes
	// visit every kind once per pass, in seeded order. A kind alternates
	// between its first variant, which comes back soon enough to hit the plan
	// cache, and the others in turn, which come back after the cache has
	// turned over and miss; the kinds are staggered, so every pass compiles
	// for half of them and every block holds the same work under every seed.
	kindOrder := passSchedule(len(mix), seed)
	in.schedule = func(i int) int {
		if i%churnWriteEvery == churnWriteEvery-1 {
			return writeKey
		}
		q := i - i/churnWriteEvery
		pass, ki := q/len(mix), kindOrder(q)
		last := len(queries)
		if ki+1 < len(warmKeys) {
			last = warmKeys[ki+1]
		}
		first := warmKeys[ki]
		if (pass+ki)%2 == 0 || last-first == 1 {
			return first
		}
		return first + 1 + pass/2%(last-first-1)
	}
	in.run = func(ctx context.Context, key, op int, tr *tracer) (outcome, error) {
		root := tr.begin(op, "op", -1)
		defer tr.end(root)
		if key == writeKey {
			s := tr.begin(op, "gateway.invalidate", root)
			t.gw.InvalidateDataset(bases[(op/churnWriteEvery)%len(bases)])
			tr.end(s)
			return outcome{done: time.Now()}, nil
		}
		o, err := t.query(ctx, tr, op, root, tenantOf(seed, op), queries[key].body)
		o.done = time.Now()
		return o, err
	}
	wire := map[int]uint64{}
	for i, key := range warmKeys {
		wire[key] = hashes[i]
	}
	err = in.warm(warmKeys, func(key int, o *outcome) error {
		if o.hash != wire[key] {
			return fmt.Errorf("wire result hash %016x differs from the in-process %016x", o.hash, wire[key])
		}
		return nil
	})
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}
