// Package serve is the concurrent query-serving layer: a multi-session
// server that accepts DML programs, runs them on a bounded worker pool with
// admission queueing, per-query deadlines and graceful shutdown, and layers
// two cross-query caches over the compiler and engine:
//
//   - a compiled-plan cache (LRU over canonicalized program text + input
//     metadata + strategy and iteration count), so repeat queries skip the
//     search phase whose compile time Fig 8(a) measures, and
//   - a cross-query intermediate cache (byte-budgeted LRU keyed by canonical
//     expression + producer-plan signature, namespaced by dataset version),
//     so concurrent sessions against the same dataset reuse loop-constant
//     intermediates like AᵀA and Aᵀb instead of recomputing them.
//
// Every query plans with the MNC estimator and the DP combiner on the
// paper's seven-node testbed (cluster.DefaultConfig).
//
// The serving path is hardened by internal/resilience: every query runs
// panic-isolated (a panicking query degrades into a structured
// Internal-class QueryError, and a worker that somehow dies respawns), and
// admission runs through a circuit breaker in front of the bounded queue.
// Each admitted query executes once: a lost block is recovered inside the
// run (lineage, checkpoint or coded recovery), so no failure leaves the
// engine as one worth re-running. A keyed submission executes at most once
// within the idempotency window. Liveness and readiness are exposed via
// Healthz/Readyz and the resilience counters fold into the Metrics snapshot.
//
// Every query still executes on its own isolated simulated cluster and
// trace recorder; only immutable compiled plans and materialized
// loop-constant values are shared. Server-level metrics (QPS, latency
// percentiles, hit rates, queue depth) aggregate across queries and are
// exposed via Metrics for cmd/remac-serve's /stats endpoint.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"remac/internal/cluster"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/resilience"
	"remac/internal/sparsity"
)

// Errors returned by Do.
var (
	// ErrOverloaded reports an admission rejection — queue full or breaker
	// open; callers should back off and retry. Returned errors wrap it
	// inside an Overloaded-class resilience.QueryError whose RetryAfter
	// field hints when.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed reports a query submitted after Shutdown began. Returned
	// errors wrap it inside an Overloaded-class resilience.QueryError: the
	// instance takes no more work, another one may.
	ErrClosed = errors.New("serve: server closed")
)

// Config parameterizes a Server. The zero value picks sensible defaults;
// negative cache sizes disable the corresponding cache.
type Config struct {
	// ShardID labels this server instance in metrics snapshots. The gateway
	// tier sets it ("shard-0", …) so merged /stats can attribute per-shard
	// breakdowns; a standalone server may leave it empty.
	ShardID string
	// Workers bounds concurrently executing queries. Default
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds queries admitted but not yet running; submissions
	// beyond it fail fast with ErrOverloaded. Default 64.
	QueueDepth int
	// DefaultTimeout applies to queries without their own Timeout. Zero
	// means no deadline.
	DefaultTimeout time.Duration
	// PlanCacheEntries bounds the compiled-plan LRU. Default 128; negative
	// disables plan caching.
	PlanCacheEntries int
	// IntermediateBudgetBytes bounds the cross-query intermediate cache,
	// charged at the simulated cluster's modelled (virtual-scale) value
	// sizes. Default 4 GiB; negative disables intermediate caching.
	IntermediateBudgetBytes int64
	// Deprecated: BatchWindow is ignored. The intermediate cache is the one
	// cross-query source of loop-constant values.
	BatchWindow time.Duration `json:"-"`

	// Breaker configures the admission circuit breaker. The zero value
	// enables the resilience defaults.
	Breaker resilience.BreakerConfig
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 128
	}
	if c.IntermediateBudgetBytes == 0 {
		c.IntermediateBudgetBytes = 4 << 30
	}
	return c
}

// Probe is a chaos hook invoked at the start of a query's execution.
// Returning an error fails the query as an execution error, and a panic
// exercises the panic-isolation path.
type Probe func() error

// Query is one DML program submission.
type Query struct {
	// Script is the DML program text. Plan-cache keys use its canonical
	// token stream, so formatting and comments do not defeat caching.
	Script string
	// Inputs binds read() names to matrices (with virtual dimensions).
	Inputs map[string]engine.Input
	// Dataset identifies the logical dataset the inputs came from; it
	// namespaces the intermediate cache. Empty disables intermediate
	// caching for this query (no safe reuse identity).
	Dataset string
	// Strategy defaults to Adaptive (the zero value is NoElimination, so
	// the default is applied only when the whole field set is zero — use
	// NewQuery for the defaulted form). Iterations defaults to 15.
	Strategy   opt.Strategy
	Iterations int
	// Timeout overrides the server's DefaultTimeout when positive.
	Timeout time.Duration
	// MaxIterations overrides the engine's runaway-loop cap when positive.
	MaxIterations int
	// Faults injects a deterministic fault schedule into this query's
	// simulated cluster (cost accounting only — results stay bitwise
	// identical to a fault-free run). Use Plan.Derive to give each member
	// of a concurrent storm its own sub-stream.
	Faults *fault.Plan
	// Recovery selects the recovery policy for this query's run: lineage
	// recomputation (zero value), DFS checkpoints, or k-of-n coded
	// recovery (see engine.RecoveryPolicy).
	Recovery engine.RecoveryPolicy
	// Verify selects the integrity verification mode for this query's run
	// (see engine.RunOptions.Verify): detected corruptions repair through
	// lineage, unrepairable ones fail with an Integrity-class error. A
	// query whose Faults schedule corruption with Verify off takes no part
	// in reuse (reuseEligible).
	Verify integrity.VerifyMode
	// NaNGuard selects the non-finite scan cadence (see
	// engine.RunOptions.NaNGuard); caught poison fails with a Numeric-class
	// error instead of a silently wrong result.
	NaNGuard integrity.GuardMode
	// NoPlanCache / NoIntermediateCache opt this query out of the shared
	// caches: the cold reference the cache-correctness tests compare warm
	// runs against, and the no_plan_cache / no_intermediate_cache fields of
	// POST /query, which a remote shard receives as sent.
	NoPlanCache         bool
	NoIntermediateCache bool
	// Probe, when non-nil, runs at the start of the execution (chaos/fault
	// testing; see Probe).
	Probe Probe
	// IdempotencyKey deduplicates retried submissions: two Do calls with
	// the same non-empty key within the server's idempotency window (the
	// last 1024 completed keys) execute the plan at most once — the second
	// replays the first's result bitwise-identically (or coalesces onto it
	// while in flight). The gateway tier stamps its request id here so a
	// wire retry after a lost response cannot re-execute (and re-charge) the
	// plan. Empty disables deduplication for this query.
	IdempotencyKey string
	// Algorithm is wire metadata: the workload name the query was built
	// from (empty for raw-script submissions). The serving path ignores it
	// — Script is what executes — but a remote transport re-submitting
	// this query over HTTP needs it to rebuild the same input bindings on
	// the far side.
	Algorithm string
}

// NewQuery returns a Query with the library defaults: adaptive strategy,
// 15 expected iterations.
func NewQuery(script string, inputs map[string]engine.Input) Query {
	return Query{Script: script, Inputs: inputs, Strategy: opt.Adaptive, Iterations: 15}
}

// Record is what a query's outcome says about its run, and what the wire
// carries of it field for field: QueryResult and httpapi.QueryResponse both
// embed it, so a field added here travels without a line of copying. The
// JSON names are the wire's.
type Record struct {
	// Iterations executed.
	Iterations int `json:"iterations"`
	// SimulatedSec is the modelled execution time on the query's isolated
	// simulated cluster; ComputeSec/TransmitSec split it.
	SimulatedSec float64 `json:"simulated_sec"`
	ComputeSec   float64 `json:"compute_sec"`
	TransmitSec  float64 `json:"transmit_sec"`
	// CompileSec is the real time this query spent obtaining its plan: a
	// full compilation on a plan-cache miss, a lookup on a hit.
	CompileSec float64 `json:"compile_sec"`
	// WallSec is the real end-to-end execution time of the query body
	// (compile, run, and the result digest: every value's summary and the
	// result hash), excluding queueing.
	WallSec float64 `json:"wall_sec"`
	// PlanCacheHit marks a compiled-plan reuse.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// IntermediateHits/Misses count cross-query LSE cache consultations.
	IntermediateHits   int `json:"intermediate_hits"`
	IntermediateMisses int `json:"intermediate_misses"`
	// CodedRecoveries / DecodeSec / EncodeFLOP report the coded-recovery
	// accounting of the run: k-of-n decodes performed (no recomputation),
	// their simulated decode time, and the parity-encoding work charged.
	CodedRecoveries int     `json:"coded_recoveries,omitempty"`
	DecodeSec       float64 `json:"decode_sec,omitempty"`
	EncodeFLOP      float64 `json:"encode_flop,omitempty"`
	// SelectedKeys are the applied elimination option keys (sorted).
	SelectedKeys []string `json:"selected_keys,omitempty"`
	// FLOP is the total floating-point work charged to this query's
	// simulated cluster. Adopting a cached loop-constant value charges
	// nothing.
	FLOP float64 `json:"flop,omitempty"`
	// Replayed marks a result served from the idempotency window (or a
	// coalesced duplicate of an in-flight leader) rather than a fresh
	// execution.
	Replayed bool `json:"replayed,omitempty"`
}

// QueryResult is the outcome of one served query: its Record, and what
// stays on this side of the wire or crosses it converted.
type QueryResult struct {
	Record
	// QueryID is the server-assigned id (also carried by QueryErrors).
	QueryID uint64
	// Values holds the final variable bindings' materialized matrices, until
	// Release: empty afterwards, here and in every later replay.
	Values map[string]*matrix.Matrix
	// CorruptionsInjected / CorruptionsDetected / IntegrityRepairs report
	// the run's integrity accounting: payload corruptions that landed, how
	// many the enabled verification mode caught (digest + ABFT), and the
	// lineage repair attempts they cost.
	CorruptionsInjected, CorruptionsDetected, IntegrityRepairs int
	// ResultHash is the identity of Values (integrity.DigestValues): two
	// results hash equal iff they bind the same names to matrices of the
	// same shape with the same nonzero cells bit for bit, whatever their
	// storage format; the sign of a zero is not part of it. A replayed
	// result carries the original's hash; a remote result carries the hash
	// computed by the shard that executed the plan. It outlives Release.
	ResultHash uint64
	// Summaries describes every result variable without its cells — shape
	// and norm, what the wire ships in place of Values. An execution fills it
	// from the summary each matrix carries (integrity.Summarise), a remote
	// result has nothing else; it outlives Release.
	Summaries map[string]ValueSummary

	// cells is what Release gives back; the result shares it with its replays.
	cells *resultCells
}

// resultCells is the hold a result and every replay of it have on the cells
// behind Values: the run that made them, until the first Release.
type resultCells struct {
	mu    sync.Mutex
	run   *engine.Result // nil once released
	first *QueryResult   // the result the execution returned, which the replay window keeps
}

// Release says the holder is done with the cells: nothing will read Values
// again, through this result or through a replay handed out earlier (what
// the wire ships is Summaries and ResultHash, which stay). The buffers of the
// values the run made go back to later runs (engine.Result.Release), Values
// empties, and a replay made from now on has none either. Idempotent, and
// safe to call from every holder of the same result at once. The HTTP
// handlers call it once the reply is written; an in-process caller that
// wants Values simply never does.
func (r *QueryResult) Release() {
	c := r.cells
	if c == nil {
		return // a relayed remote result: summaries only
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Values, c.first.Values = nil, nil
	if c.run != nil {
		c.run.Release()
		c.run = nil
	}
}

// ValueSummary reports a result variable without shipping its cells.
type ValueSummary struct {
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Frobenius float64 `json:"frobenius_norm"`
}

// MarshalJSON encodes a non-finite norm as a string: encoding/json
// rejects NaN/Inf outright, and a diverged solve's summary must still
// cross the wire rather than kill the whole response with a 500.
func (v ValueSummary) MarshalJSON() ([]byte, error) {
	type wire struct {
		Rows      int         `json:"rows"`
		Cols      int         `json:"cols"`
		Frobenius interface{} `json:"frobenius_norm"`
	}
	w := wire{Rows: v.Rows, Cols: v.Cols, Frobenius: v.Frobenius}
	switch {
	case math.IsNaN(v.Frobenius):
		w.Frobenius = "NaN"
	case math.IsInf(v.Frobenius, 1):
		w.Frobenius = "+Inf"
	case math.IsInf(v.Frobenius, -1):
		w.Frobenius = "-Inf"
	}
	return json.Marshal(w)
}

// UnmarshalJSON accepts both the numeric and the string-encoded
// non-finite forms of the norm.
func (v *ValueSummary) UnmarshalJSON(b []byte) error {
	var w struct {
		Rows      int             `json:"rows"`
		Cols      int             `json:"cols"`
		Frobenius json.RawMessage `json:"frobenius_norm"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	v.Rows, v.Cols, v.Frobenius = w.Rows, w.Cols, 0
	if len(w.Frobenius) == 0 {
		return nil
	}
	if err := json.Unmarshal(w.Frobenius, &v.Frobenius); err == nil {
		return nil
	}
	var s string
	if err := json.Unmarshal(w.Frobenius, &s); err != nil {
		return err
	}
	switch s {
	case "NaN":
		v.Frobenius = math.NaN()
	case "+Inf", "Inf":
		v.Frobenius = math.Inf(1)
	case "-Inf":
		v.Frobenius = math.Inf(-1)
	default:
		return fmt.Errorf("serve: unrecognized frobenius_norm %q", s)
	}
	return nil
}

type jobOut struct {
	res *QueryResult
	err error
}

type job struct {
	id  uint64
	ctx context.Context
	q   Query
	out chan jobOut // buffered: workers never block on abandoned callers
}

// Server is a concurrent query server. Create with New, submit with Do,
// stop with Shutdown.
type Server struct {
	cfg     Config
	queue   chan *job
	wg      sync.WaitGroup
	metrics *metrics
	breaker *resilience.Breaker

	nextID atomic.Uint64

	mu       sync.Mutex
	closed   bool
	versions map[string]int64

	plans *planCache
	inter *interCache
	idem  *idemWindow
}

// New starts a server with cfg.Workers executor goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		metrics:  newMetrics(),
		breaker:  resilience.NewBreaker(cfg.Breaker),
		versions: map[string]int64{},
		idem:     newIdemWindow(idemEntries),
	}
	if cfg.PlanCacheEntries > 0 {
		s.plans = newPlanCache(cfg.PlanCacheEntries)
	}
	if cfg.IntermediateBudgetBytes > 0 {
		s.inter = newInterCache(cfg.IntermediateBudgetBytes)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// canceledErr wraps a context failure into a Canceled-class QueryError that
// still matches errors.Is(err, engine.ErrCanceled).
func canceledErr(id uint64, stage string, cause error) error {
	return &resilience.QueryError{
		Class:   resilience.Canceled,
		QueryID: id,
		Stage:   stage,
		Err:     fmt.Errorf("serve: %w (%v)", engine.ErrCanceled, cause),
	}
}

// overloadedErr wraps an admission rejection into an Overloaded-class
// QueryError carrying the Retry-After hint.
func overloadedErr(id uint64, retryAfter time.Duration, cause error) error {
	return &resilience.QueryError{
		Class:      resilience.Overloaded,
		QueryID:    id,
		Stage:      "admission",
		Err:        cause,
		RetryAfter: retryAfter,
	}
}

// Do submits a query and blocks until it completes, fails, or ctx ends.
// Admission is non-blocking: the circuit breaker may reject first, and a
// full queue fails fast — both as Overloaded-class errors wrapping
// ErrOverloaded. When ctx ends first, Do returns a Canceled-class error
// wrapping engine.ErrCanceled and the in-flight work stops promptly on its
// own (the worker shares ctx).
//
// A query carrying an IdempotencyKey first consults the replay window:
// a completed duplicate replays the stored result without executing (or
// admitting — a replay is free and succeeds even while draining), and a
// duplicate racing its in-flight original coalesces onto the leader's
// outcome. Only the leader's failure propagates to coalesced waiters;
// after a failure the key is immediately retryable with a fresh execution.
func (s *Server) Do(ctx context.Context, q Query) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.IdempotencyKey == "" {
		return s.submit(ctx, q)
	}
	e, role := s.idem.begin(q.IdempotencyKey)
	switch role {
	case idemReplay:
		s.metrics.add(func(c *Snapshot) { c.IdemReplays++ })
		return replayOf(e), nil
	case idemWaiter:
		s.metrics.add(func(c *Snapshot) { c.IdemCoalesced++ })
		select {
		case <-e.done:
			if e.err != nil {
				return nil, e.err
			}
			return replayOf(e), nil
		case <-ctx.Done():
			return nil, canceledErr(s.nextID.Add(1), "idem-wait", ctx.Err())
		}
	}
	res, err := s.submit(ctx, q)
	s.idem.settle(e, res, err)
	return res, err
}

// submit is the admission-and-wait path of Do, below the idempotency
// window.
func (s *Server) submit(ctx context.Context, q Query) (*QueryResult, error) {
	id := s.nextID.Add(1)
	j := &job{id: id, ctx: ctx, q: q, out: make(chan jobOut, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, overloadedErr(id, 0, ErrClosed)
	}
	if ok, retryAfter := s.breaker.Admit(); !ok {
		s.mu.Unlock()
		s.metrics.add(func(c *Snapshot) { c.Shed++ })
		return nil, overloadedErr(id, retryAfter, ErrOverloaded)
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		s.metrics.add(func(c *Snapshot) { c.QueueDepth++ })
	default:
		s.mu.Unlock()
		s.metrics.add(func(c *Snapshot) { c.Rejected++ })
		s.breaker.Forgive()
		return nil, overloadedErr(id, 0, ErrOverloaded)
	}
	select {
	case o := <-j.out:
		return o.res, o.err
	case <-ctx.Done():
		return nil, canceledErr(id, "wait", ctx.Err())
	}
}

// Shutdown stops admission immediately, drains queued and in-flight
// queries, and returns when every worker has exited or ctx ends (returning
// ctx's error, with workers still draining in the background). Safe to
// call once; later Do calls fail with an Overloaded-class error wrapping
// ErrClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// InvalidateDataset bumps a dataset's version: cached intermediates keyed
// under older versions become unreachable and are dropped eagerly. Call it
// whenever the dataset's contents change.
func (s *Server) InvalidateDataset(id string) {
	s.mu.Lock()
	s.versions[id]++
	s.mu.Unlock()
	if s.inter != nil {
		s.inter.dropNamespace(namespacePrefix(id))
	}
}

// DatasetVersion returns the current version of a dataset id (0 until the
// first InvalidateDataset).
func (s *Server) DatasetVersion(id string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions[id]
}

// worker drains the admission queue. It is panic-isolated twice over: each
// query runs under its own recover (guarded), and a panic that somehow
// escapes that — a bug in the pool itself — is caught here, counted,
// and the worker respawned so capacity never silently decays. The
// wg.Add-before-Done ordering keeps Shutdown's WaitGroup balanced across a
// respawn.
func (s *Server) worker() {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.add(func(c *Snapshot) { c.WorkerRespawns++ })
			s.wg.Add(1)
			go s.worker()
		}
		s.wg.Done()
	}()
	for j := range s.queue {
		s.metrics.dequeued()
		if err := j.ctx.Err(); err != nil {
			// The caller's context expired while the query sat queued: it is
			// canceled, never executed — counted as such, and settled through
			// the buffered out channel so nothing leaks.
			cerr := canceledErr(j.id, "queued", err)
			s.metrics.finished(0, cerr)
			s.breaker.Forgive()
			j.out <- jobOut{err: cerr}
			continue
		}
		start := time.Now()
		res, err := s.run(j)
		s.metrics.finished(time.Since(start).Seconds(), err)
		s.recordOutcome(err)
		j.out <- jobOut{res: res, err: err}
	}
}

// recordOutcome feeds the breaker: only server-attributable failures
// (execution, internal) count against it; client-caused ones (canceled,
// compile errors, divergent loops) and overload release accounting without
// an outcome so a storm of bad queries cannot open the circuit.
func (s *Server) recordOutcome(err error) {
	if err == nil {
		s.breaker.Record(true)
		return
	}
	switch class, _ := resilience.ClassOf(err); class {
	case resilience.Execution, resilience.Internal, resilience.Integrity:
		s.breaker.Record(false)
	default:
		// Canceled, compile errors, divergent loops and numeric divergence
		// are client-caused; overload releases without an outcome.
		s.breaker.Forgive()
	}
}

// run executes a job once, under its deadline and its share of the
// request's attempt allowance.
func (s *Server) run(j *job) (*QueryResult, error) {
	timeout := j.q.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(j.ctx, timeout)
		defer cancel()
		j.ctx = ctx
	}
	// An allowance handed down in the context (minted by a gateway and
	// already debited by everything that ran before this shard) pays for the
	// execution; one with nothing left buys none. A query nobody upstream
	// bounded executes once all the same.
	if allow := resilience.AllowanceFrom(j.ctx); allow != nil && !allow.Take() {
		return nil, overloadedErr(j.id, time.Second, resilience.ErrAllowanceSpent)
	}
	return s.guarded(j)
}

// guarded is one panic-isolated execution: a panic anywhere in the probe,
// compiler or engine becomes an Internal-class QueryError with a redacted
// stack, and the worker survives.
func (s *Server) guarded(j *job) (res *QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.add(func(c *Snapshot) { c.PanicsRecovered++ })
			res, err = nil, resilience.PanicError(j.id, "execute", r, debug.Stack())
		}
	}()
	if j.q.Probe != nil {
		if perr := j.q.Probe(); perr != nil {
			return nil, s.classify(j.id, "execute", perr)
		}
	}
	r, e := s.execute(j.ctx, j)
	if e != nil {
		var qe *resilience.QueryError
		if errors.As(e, &qe) && qe.QueryID == 0 {
			qe.QueryID = j.id
		}
		return nil, e
	}
	r.QueryID = j.id
	return r, nil
}

// classify wraps a raw error into a QueryError with the right taxonomy
// class for its stage. Already-classified errors pass through.
func (s *Server) classify(id uint64, stage string, err error) error {
	if err == nil {
		return nil
	}
	var qe *resilience.QueryError
	if errors.As(err, &qe) {
		return err
	}
	class := resilience.Execution
	switch {
	case errors.Is(err, engine.ErrCanceled):
		class = resilience.Canceled
	case errors.Is(err, engine.ErrMaxIterations):
		class = resilience.MaxIterations
	case errors.Is(err, integrity.ErrCorruption):
		class = resilience.Integrity
	case errors.Is(err, integrity.ErrNonFinite):
		class = resilience.Numeric
	case stage == "compile", errors.As(err, new(*engine.RecoveryPolicyError)):
		// A policy the query's cluster cannot place is the client's to fix,
		// like a script that does not compile.
		class = resilience.Compile
	}
	return &resilience.QueryError{Class: class, QueryID: id, Stage: stage, Err: err}
}

// execute runs one query end to end: plan (cached or compiled), then
// execute on a fresh simulated cluster. A run reuseEligible admits gets the
// cross-query intermediate cache as its source of loop-constant values.
// Returned errors are classified (compile vs execution vs canceled vs
// max-iterations).
func (s *Server) execute(ctx context.Context, j *job) (*QueryResult, error) {
	q := j.q
	if q.Iterations == 0 {
		q.Iterations = 15
	}
	ocfg := opt.Config{
		Strategy:   q.Strategy,
		Estimator:  sparsity.MNC{},
		Combiner:   opt.DP,
		Cluster:    cluster.DefaultConfig(),
		Iterations: q.Iterations,
	}

	start := time.Now()
	compiled, compileSec, planHit, err := s.plan(ctx, q, ocfg)
	if err != nil {
		return nil, s.classify(0, "compile", err)
	}

	var lse engine.LSESource
	var view *interView
	if reuseEligible(q) && s.inter != nil {
		view = s.view(q.Dataset)
		lse = view
	}
	// Every engine run counts: the counter the remote chaos harness asserts
	// "zero duplicate executions" against.
	s.metrics.add(func(c *Snapshot) { c.Executions++ })
	res, err := engine.RunWithOptions(ctx, compiled, q.Inputs, nil, engine.RunOptions{
		MaxIter:  q.MaxIterations,
		Faults:   q.Faults,
		Recovery: q.Recovery,
		LSE:      lse,
		Verify:   q.Verify,
		NaNGuard: q.NaNGuard,
	})
	if err != nil {
		return nil, s.classify(0, "execute", err)
	}
	out := &QueryResult{
		Record: Record{
			Iterations:   res.Iterations,
			SimulatedSec: res.Stats.TotalTime(),
			ComputeSec:   res.Stats.ComputeTime,
			TransmitSec:  res.Stats.TransmitTime,
			CompileSec:   compileSec,
			PlanCacheHit: planHit,
		},
		Values:    map[string]*matrix.Matrix{},
		Summaries: map[string]ValueSummary{},
	}
	out.cells = &resultCells{run: res, first: out}
	for name, v := range res.Env {
		m := v.Data()
		out.Values[name] = m
		out.Summaries[name] = ValueSummary{Rows: m.Rows(), Cols: m.Cols(), Frobenius: math.Sqrt(integrity.Summarise(m).SumSq)}
	}
	out.ResultHash = HashValues(out.Values)
	out.WallSec = time.Since(start).Seconds()
	if compiled.Decision != nil {
		out.SelectedKeys = compiled.Decision.Keys()
	}
	if view != nil {
		out.IntermediateHits, out.IntermediateMisses = view.hits, view.misses
	}
	st := res.Stats
	out.FLOP = st.FLOP
	out.CorruptionsInjected = st.CorruptionsInjected
	out.CorruptionsDetected = st.CorruptionsDigest + st.CorruptionsABFT
	out.IntegrityRepairs = st.IntegrityRepairs
	out.CodedRecoveries = st.CodedRecoveries
	out.DecodeSec = st.DecodeSec
	out.EncodeFLOP = st.EncodeFLOP
	s.metrics.add(func(c *Snapshot) {
		c.InterHits += uint64(out.IntermediateHits)
		c.InterMisses += uint64(out.IntermediateMisses)
		c.CorruptionsInjected += uint64(st.CorruptionsInjected)
		c.CorruptionsDigest += uint64(st.CorruptionsDigest)
		c.CorruptionsABFT += uint64(st.CorruptionsABFT)
		c.IntegrityRepairs += uint64(st.IntegrityRepairs)
		c.RepairSec += st.RepairSec
		c.CodedRecoveries += uint64(st.CodedRecoveries)
		c.DecodeSec += st.DecodeSec
		c.EncodeFLOP += st.EncodeFLOP
	})
	return out, nil
}

// plan obtains the compiled plan for a query: from the plan cache when
// enabled (with in-flight compilations of the same key coalesced), else by
// compiling. The returned seconds measure what this query actually waited
// for its plan.
func (s *Server) plan(ctx context.Context, q Query, ocfg opt.Config) (*opt.Compiled, float64, bool, error) {
	compile := func() (*opt.Compiled, error) {
		prog, err := lang.Parse(q.Script)
		if err != nil {
			return nil, err
		}
		metas := map[string]sparsity.Meta{}
		for name, in := range q.Inputs {
			if in.Data == nil {
				return nil, fmt.Errorf("serve: input %q has nil data", name)
			}
			metas[name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
		}
		return opt.CompileCtx(ctx, prog, metas, ocfg)
	}
	start := time.Now()
	if s.plans == nil || q.NoPlanCache {
		c, err := compile()
		return c, time.Since(start).Seconds(), false, err
	}
	key, err := planKey(q)
	if err != nil {
		return nil, 0, false, err
	}
	c, hit, err := s.plans.getOrCompile(ctx, key, compile)
	if err != nil {
		return nil, 0, false, err
	}
	s.metrics.add(func(c *Snapshot) {
		if hit {
			c.PlanHits++
		} else {
			c.PlanMisses++
		}
	})
	return c, time.Since(start).Seconds(), hit, nil
}

// reuseEligible decides whether a query's run takes part in the intermediate
// cache at all. Reuse needs a dataset id to
// namespace values by, and a query may opt out (NoIntermediateCache). A run
// whose values may differ from a clean run's bits keeps them to itself: one
// injecting payload corruption with verification off — a verified value is
// repaired to the bitwise-clean result or fails typed, an unverified one may
// be silently damaged. Fail-stop faults only move the clock under every
// recovery policy, so they do not bar reuse.
func reuseEligible(q Query) bool {
	return q.Dataset != "" && !q.NoIntermediateCache &&
		!(q.Faults.SchedulesCorruption() && q.Verify == integrity.VerifyOff)
}

// view scopes a run's intermediate-cache keys: dataset@version. The version
// bound at query start makes an InvalidateDataset bump instantly
// unreachable.
func (s *Server) view(dataset string) *interView {
	v := s.DatasetVersion(dataset)
	return &interView{s: s, dataset: dataset, version: v, ns: namespacePrefix(dataset) + strconv.FormatInt(v, 10)}
}

func namespacePrefix(dataset string) string { return dataset + "@" }

// HashValues is the result identity carried as QueryResult.ResultHash:
// integrity.DigestValues, computed once per execution. The idempotency
// replay window and the remote transport's end-to-end chaos assertions
// compare it instead of cells.
func HashValues(values map[string]*matrix.Matrix) uint64 {
	return integrity.DigestValues(values)
}

// Metrics returns a point-in-time snapshot of the server's aggregate
// metrics, resilience counters included.
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.snapshot()
	snap.Shard = s.cfg.ShardID
	snap.IdemEntries = s.idem.entries()
	if s.plans != nil {
		snap.PlanEntries = s.plans.len()
	}
	if s.inter != nil {
		snap.InterEntries, snap.InterBytes = s.inter.usage()
	}
	snap.BreakerState = s.breaker.State().String()
	snap.Breaker = s.breaker.Counters()
	return snap
}
