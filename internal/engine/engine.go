// Package engine executes compiled programs on the simulated distributed
// runtime: it drives the loop, evaluates statement plans over distmat
// values, hoists loop-constant producers out of the loop (LSE), reuses
// common-subexpression results within an iteration (CSE), and accounts the
// phase breakdown (input partition / compilation / computation /
// transmission) the paper's Fig 12 reports.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"remac/internal/chain"
	"remac/internal/cluster"
	"remac/internal/costgraph"
	"remac/internal/distmat"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/plan"
	"remac/internal/search"
	"remac/internal/trace"
)

// Input pairs a materialized matrix with its virtual dimensions (paper
// scale). Zero virtual dims default to the actual ones.
type Input struct {
	Data         *matrix.Matrix
	VRows, VCols int64
}

// Result is the outcome of a run.
type Result struct {
	// Env holds the final variable bindings.
	Env map[string]*distmat.DistMatrix
	// Stats is the simulated cluster accounting for the whole run.
	Stats cluster.Stats
	// Iterations actually executed.
	Iterations int
	// InputPartitionSec is the simulated time spent reading and
	// partitioning inputs (Fig 12's first phase).
	InputPartitionSec float64
	// CompileSec is the real compilation time, reported alongside the
	// simulated execution phases.
	CompileSec float64
	// Trace is the span recorder the run was given (nil for untraced runs).
	Trace *trace.Recorder

	// ctx is the run's context, whose free list Release fills.
	ctx *distmat.Context
}

// TotalSec returns the simulated execution time plus compilation.
func (r *Result) TotalSec() float64 { return r.Stats.TotalTime() + r.CompileSec }

// Release ends the result: the caller vouches that nobody will read a cell of
// Env again, through the values or through a matrix one of them gave out.
// The names are all that held the values the run made and bound, so each of
// those is retired like a rebound name's previous value, and the buffers go
// to later runs (distmat: Retire, HandOver). What something else holds — an
// input, an intermediate-cache entry, a value published to sibling runs or
// checkpointed, a lender — Retire leaves as it is. Env keeps the names; the
// retired values are empty and panic on use. Call it once, from one goroutine.
func (r *Result) Release() {
	for _, v := range r.Env {
		v.Retire()
	}
	r.ctx.HandOver()
}

// MaxIterations caps runaway loops (misconfigured conditions).
const MaxIterations = 100000

// ErrMaxIterations reports a loop whose condition never turned false before
// the iteration cap. Returned errors wrap it and carry the cap:
//
//	errors.Is(err, engine.ErrMaxIterations)
//	var me *engine.MaxIterationsError // me.Iterations is the cap hit
var ErrMaxIterations = errors.New("engine: loop exceeded max iterations")

// MaxIterationsError is the concrete error wrapping ErrMaxIterations; it
// carries the iteration cap that was exceeded.
type MaxIterationsError struct{ Iterations int }

func (e *MaxIterationsError) Error() string {
	return fmt.Sprintf("engine: loop exceeded %d iterations", e.Iterations)
}

func (e *MaxIterationsError) Unwrap() error { return ErrMaxIterations }

// ErrCanceled reports a run abandoned because its context was cancelled or
// its deadline expired. It is the same sentinel opt.CompileCtx wraps, so a
// serving layer can match compile- and run-phase cancellation with one
// errors.Is(err, engine.ErrCanceled) check.
var ErrCanceled = opt.ErrCanceled

// IntermediateCache is a cross-run store for loop-constant (LSE) values,
// each an Input: the materialized matrix plus the virtual dimensions the
// cost model accounts it at. The engine consults it before computing an LSE
// producer and offers the computed value back; keys are the option's
// canonical expression key plus the producer plan's shape signature, so a
// hit is guaranteed to stand for the bitwise-identical sequence of kernel
// executions. Callers that share one cache across runs must namespace keys
// by dataset version and cluster configuration (see internal/serve) and may
// need to synchronize: the engine calls Get/Put from the run's own goroutine.
type IntermediateCache interface {
	Get(key string) (Input, bool)
	Put(key string, v Input)
}

// SharedRole is the outcome of a SharedProducers.Acquire call.
type SharedRole int

const (
	// SharedHit: the returned Input is valid; the caller adopts it
	// instead of computing.
	SharedHit SharedRole = iota
	// SharedLead: the caller must compute the value and settle its claim
	// with Publish (success) or Fail (error).
	SharedLead
	// SharedSolo: no sharing for this key — compute locally and do not
	// publish. Coordinators return it to break potential wait cycles.
	SharedSolo
)

// SharedProducers coordinates loop-constant (LSE) producer executions
// across concurrently running sibling queries — multi-query optimization,
// the mid-batch counterpart of the cross-run IntermediateCache. Before
// computing an LSE producer the engine Acquires its key: it either adopts
// a value a sibling produced (possibly blocking until that production
// settles), becomes the leader that produces it for the whole batch, or is
// told to compute solo. A leader settles with Publish — the value plus the
// FLOP the production charged, which adopters report as savings — or Fail,
// whose error the coordinator propagates typed to every waiting consumer.
// Keys are exactly the IntermediateCache keys (canonical expression key +
// producer-plan signature), so an adopted value is guaranteed to stand for
// the bitwise-identical kernel sequence this run would have executed.
type SharedProducers interface {
	Acquire(ctx context.Context, key string) (Input, SharedRole, error)
	Publish(key string, v Input, flop float64)
	Fail(key string, err error)
}

// RunOptions configures the run-time (as opposed to compile-time) behavior
// of an execution: fault injection and the recovery policy. The zero value
// reproduces a perfect cluster — no faults, no checkpointing — with zero
// accounting overhead.
type RunOptions struct {
	// Faults schedules deterministic worker failures, transmission errors
	// and stragglers against the simulated clock. Nil disables injection.
	Faults *fault.Plan
	// Recovery selects how blocks lost to injected worker failures are
	// rebuilt: lineage recomputation (the zero value), DFS checkpoints of
	// LSE-hoisted intermediates, or k-of-n coded recovery. See
	// RecoveryPolicy.
	Recovery RecoveryPolicy
	// MaxIter overrides MaxIterations when positive.
	MaxIter int
	// Intermediates, when non-nil, is a cross-run cache consulted for
	// loop-constant (LSE) values before computing them; newly computed
	// values are offered back. See IntermediateCache.
	Intermediates IntermediateCache
	// Shared, when non-nil, coordinates LSE producer executions with
	// concurrently running sibling queries (multi-query optimization). It
	// is consulted after Intermediates misses. See SharedProducers.
	Shared SharedProducers
	// Verify selects the integrity verification mode: off, block digests on
	// every charged transmission and DFS read, or digests plus ABFT checksum
	// validation of distributed multiplies. Verification work is charged to
	// the simulated clock; detected corruptions repair through lineage, and
	// unrepairable ones fail the run with a typed integrity error.
	Verify integrity.VerifyMode
	// NaNGuard selects the non-finite scan cadence (off, per iteration, per
	// operator); a NaN or Inf caught by the guard fails the run with a
	// typed numeric error instead of propagating poison.
	NaNGuard integrity.GuardMode
}

// RunWithOptions executes a compiled program over the given inputs on a fresh
// simulated cluster; the zero RunOptions is a perfect cluster. With a trace
// recorder attached every charged operator emits a span, and
// statement/iteration boundaries enclose them as group spans; a nil recorder
// disables tracing. Injected fail-stop faults only ever affect cost
// accounting — kernels execute for real, so the result matrices are
// numerically identical to a fault-free run. Injected corruptions are the
// exception: a flipped bit that escapes the enabled
// verification mode really damages the affected value, while a detected one
// is repaired (at a charged lineage cost) back to the bitwise-identical
// clean payload, or fails the run with an error wrapping
// integrity.ErrCorruption when the bounded repair budget exhausts. The
// context is checked at every plan-node evaluation; when it is cancelled or
// its deadline passes, the run stops promptly and returns an error wrapping
// ErrCanceled.
func RunWithOptions(goCtx context.Context, c *opt.Compiled, inputs map[string]Input, rec *trace.Recorder, opts RunOptions) (*Result, error) {
	e, err := newExecutor(goCtx, c, inputs, rec, opts)
	if err != nil {
		return nil, err
	}
	return e.run()
}

func newExecutor(goCtx context.Context, c *opt.Compiled, inputs map[string]Input, rec *trace.Recorder, opts RunOptions) (*executor, error) {
	rp, err := opts.Recovery.Normalize()
	if err != nil {
		return nil, err
	}
	cl := cluster.New(c.Config.Cluster)
	ctx := distmat.NewContext(cl)
	ctx.Recorder = rec
	ctx.Verify = opts.Verify
	ctx.NaNGuard = opts.NaNGuard
	if opts.Faults.Enabled() {
		ctx.EnableFaults(opts.Faults)
	}
	if rp.Kind == RecoverCoded {
		ctx.EnableCoded(rp.K, rp.N)
	}
	e := &executor{
		c:          c,
		goCtx:      goCtx,
		ctx:        ctx,
		rec:        rec,
		env:        map[string]*distmat.DistMatrix{},
		inputs:     inputs,
		lseCache:   map[string]*distmat.DistMatrix{},
		checkpoint: rp.Kind == RecoverCheckpoint,
		inter:      opts.Intermediates,
		shared:     opts.Shared,
		maxIter:    MaxIterations,
		guard:      opts.NaNGuard,
	}
	if opts.MaxIter > 0 {
		e.maxIter = opts.MaxIter
	}
	if err := e.prepare(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *executor) run() (*Result, error) {
	c, ctx, rec, maxIter := e.c, e.ctx, e.rec, e.maxIter

	// Pre-loop statements.
	for _, sp := range c.Plans.Pre {
		if err := e.execStmtTraced(sp); err != nil {
			return nil, err
		}
	}

	iterations := 0
	if c.Plans.Loop != nil {
		for iterations < maxIter {
			if err := e.canceled(); err != nil {
				return nil, err
			}
			ok, err := e.cond(c.Plans.Loop.Cond)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			id := rec.Begin("iteration", fmt.Sprintf("iteration %d", iterations+1))
			err = e.iteration()
			if err == nil && e.guard == integrity.GuardPerIteration {
				e.guardIteration()
			}
			rec.End(id)
			if err != nil {
				return nil, err
			}
			if err := ctx.IntegrityErr(); err != nil {
				return nil, err
			}
			iterations++
			if e.afterIteration != nil {
				e.afterIteration()
			}
		}
		if iterations >= maxIter {
			return nil, &MaxIterationsError{Iterations: maxIter}
		}
	}
	for _, sp := range c.Plans.Post {
		if err := e.execStmtTraced(sp); err != nil {
			return nil, err
		}
	}
	// A corruption or NaN surfaced by the final operator has no later
	// evaluation to fail — a poisoned run must never return success.
	if err := ctx.IntegrityErr(); err != nil {
		return nil, err
	}
	// What the run returns is reachable from Env; what is idle is not, and the
	// next run's first n×n result goes where this run's last dead one was.
	ctx.HandOver()
	return &Result{
		Env:               e.env,
		Stats:             ctx.Cluster.Stats(),
		Iterations:        iterations,
		InputPartitionSec: ctx.PartitionSec,
		CompileSec:        c.TotalTime.Seconds(),
		Trace:             rec,
		ctx:               ctx,
	}, nil
}

type executor struct {
	c      *opt.Compiled
	goCtx  context.Context
	ctx    *distmat.Context
	rec    *trace.Recorder
	env    map[string]*distmat.DistMatrix
	inputs map[string]Input

	// inter is the optional cross-run LSE value cache (RunOptions).
	inter IntermediateCache
	// shared is the optional mid-batch producer coordinator (RunOptions).
	shared SharedProducers

	// explicitKeys marks subtree keys stock SystemDS would reuse
	// (Explicit strategy only).
	explicitKeys map[string]bool

	// blockByOrigin finds the resolved plan for a chain region during
	// normalized-tree evaluation.
	blockByOrigin map[*plan.Node]*costgraph.BlockPlan
	// producers maps option keys to their producer plans.
	producers map[string]*costgraph.ProducerPlan

	// lseCache persists across iterations; cseCache and subtreeCache are
	// per-iteration; transCache memoizes fused transposes per value.
	lseCache     map[string]*distmat.DistMatrix
	cseCache     map[string]*distmat.DistMatrix
	subtreeCache map[string]cachedSubtree
	transCache   map[*distmat.DistMatrix]*distmat.DistMatrix

	// checkpoint persists LSE values to DFS on first computation
	// (RecoverCheckpoint).
	checkpoint bool
	// maxIter caps the loop; guard is the non-finite scan cadence.
	maxIter int
	guard   integrity.GuardMode

	// afterIteration, when set (by the ownership tests), runs after every
	// completed iteration, and afterRetire on every buffer a rebound name's
	// previous value gave up.
	afterIteration func()
	afterRetire    func(buf []float64)
}

// cachedSubtree is an explicit-CSE cache entry: the value plus the
// variables it depends on, so reassignments invalidate it.
type cachedSubtree struct {
	v    *distmat.DistMatrix
	refs map[string]bool
}

func (e *executor) prepare() error {
	c := e.c
	// Explicit applies stock SystemDS's identical-subtree CSE; the
	// conservative strategy subsumes it ("applies CSE after all
	// optimizations improving the operator order", §6.3.1), so both enable
	// the as-written span cache.
	if c.Config.Strategy == opt.Explicit || c.Config.Strategy == opt.Conservative {
		e.explicitKeys = map[string]bool{}
		var roots []*plan.Node
		for _, sp := range c.Plans.Body {
			roots = append(roots, sp.Raw)
		}
		for key := range plan.ExplicitCSEKeys(roots) {
			e.explicitKeys[key] = true
		}
	}
	if c.Decision != nil {
		e.blockByOrigin = map[*plan.Node]*costgraph.BlockPlan{}
		for _, bp := range c.Decision.BlockPlans {
			e.blockByOrigin[bp.Block.Origin] = bp
		}
		e.producers = map[string]*costgraph.ProducerPlan{}
		for _, pp := range c.Decision.Producers {
			e.producers[pp.Option.Key] = pp
		}
	}
	return nil
}

// iteration runs one loop-body pass.
func (e *executor) iteration() error {
	e.cseCache = map[string]*distmat.DistMatrix{}
	e.subtreeCache = map[string]cachedSubtree{}

	if e.c.UsesRawBody {
		// SystemDS-style: every statement executes its raw tree through
		// cost-ordered chain plans; assignments invalidate cached values.
		for i, sp := range e.c.Plans.Body {
			id := e.rec.Begin("stmt", sp.Target)
			v, err := e.eval(e.c.NormalizedBody[i])
			e.rec.End(id)
			if err != nil {
				return fmt.Errorf("engine: %s: %w", sp.Target, err)
			}
			e.bind(sp.Target, v)
			e.invalidate(sp.Target)
		}
		return nil
	}

	norm := 0
	for _, sp := range e.c.Plans.Body {
		if sp.Inlined {
			continue // absorbed into downstream normalized trees
		}
		tree := e.c.NormalizedBody[norm]
		norm++
		id := e.rec.Begin("stmt", sp.Target)
		v, err := e.eval(tree)
		e.rec.End(id)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", sp.Target, err)
		}
		// Bind the versioned symbol: inlined references to the pre-update
		// value keep resolving to the old binding until the end-of-
		// iteration promotion below.
		e.bind(sp.TargetSym, v)
		if sp.TargetSym == sp.Target {
			// Unversioned rebinds (e.g. the per-iteration gradient)
			// invalidate cached spans that referenced the old value.
			e.invalidate(sp.Target)
		}
	}
	// Promote versioned bindings so the next iteration (and the loop
	// condition) sees the updated values.
	for _, sp := range e.c.Plans.Body {
		if sp.Inlined || sp.TargetSym == sp.Target {
			continue
		}
		if v, ok := e.env[sp.TargetSym]; ok {
			e.bind(sp.Target, v)
		}
	}
	return nil
}

// guardIteration runs the per-iteration non-finite scan over the bound
// values (sorted, versioned aliases skipped — they share the bindings their
// base names resolve to). The scan charges the pass and records the first
// poison found as the context's typed numeric error.
func (e *executor) guardIteration() {
	names := make([]string, 0, len(e.env))
	for name := range e.env {
		if baseSym(name) == name {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		e.env[name].GuardValue(name)
	}
}

// bind binds name to v. A bound value is retained — by the environment, and
// by Result.Env after the run — so it stops being a temporary here, and a
// deferred one (distmat: deferred.go) is materialised: Pin does both, and v
// was the last expression that could read the value the name held before.
// That value is dead once no name holds it (versioned and base names may hold
// the same one: the H#1 bind ends nothing, the promotion does): its fused
// transpose goes, since transCache is reached through bound values alone, and
// the value itself is retired — recycled if the run made it and nothing but
// names ever retained it, left alone if it is an input, a cache hit, a cached
// or published value, or still read by an unevaluated expression in one of
// the reuse caches (distmat: Retire).
func (e *executor) bind(name string, v *distmat.DistMatrix) {
	old := e.env[name]
	e.env[name] = v.Pin()
	if old == nil || old == v {
		return
	}
	for _, held := range e.env {
		if held == old {
			return
		}
	}
	delete(e.transCache, old)
	if buf := old.Retire(); buf != nil && e.afterRetire != nil {
		e.afterRetire(buf)
	}
}

// invalidate drops cached values that referenced the reassigned variable.
func (e *executor) invalidate(name string) {
	for key, entry := range e.subtreeCache {
		if entry.refs[name] {
			delete(e.subtreeCache, key)
		}
	}
}

// execStmtTraced runs execStmtOriginal inside a statement group span.
func (e *executor) execStmtTraced(sp plan.StmtPlan) error {
	id := e.rec.Begin("stmt", sp.Target)
	err := e.execStmtOriginal(sp)
	e.rec.End(id)
	return err
}

// execStmtOriginal evaluates a statement's as-written (uninlined) tree —
// SystemDS-style statement-by-statement execution, optionally with the
// explicit-CSE subtree cache.
func (e *executor) execStmtOriginal(sp plan.StmtPlan) error {
	v, err := e.eval(sp.Raw)
	if err != nil {
		return fmt.Errorf("engine: %s: %w", sp.Target, err)
	}
	e.bind(sp.Target, v)
	// An assignment invalidates cached subtrees that referenced the
	// variable's previous value (SystemDS's CSE never unifies values from
	// different program points).
	e.invalidate(sp.Target)
	return nil
}

// canceled returns the wrapped ErrCanceled when the run's context is done.
// It is checked at every plan-node evaluation, bounding the latency of a
// cancellation to one kernel execution.
func (e *executor) canceled() error {
	if e.goCtx == nil {
		return nil
	}
	if err := e.goCtx.Err(); err != nil {
		return fmt.Errorf("engine: run: %w (%v)", ErrCanceled, err)
	}
	return nil
}

// eval evaluates a plan tree over the runtime environment. Chain regions
// with resolved block plans evaluate through them (reuse caches included);
// everything else evaluates structurally.
func (e *executor) eval(n *plan.Node) (*distmat.DistMatrix, error) {
	if err := e.canceled(); err != nil {
		return nil, err
	}
	if err := e.ctx.IntegrityErr(); err != nil {
		return nil, err
	}
	if bp, ok := e.blockByOrigin[n]; ok {
		return e.evalBlock(bp)
	}
	if e.explicitKeys != nil && len(n.Kids) > 0 {
		if entry, ok := e.subtreeCache[n.Key()]; ok {
			return entry.v, nil
		}
	}
	v, err := e.evalStructural(n)
	if err != nil {
		return nil, err
	}
	if e.explicitKeys != nil && e.explicitKeys[n.Key()] {
		refs := map[string]bool{}
		n.Walk(func(c *plan.Node) {
			if c.Kind == plan.Leaf {
				refs[baseSym(c.Sym)] = true
			}
		})
		e.subtreeCache[n.Key()] = cachedSubtree{v: v.Retain(), refs: refs}
	}
	return v, nil
}

func (e *executor) evalStructural(n *plan.Node) (*distmat.DistMatrix, error) {
	switch n.Kind {
	case plan.Leaf:
		return e.lookup(n.Sym)
	case plan.Const:
		return e.scalar(n.Val), nil
	case plan.Trans:
		x, err := e.eval(n.L())
		if err != nil {
			return nil, err
		}
		if n.L().Kind == plan.Leaf {
			// Leaf transposes are fused into consumers, like chain atoms.
			return e.fusedTranspose(x), nil
		}
		return x.Transpose().Temp(), nil
	case plan.Neg:
		x, err := e.eval(n.L())
		if err != nil {
			return nil, err
		}
		return x.Scale(-1).Temp(), nil
	case plan.SumAll:
		x, err := e.eval(n.L())
		if err != nil {
			return nil, err
		}
		return e.scalar(x.Sum()), nil
	case plan.AsScalar:
		x, err := e.eval(n.L())
		if err != nil {
			return nil, err
		}
		if !x.IsScalar() {
			rows, cols := x.Dims()
			return nil, fmt.Errorf("as.scalar of %dx%d matrix", rows, cols)
		}
		return x, nil
	case plan.NRows, plan.NCols:
		// Dimension queries resolve against the bound value; a leaf operand
		// is the common case and costs nothing.
		x, err := e.eval(n.L())
		if err != nil {
			return nil, err
		}
		rows, cols := x.Dims()
		if n.Kind == plan.NRows {
			return e.scalar(float64(rows)), nil
		}
		return e.scalar(float64(cols)), nil
	case plan.Sqrt, plan.Abs:
		x, err := e.eval(n.L())
		if err != nil {
			return nil, err
		}
		if !x.IsScalar() {
			return nil, fmt.Errorf("%v of non-scalar", n.Kind)
		}
		v := x.Data().ScalarValue()
		if n.Kind == plan.Sqrt {
			v = math.Sqrt(v)
		} else {
			v = math.Abs(v)
		}
		return e.scalar(v), nil
	}
	l, err := e.eval(n.L())
	if err != nil {
		return nil, err
	}
	r, err := e.eval(n.R())
	if err != nil {
		return nil, err
	}
	v, err := e.applyBin(n.Kind, l, r)
	if err != nil {
		return nil, err
	}
	return v.Temp(), nil
}

// applyBin applies a binary operator. The value it returns is always one it
// has just made, never an operand, which is why evalStructural may declare
// it a temporary. Shapes are asked of the values, not of their matrices:
// Data would materialise a deferred operand the operator may well defer over.
func (e *executor) applyBin(k plan.Kind, l, r *distmat.DistMatrix) (*distmat.DistMatrix, error) {
	ls, rs := l.IsScalar(), r.IsScalar()
	switch k {
	case plan.MMul:
		if ls {
			return r.Scale(l.Data().ScalarValue()), nil
		}
		if rs {
			return l.Scale(r.Data().ScalarValue()), nil
		}
		return e.mulWithHint(l, r, false), nil
	case plan.Add, plan.Sub:
		if ls != rs {
			// Scalar broadcast against a matrix.
			m, err := e.broadcastScalarOp(k, l, r, ls)
			return m, err
		}
		if ls && rs {
			a, b := l.Data().ScalarValue(), r.Data().ScalarValue()
			if k == plan.Add {
				return e.scalar(a + b), nil
			}
			return e.scalar(a - b), nil
		}
		if k == plan.Add {
			return l.Add(r), nil
		}
		return l.Sub(r), nil
	case plan.EMul:
		if ls {
			return r.Scale(l.Data().ScalarValue()), nil
		}
		if rs {
			return l.Scale(r.Data().ScalarValue()), nil
		}
		return l.ElemMul(r), nil
	case plan.EDiv:
		if rs {
			return l.Scale(1 / r.Data().ScalarValue()), nil
		}
		if ls {
			return nil, fmt.Errorf("scalar / matrix is not supported")
		}
		return l.ElemDiv(r), nil
	}
	return nil, fmt.Errorf("engine: not a binary op: %v", k)
}

func (e *executor) broadcastScalarOp(k plan.Kind, l, r *distmat.DistMatrix, leftScalar bool) (*distmat.DistMatrix, error) {
	if leftScalar {
		s := l.Data().ScalarValue()
		if k == plan.Add {
			return e.addScalar(r, s), nil
		}
		return e.addScalar(r.Scale(-1).Temp(), s), nil
	}
	s := r.Data().ScalarValue()
	if k == plan.Sub {
		s = -s
	}
	return e.addScalar(l, s), nil
}

func (e *executor) addScalar(m *distmat.DistMatrix, s float64) *distmat.DistMatrix {
	return m.AddScalar(s)
}

func (e *executor) scalar(v float64) *distmat.DistMatrix {
	return distmat.New(e.ctx, matrix.Scalar(v), 1, 1)
}

func (e *executor) lookup(sym string) (*distmat.DistMatrix, error) {
	// Exact (possibly versioned) binding first; base name and then inputs
	// as fallbacks.
	if v, ok := e.env[sym]; ok {
		return v, nil
	}
	name := baseSym(sym)
	if v, ok := e.env[name]; ok {
		return v, nil
	}
	if in, ok := e.inputs[name]; ok {
		v := distmat.Read(e.ctx, in.Data, in.VRows, in.VCols)
		e.env[name] = v
		return v, nil
	}
	return nil, fmt.Errorf("unbound symbol %q", sym)
}

func baseSym(sym string) string {
	for i := 0; i < len(sym); i++ {
		if sym[i] == '#' {
			return sym[:i]
		}
	}
	return sym
}

// evalBlock evaluates a chain block through its resolved plan tree,
// applying the block's scalar factors (interior spans are memoized in
// evalOpNode under the Explicit strategy).
func (e *executor) evalBlock(bp *costgraph.BlockPlan) (*distmat.DistMatrix, error) {
	v, err := e.evalOpNode(bp.Block, bp.Root)
	if err != nil {
		return nil, err
	}
	for _, dep := range bp.Block.ScalarDeps {
		s, err := e.eval(dep)
		if err != nil {
			return nil, err
		}
		v = v.Scale(s.Data().ScalarValue()).Temp()
	}
	return v, nil
}

// evalOpNode evaluates one node of a block plan: a reuse leaf consults the
// caches, an atom leaf resolves the symbol, interior nodes multiply. Under
// the Explicit strategy, interior spans are memoized by their as-written
// key — SystemDS's identical-subtree CSE over the operator DAG the order
// optimizer produced.
func (e *executor) evalOpNode(b *chain.Block, n *costgraph.OpNode) (*distmat.DistMatrix, error) {
	if err := e.canceled(); err != nil {
		return nil, err
	}
	if err := e.ctx.IntegrityErr(); err != nil {
		return nil, err
	}
	if n.ReuseOf != nil {
		v, err := e.optionValue(n.ReuseOf)
		if err != nil {
			return nil, err
		}
		if n.Flipped {
			v = v.Transpose().Temp()
		}
		return v, nil
	}
	if n.Lo == n.Hi {
		return e.atomValue(b.Atoms[n.Lo])
	}
	var cacheKey string
	if e.explicitKeys != nil {
		cacheKey = chain.SpanKey(b.Atoms[n.Lo : n.Hi+1])
		if entry, ok := e.subtreeCache[cacheKey]; ok {
			return entry.v, nil
		}
	}
	l, err := e.evalOpNode(b, n.L)
	if err != nil {
		return nil, err
	}
	r, err := e.evalOpNode(b, n.R)
	if err != nil {
		return nil, err
	}
	tsmm := n.L.Lo == n.L.Hi && n.R.Lo == n.R.Hi && n.L.ReuseOf == nil && n.R.ReuseOf == nil &&
		isTSMMAtoms(b.Atoms[n.L.Lo], b.Atoms[n.R.Lo])
	v := e.mulWithHint(l, r, tsmm)
	if cacheKey != "" {
		e.subtreeCache[cacheKey] = cachedSubtree{v: v.Retain(), refs: spanRefs(b.Atoms[n.Lo : n.Hi+1])}
	}
	return v, nil
}

func spanRefs(atoms []chain.Atom) map[string]bool {
	refs := map[string]bool{}
	for _, a := range atoms {
		if a.Opaque {
			a.Node.Walk(func(n *plan.Node) {
				if n.Kind == plan.Leaf {
					refs[baseSym(n.Sym)] = true
				}
			})
			continue
		}
		refs[baseSym(a.Sym)] = true
	}
	return refs
}

func isTSMMAtoms(l, r chain.Atom) bool {
	return l.Sym == r.Sym && l.T != r.T
}

func (e *executor) mulWithHint(l, r *distmat.DistMatrix, tsmm bool) *distmat.DistMatrix {
	return l.MulHinted(r, tsmm).Temp()
}

func (e *executor) atomValue(a chain.Atom) (*distmat.DistMatrix, error) {
	if a.Opaque {
		v, err := e.eval(a.Node)
		if err != nil {
			return nil, err
		}
		if a.T {
			return v.Transpose().Temp(), nil
		}
		return v, nil
	}
	v, err := e.lookup(a.Sym)
	if err != nil {
		return nil, err
	}
	if a.T {
		// Fused: chain atoms never materialize a distributed transpose.
		return e.fusedTranspose(v), nil
	}
	return v, nil
}

// fusedTranspose returns the transpose of a bound value, memoized per value
// so the (real) transpose kernel runs once per binding; bind drops the entry
// with the value's last binding. The transpose is retained here, so it is
// not a temporary.
func (e *executor) fusedTranspose(v *distmat.DistMatrix) *distmat.DistMatrix {
	if e.transCache == nil {
		e.transCache = map[*distmat.DistMatrix]*distmat.DistMatrix{}
	}
	if tv, ok := e.transCache[v]; ok {
		return tv
	}
	tv := v.TransposeFused()
	e.transCache[v] = tv
	return tv
}

// optionValue returns the cached value of a selected option, computing its
// producer on first use. LSE values persist across iterations; CSE values
// live for one iteration. When a cross-run intermediate cache is attached,
// loop-constant values are looked up there first and offered back after
// computation, so concurrent queries against the same dataset reuse each
// other's hoisted intermediates instead of recomputing them. When a
// shared-producer coordinator is attached (MQO), a missed loop-constant
// value is additionally negotiated with sibling runs mid-batch: adopt a
// sibling's production, or produce once for the whole batch.
func (e *executor) optionValue(o *search.Option) (*distmat.DistMatrix, error) {
	cache := e.cseCache
	if o.Kind == search.LSE {
		cache = e.lseCache
	}
	if v, ok := cache[o.Key]; ok {
		return v, nil
	}
	pp, ok := e.producers[o.Key]
	if !ok {
		return nil, fmt.Errorf("no producer for option %q", o.Key)
	}
	interKey := ""
	if o.Kind == search.LSE && (e.inter != nil || e.shared != nil) {
		if sig := costgraph.ProducerSig(pp.Root); sig != "" {
			if o.Occs[0].Flipped {
				// A flipped producer computes the transposed chain and then
				// transposes back: a distinct kernel sequence, so a distinct
				// key (the cached value must be bitwise-reproducible).
				sig += "|f"
			}
			interKey = o.Key + "|" + sig
			if e.inter != nil {
				if iv, ok := e.inter.Get(interKey); ok {
					// Reuse costs nothing on the simulated cluster: the value is
					// already resident from the producing query (the serving
					// layer charges its memory against the cache byte budget).
					v := distmat.New(e.ctx, iv.Data, iv.VRows, iv.VCols)
					cache[o.Key] = v
					return v, nil
				}
			}
		}
	}
	lead := false
	if interKey != "" && e.shared != nil {
		iv, role, err := e.shared.Acquire(e.goCtx, interKey)
		if err != nil {
			return nil, err
		}
		switch role {
		case SharedHit:
			// A sibling query in the batch produced this value (under the
			// same key, hence through the identical kernel sequence);
			// adopting it costs nothing on this run's simulated cluster,
			// exactly like a cross-run intermediate hit.
			v := distmat.New(e.ctx, iv.Data, iv.VRows, iv.VCols)
			cache[o.Key] = v
			return v, nil
		case SharedLead:
			lead = true
		}
	}
	flopBefore := 0.0
	if lead {
		flopBefore = e.ctx.Cluster.Stats().FLOP
	}
	var v *distmat.DistMatrix
	var err error
	switch {
	case o.Kind == search.CSEGroup:
		v, err = e.groupValue(o)
	default:
		occ := o.Occs[0]
		b := e.c.Coords.Blocks[occ.Block]
		v, err = e.evalOpNode(b, pp.Root)
		if err == nil && occ.Flipped {
			// The producer computed the first occurrence's orientation;
			// normalize the cache to canonical form.
			v = v.Transpose()
		}
	}
	if err != nil {
		if lead {
			// Settle the claim so waiting siblings fail typed (or, for a
			// cancellation specific to this run, promote a new leader)
			// instead of blocking on an abandoned production.
			e.shared.Fail(interKey, err)
		}
		return nil, err
	}
	// The value is about to be cached here and, below, written to DFS and
	// handed to sibling runs and later ones on other goroutines: from this
	// point nobody may write it again. The cache is the run's own, so a
	// deferred value stays deferred in it; Checkpoint and Data, on the way
	// out of the run, materialise.
	v.Retain()
	if o.Kind == search.LSE && e.checkpoint {
		// Loop-hoisted values live for the whole run: paying one DFS write
		// here converts every later failure's recompute into a DFS read.
		v.Checkpoint()
	}
	if lead {
		vr, vc := v.VirtualDims()
		e.shared.Publish(interKey, Input{Data: v.Data(), VRows: vr, VCols: vc},
			e.ctx.Cluster.Stats().FLOP-flopBefore)
	}
	if interKey != "" && e.inter != nil {
		vr, vc := v.VirtualDims()
		e.inter.Put(interKey, Input{Data: v.Data(), VRows: vr, VCols: vc})
	}
	cache[o.Key] = v
	return v, nil
}

// groupValue computes a cross-block grouped sum (the first pair of
// occurrences added together).
func (e *executor) groupValue(o *search.Option) (*distmat.DistMatrix, error) {
	if len(o.Occs) < 2 {
		return nil, fmt.Errorf("group option %q has %d occurrences", o.Key, len(o.Occs))
	}
	var total *distmat.DistMatrix
	for i := 0; i < 2; i++ {
		occ := o.Occs[i]
		b := e.c.Coords.Blocks[occ.Block]
		v, err := e.evalSpan(b, occ.Lo, occ.Hi)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = v
		} else {
			total = total.Add(v).Temp()
		}
	}
	return total, nil
}

// evalSpan evaluates a chain span right-associatively (used for group
// members, whose internal order is not resolved by a block plan).
func (e *executor) evalSpan(b *chain.Block, lo, hi int) (*distmat.DistMatrix, error) {
	v, err := e.atomValue(b.Atoms[hi])
	if err != nil {
		return nil, err
	}
	for i := hi - 1; i >= lo; i-- {
		l, err := e.atomValue(b.Atoms[i])
		if err != nil {
			return nil, err
		}
		v = l.Mul(v).Temp()
	}
	return v, nil
}

// cond evaluates a loop condition over the scalar environment.
func (e *executor) cond(expr lang.Expr) (bool, error) {
	v, err := e.condValue(expr)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

func (e *executor) condValue(expr lang.Expr) (float64, error) {
	switch expr := expr.(type) {
	case *lang.Num:
		return expr.V, nil
	case *lang.Ref:
		v, err := e.lookup(expr.Name)
		if err != nil {
			return 0, err
		}
		if !v.Data().IsScalar() {
			return 0, fmt.Errorf("loop condition uses non-scalar %q", expr.Name)
		}
		return v.Data().ScalarValue(), nil
	case *lang.Un:
		v, err := e.condValue(expr.X)
		return -v, err
	case *lang.Bin:
		l, err := e.condValue(expr.L)
		if err != nil {
			return 0, err
		}
		r, err := e.condValue(expr.R)
		if err != nil {
			return 0, err
		}
		switch expr.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			return l / r, nil
		case "<":
			return b2f(l < r), nil
		case ">":
			return b2f(l > r), nil
		case "<=":
			return b2f(l <= r), nil
		case ">=":
			return b2f(l >= r), nil
		case "==":
			return b2f(l == r), nil
		case "!=":
			return b2f(l != r), nil
		}
		return 0, fmt.Errorf("bad condition operator %q", expr.Op)
	case *lang.Call:
		if expr.Fn == "abs" || expr.Fn == "sqrt" {
			v, err := e.condValue(expr.Args[0])
			if err != nil {
				return 0, err
			}
			if expr.Fn == "abs" {
				return math.Abs(v), nil
			}
			return math.Sqrt(v), nil
		}
		return 0, fmt.Errorf("function %q not allowed in conditions", expr.Fn)
	}
	return 0, fmt.Errorf("unsupported condition expression %T", expr)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
