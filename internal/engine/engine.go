// Package engine executes compiled programs on the simulated distributed
// runtime: it interprets the schedule a compiled plan lowers on its first run
// (opt.Compiled.Schedule) over distmat values, driving the loop, hoisting
// loop-constant producers out of it (LSE) and reusing common-subexpression
// results within an iteration (CSE), and accounts the phase breakdown (input
// partition / compilation / computation / transmission) the paper's Fig 12
// reports. What a run owns is its slot values, its stack and its cluster.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"remac/internal/cluster"
	"remac/internal/distmat"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/plan"
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
// input, an intermediate-cache entry, a value published to later runs or
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

// LSESource fills loop-constant (LSE) values from outside the run: a
// cross-run cache. Before computing an LSE producer the engine Acquires its
// key: ok means the returned Input is the value, and the run adopts it at no
// charge; a miss means the run computes it and Publishes it when its slot
// fills. A run that fails before the slot fills publishes nothing.
//
// Keys are the option's canonical expression key plus the producer plan's
// shape signature (opt.SharedKey), so a value under one key stands for the
// bitwise-identical sequence of kernel executions. A source shared across
// runs must namespace keys by dataset version (and by cluster configuration
// if its runs differ in one; internal/serve's all run on the default
// cluster) and synchronize: the engine calls it from the run's own
// goroutine.
type LSESource interface {
	Acquire(key string) (v Input, ok bool)
	Publish(key string, v Input)
}

// RunOptions configures the run-time (as opposed to compile-time) behavior
// of an execution: fault injection, the recovery policy, the iteration cap,
// the source of loop-constant values and the integrity checks. The zero value
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
	// LSE, when non-nil, is consulted for every shareable loop-constant
	// value before the run computes it, and given what the run computed. See
	// LSESource.
	LSE LSESource
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
	rp, err := opts.Recovery.On(c.Config.Cluster)
	if err != nil {
		return nil, err
	}
	s, err := c.Schedule()
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
		s:          s,
		goCtx:      goCtx,
		ctx:        ctx,
		rec:        rec,
		inputs:     inputs,
		slots:      make([]*distmat.DistMatrix, len(s.Labels)),
		checkpoint: rp.Kind == RecoverCheckpoint,
		lse:        opts.LSE,
		maxIter:    MaxIterations,
		guard:      opts.NaNGuard,
	}
	if opts.MaxIter > 0 {
		e.maxIter = opts.MaxIter
	}
	return e, nil
}

func (e *executor) run() (*Result, error) {
	c, s, ctx, rec, maxIter := e.c, e.s, e.ctx, e.rec, e.maxIter
	if err := e.exec(s.Code[:s.Ends[0]]); err != nil {
		return nil, err
	}
	iterations := 0
	for ; s.Cond != nil; iterations++ {
		if iterations >= maxIter {
			return nil, &MaxIterationsError{Iterations: maxIter}
		}
		if err := e.canceled(); err != nil {
			return nil, err
		}
		v, err := e.condValue(s.Cond)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			break
		}
		var id int64
		if rec != nil {
			id = rec.Begin("iteration", fmt.Sprintf("iteration %d", iterations+1))
		}
		err = e.exec(s.Code[s.Ends[0]:s.Ends[1]])
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
		if e.afterIteration != nil {
			e.afterIteration()
		}
	}
	if err := e.exec(s.Code[s.Ends[1]:]); err != nil {
		return nil, err
	}
	// A corruption or NaN surfaced by the final operator has no later
	// evaluation to fail — a poisoned run must never return success.
	if err := ctx.IntegrityErr(); err != nil {
		return nil, err
	}
	// What the run returns is reachable from Env; what is idle is not, and the
	// next run's first n×n result goes where this run's last dead one was.
	e.clear(s.Clears)
	ctx.HandOver()
	return &Result{
		Env:               e.env(),
		Stats:             ctx.Cluster.Stats(),
		Iterations:        iterations,
		InputPartitionSec: ctx.PartitionSec,
		CompileSec:        c.TotalTime.Seconds(),
		Trace:             rec,
		ctx:               ctx,
	}, nil
}

// executor is the state of one run: c's schedule s, shared by every run of c,
// and what the run owns — the values of the schedule's slots, the stack, the
// cluster — with the optional source of LSE values (RunOptions).
type executor struct {
	c      *opt.Compiled
	s      *opt.Schedule
	goCtx  context.Context
	ctx    *distmat.Context
	rec    *trace.Recorder
	inputs map[string]Input
	lse    LSESource
	slots  []*distmat.DistMatrix
	// stack is the value stack; stmt and span are the statement running and
	// its span.
	stack []*distmat.DistMatrix
	stmt  string
	span  int64

	// checkpoint persists LSE values to DFS on first computation
	// (RecoverCheckpoint).
	checkpoint bool
	// maxIter caps the loop; guard is the non-finite scan cadence.
	maxIter int
	guard   integrity.GuardMode

	// afterIteration, when set (by the ownership tests), runs after every
	// completed iteration, and afterRetire on every buffer a holder that let
	// go of a value gave up.
	afterIteration func()
	afterRetire    func(buf []float64)
}

// exec runs a stretch of the schedule: the one run loop, for the pre-loop
// statements, an iteration of the body and the post-loop statements alike.
func (e *executor) exec(code []opt.Instr) error {
	for pc := 0; pc < len(code); pc++ {
		skip, err := e.step(&code[pc])
		if err != nil {
			e.stack = e.stack[:0]
			e.rec.End(e.span)
			return fmt.Errorf("engine: %s: %w", e.stmt, err)
		}
		if skip {
			pc += code[pc].N
		}
	}
	return nil
}

// step runs one instruction, after the checks an evaluation starts with; skip
// reports a full reuse slot, whose producing instructions the run skips.
func (e *executor) step(in *opt.Instr) (skip bool, err error) {
	if in.Entry {
		if err = e.canceled(); err == nil {
			err = e.ctx.IntegrityErr()
		}
		if err != nil {
			return false, err
		}
	}
	if in.Repeat {
		e.ctx.Give(e.slots[in.A])
	}
	top := len(e.stack) - 1
	switch in.Op {
	case opt.OpStmt:
		e.stmt, e.span = in.Label, e.rec.Begin("stmt", in.Label)
	case opt.OpBind:
		e.bind(in.A, e.stack[top])
		e.stack = e.stack[:top]
		e.rec.End(e.span)
		e.span = 0
		e.clear(in.Clears)
	case opt.OpLoad:
		v, err := e.load(in.A, in.B)
		e.stack = append(e.stack, v)
		return false, err
	case opt.OpConst:
		e.stack = append(e.stack, e.scalar(in.Val))
	case opt.OpEnter:
		v := e.slots[in.A]
		if v == nil && in.Label != "" && e.lse != nil {
			v = e.share(in.Label)
			e.slots[in.A] = v
		}
		if v != nil {
			e.stack = append(e.stack, v)
			return true, nil
		}
	case opt.OpFill:
		if in.A >= 0 {
			e.fill(in, e.stack[top])
		}
	case opt.OpFusedT:
		e.stack[top] = e.stack[top].TransposeFused()
	case opt.OpT:
		e.stack[top] = e.stack[top].Transpose()
	case opt.OpUnary:
		e.stack[top], err = e.unary(in.Kind, e.stack[top])
	default:
		l, r := e.stack[top-1], e.stack[top]
		e.stack = e.stack[:top]
		var v *distmat.DistMatrix
		switch in.Op {
		case opt.OpBinary:
			v, err = e.applyBin(in.Kind, l, r)
		case opt.OpMul:
			if in.Swap {
				l, r = r, l
			}
			v = l.MulHinted(r, in.TSMM)
		case opt.OpScale:
			v = l.Scale(r.Data().ScalarValue())
		case opt.OpAdd:
			v = l.Add(r)
		}
		e.stack[top-1] = v
	}
	if in.Repeat { // what was not taken is withdrawn; an empty slot takes what was made
		e.ctx.Give(nil)
		if err == nil && e.slots[in.A] == nil && !e.stack[len(e.stack)-1].Deferred() {
			e.slots[in.A] = e.stack[len(e.stack)-1].Retain()
		}
	}
	return false, err
}

// guardIteration runs the per-iteration non-finite scan over the bound
// values (sorted, versioned aliases skipped — they share the bindings their
// base names resolve to). The scan charges the pass and records the first
// poison found as the context's typed numeric error.
func (e *executor) guardIteration() {
	env := e.env()
	names := make([]string, 0, len(env))
	for name := range env {
		if plan.BaseSym(name) == name {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		env[name].GuardValue(name)
	}
}

// env maps the bound names to their values.
func (e *executor) env() map[string]*distmat.DistMatrix {
	env := make(map[string]*distmat.DistMatrix, len(e.s.Names))
	for name, k := range e.s.Names {
		if v := e.slots[k]; v != nil {
			env[name] = v
		}
	}
	return env
}

// bind binds name slot k to v: retained by the name, and by Result.Env after
// the run, v stops being a temporary and, if deferred, is materialised (Pin);
// the value the name held before loses a holder.
func (e *executor) bind(k int, v *distmat.DistMatrix) {
	old := e.slots[k]
	e.slots[k] = v.Pin()
	e.drop(old)
}

// drop lets one holder of v (if any) — a name, a reuse slot — go. A value the
// run made is recycled when its last holder, an unevaluated expression that
// reads it included, lets go; an input, a cache hit or a published value
// never is (distmat: Retire).
func (e *executor) drop(v *distmat.DistMatrix) {
	if buf := v.Retire(); buf != nil && e.afterRetire != nil {
		e.afterRetire(buf)
	}
}

// clear empties the slots ks, each of which lets its value go.
func (e *executor) clear(ks []int) {
	for _, k := range ks {
		v := e.slots[k]
		e.slots[k] = nil
		e.drop(v)
	}
}

// fill retains v in reuse slot in.A, which is the run's own: a deferred value
// stays deferred in it. A value the run keeps then goes to DFS, and a keyed
// one (the source missed it: a hit skips the fill) to later runs, as cells no
// longer the run's (Checkpoint, Publish).
func (e *executor) fill(in *opt.Instr, v *distmat.DistMatrix) {
	if e.slots[in.A] = v.Retain(); in.Keep && e.checkpoint {
		// Loop-hoisted values live for the whole run: paying one DFS write
		// here converts every later failure's recompute into a DFS read.
		v.Checkpoint()
	}
	if in.Label != "" && e.lse != nil {
		vr, vc := v.VirtualDims()
		e.lse.Publish(in.Label, Input{Data: v.Publish(), VRows: vr, VCols: vc})
	}
}

// share looks an LSE value up in the source before the run computes it. A
// value made elsewhere costs nothing on this run's simulated cluster: it is
// resident already. A miss is nil.
func (e *executor) share(key string) *distmat.DistMatrix {
	iv, ok := e.lse.Acquire(key)
	if !ok {
		return nil
	}
	return distmat.New(e.ctx, iv.Data, iv.VRows, iv.VCols)
}

// canceled returns the wrapped ErrCanceled when the run's context is done.
// It is checked wherever an evaluation starts, bounding the latency of a
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

// unary applies a one-operand plan operator.
func (e *executor) unary(k plan.Kind, x *distmat.DistMatrix) (*distmat.DistMatrix, error) {
	switch k {
	case plan.Neg:
		return x.Scale(-1), nil
	case plan.SumAll:
		return e.scalar(x.Sum()), nil
	case plan.AsScalar:
		if !x.IsScalar() {
			rows, cols := x.Dims()
			return nil, fmt.Errorf("as.scalar of %dx%d matrix", rows, cols)
		}
		return x, nil
	case plan.NRows: // of the bound value; a leaf operand costs nothing
		rows, _ := x.Dims()
		return e.scalar(float64(rows)), nil
	case plan.NCols:
		_, cols := x.Dims()
		return e.scalar(float64(cols)), nil
	case plan.Sqrt, plan.Abs:
		if !x.IsScalar() {
			return nil, fmt.Errorf("%v of non-scalar", k)
		}
		f := math.Abs
		if k == plan.Sqrt {
			f = math.Sqrt
		}
		return e.scalar(f(x.Data().ScalarValue())), nil
	}
	return nil, fmt.Errorf("engine: not a unary op: %v", k)
}

// applyBin applies a binary operator. Shapes are asked of the values, not of
// their matrices: Data would materialise a deferred operand the operator may
// well defer over.
func (e *executor) applyBin(k plan.Kind, l, r *distmat.DistMatrix) (*distmat.DistMatrix, error) {
	ls, rs := l.IsScalar(), r.IsScalar()
	switch k {
	case plan.MMul, plan.EMul:
		switch {
		case ls:
			return r.Scale(l.Data().ScalarValue()), nil
		case rs:
			return l.Scale(r.Data().ScalarValue()), nil
		case k == plan.MMul:
			return l.MulHinted(r, false), nil
		}
		return l.ElemMul(r), nil
	case plan.Add, plan.Sub:
		switch {
		case ls && rs:
			a, b := l.Data().ScalarValue(), r.Data().ScalarValue()
			if k == plan.Add {
				return e.scalar(a + b), nil
			}
			return e.scalar(a - b), nil
		case ls:
			// Scalar broadcast against a matrix.
			s := l.Data().ScalarValue()
			if k == plan.Sub {
				// Not the value a repeat is given: that is the sum's.
				g := e.ctx.Give(nil)
				r = r.Scale(-1)
				e.ctx.Give(g)
			}
			return r.AddScalar(s), nil
		case rs:
			s := r.Data().ScalarValue()
			if k == plan.Sub {
				s = -s
			}
			return l.AddScalar(s), nil
		case k == plan.Add:
			return l.Add(r), nil
		}
		return l.Sub(r), nil
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

func (e *executor) scalar(v float64) *distmat.DistMatrix {
	return distmat.New(e.ctx, matrix.Scalar(v), 1, 1)
}

// load resolves a symbol: its own (possibly versioned) binding in slot sym,
// else its base name's in slot base, else the input of that name, read and
// bound to it on first use.
func (e *executor) load(sym, base int) (*distmat.DistMatrix, error) {
	if v := e.slots[sym]; v != nil {
		return v, nil
	}
	if v := e.slots[base]; v != nil {
		return v, nil
	}
	if in, ok := e.inputs[e.s.Labels[base]]; ok {
		v := distmat.Read(e.ctx, in.Data, in.VRows, in.VCols)
		e.slots[base] = v
		return v, nil
	}
	return nil, fmt.Errorf("unbound symbol %q", e.s.Labels[sym])
}

// condValue evaluates a loop condition over the scalar bindings.
func (e *executor) condValue(expr lang.Expr) (float64, error) {
	switch expr := expr.(type) {
	case *lang.Num:
		return expr.V, nil
	case *lang.Ref:
		v, err := e.load(e.s.Names[expr.Name], e.s.Names[plan.BaseSym(expr.Name)])
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
		if op, ok := condOps[expr.Op]; ok {
			return op(l, r), nil
		}
		return 0, fmt.Errorf("bad condition operator %q", expr.Op)
	case *lang.Call:
		if expr.Fn != "abs" && expr.Fn != "sqrt" {
			return 0, fmt.Errorf("function %q not allowed in conditions", expr.Fn)
		}
		v, err := e.condValue(expr.Args[0])
		if expr.Fn == "abs" {
			return math.Abs(v), err
		}
		return math.Sqrt(v), err
	}
	return 0, fmt.Errorf("unsupported condition expression %T", expr)
}

var condOps = map[string]func(l, r float64) float64{
	"+":  func(l, r float64) float64 { return l + r },
	"-":  func(l, r float64) float64 { return l - r },
	"*":  func(l, r float64) float64 { return l * r },
	"/":  func(l, r float64) float64 { return l / r },
	"<":  func(l, r float64) float64 { return b2f(l < r) },
	">":  func(l, r float64) float64 { return b2f(l > r) },
	"<=": func(l, r float64) float64 { return b2f(l <= r) },
	">=": func(l, r float64) float64 { return b2f(l >= r) },
	"==": func(l, r float64) float64 { return b2f(l == r) },
	"!=": func(l, r float64) float64 { return b2f(l != r) },
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
