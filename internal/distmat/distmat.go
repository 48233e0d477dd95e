// Package distmat implements distributed matrices over the simulated
// cluster, mirroring SystemDS's blocked-matrix runtime. A DistMatrix pairs a
// materialized matrix (possibly a scaled-down sample) with virtual
// dimensions at which all costs are accounted; kernels execute for real so
// results are numerically exact, while the cluster is charged what the
// operation would cost at virtual scale (see the substitution table in
// DESIGN.md).
package distmat

import (
	"fmt"
	"math"
	"time"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/sparsity"
	"remac/internal/trace"
)

// Context binds a simulated cluster to the cost model used for runtime
// charging. Runtime charging always uses exact sparsities from the
// materialized data (the estimator only matters at compile time), so the
// context model uses the MNC estimator's exact-count propagation inputs.
type Context struct {
	Cluster *cluster.Cluster
	Model   *cost.Model
	// Recorder, when non-nil, receives one span per charged operator (the
	// structured replacement of the old Trace callback; remac-bench -trace,
	// remac-explain and the bench aggregates consume it).
	Recorder *trace.Recorder
	// PartitionSec accumulates the simulated time of input reads (the
	// input-partition phase of Fig 12), separately from the main clock.
	PartitionSec float64

	// Verify selects the integrity verification mode: block digests on
	// transmissions and DFS reads, optionally plus ABFT checksum validation
	// of distributed multiplies (see internal/integrity).
	Verify integrity.VerifyMode
	// NaNGuard selects the non-finite scan cadence (off, per iteration via
	// GuardValue, or per charged operator).
	NaNGuard integrity.GuardMode
	// failEpoch counts worker-failure events observed so far. Every
	// DistMatrix remembers the epoch at which it was last fully resident;
	// a distributed value whose epoch lags behind lost blocks to the
	// failures in between and lazily repairs itself when next used.
	failEpoch int
	// failLog records the worker index of each failure, in epoch order
	// (len == failEpoch). Coded repair derives the erased data groups of a
	// value from the distinct workers failed since its epoch (coded.go).
	failLog []int
	// codedK/codedN are the coded-recovery parameters (0 = coded recovery
	// off); codedSeq numbers encoded values for deterministic placement.
	codedK, codedN int
	codedSeq       int64
	// masked counts the straggler events the cluster masked against a
	// coded stage, awaiting settlement by codedSettle.
	masked int
	// pending holds corruption events the injector fired but the integrity
	// layer has not yet settled against the charging operator's payload.
	pending []fault.Event
	// intErr is the first unrecoverable integrity or numeric error
	// (IntegrityErr exposes it to the engine).
	intErr error
	// free holds, by length, the dense buffers of consumed temporaries that
	// no result was built on and of retired values, until a later operator of
	// the run takes one as its destination (ownership.go): never more than the
	// values that were dead at once. What is left when the run ends is handed
	// over to later runs (HandOver).
	free    map[int][][]float64
	give    *DistMatrix // what the next operator is given (Give)
	escaped bool        // a corruption escaped verification: nothing is
}

// NewContext creates a runtime context for a cluster.
func NewContext(c *cluster.Cluster) *Context {
	return &Context{Cluster: c, Model: cost.NewModel(c.Config(), sparsity.MNC{})}
}

// EnableFaults attaches a fault plan to the context's cluster and routes
// every fired event back through the context, so worker failures invalidate
// lineage epochs and every fault charge is mirrored as a trace span
// (keeping the stats-equals-spans invariant under injected faults).
func (ctx *Context) EnableFaults(p *fault.Plan) {
	ctx.Cluster.SetFaults(p, ctx.onFault)
}

func (ctx *Context) onFault(fc cluster.FaultCharge) {
	if fc.Event.Kind == fault.Corruption {
		// Corruption has no cost of its own; its span is emitted by the
		// integrity settlement once the outcome (inert, repaired,
		// propagated) is known. See settle in integrity.go.
		ctx.pending = append(ctx.pending, fc.Event)
		return
	}
	if fc.Event.Kind == fault.WorkerFailure {
		ctx.failEpoch++
		ctx.failLog = append(ctx.failLog, fc.Event.Worker)
	}
	if fc.CodedMasked {
		// The cluster masked this straggler against a coded stage: the
		// stage ends at the k fastest completions, so the stretch costs
		// nothing now; codedSettle decodes the slow task's block from
		// parity (or charges the stretch retroactively if the stage's
		// output carries no parity). The zero-cost span keeps the fault
		// visible in the trace.
		ctx.masked++
		ctx.recordFault("fault", "fault/"+fc.Event.Kind.String(), 0, 0, fc.Bytes)
		return
	}
	ctx.recordFault("fault", "fault/"+fc.Event.Kind.String(), fc.RecoverySec, 0, fc.Bytes)
}

// apply charges the cluster for one operator and mirrors the charge as a
// trace span. Every charge site must go through here: the mirror is what
// keeps the stats-equals-spans invariant (summed span seconds and bytes
// equal Cluster.Stats totals) that the trace tests cross-check.
func (ctx *Context) apply(kind, label string, bd cost.Breakdown, in []sparsity.Meta, out *sparsity.Meta, wall time.Duration) {
	if ctx.Recorder != nil { // nobody to read the span: do not build it
		ctx.Recorder.Record(trace.Op(kind, label, bd, in, out, wall))
	}
	ctx.Cluster.ChargeProfile(bd.FLOP, bd.ComputeSec, bd.TransmitSec, bd.Bytes[:])
}

// recordFault mirrors a retry or recovery charge as a fault span, when
// someone records.
func (ctx *Context) recordFault(kind, label string, recoverySec, flop float64, bytes [4]float64) {
	if ctx.Recorder != nil {
		ctx.Recorder.Record(trace.FaultOp(kind, label, recoverySec, flop, bytes))
	}
}

// DistMatrix is a matrix value in the simulated distributed runtime.
type DistMatrix struct {
	ctx  *Context
	data *matrix.Matrix
	// vMeta carries the virtual (paper-scale) dimensions and sparsity used
	// for all cost accounting. For inputs it is the virtualized metadata of
	// the materialized sample; for derived values it is propagated through
	// the estimator, because intermediate fill-in (e.g. AᵀA densifying)
	// depends on the absolute dimensions, which the sample does not have.
	vMeta sparsity.Meta
	local bool
	// prod is the lineage: the breakdown charged to produce this value.
	// Recovering blocks lost to a worker failure re-runs a fraction of it
	// (inputs keep a zero prod and recover by re-reading DFS instead).
	prod cost.Breakdown
	// epoch is the failure epoch at which the value was last fully
	// resident; repair() settles the difference against ctx.failEpoch.
	epoch int
	// ckpt marks values persisted to DFS by Checkpoint; their recovery
	// costs a DFS read regardless of lineage.
	ckpt bool
	// parity is the erasure-code state when coded recovery is enabled:
	// p parity blocks persisted to DFS from which erased data groups
	// decode without recomputation (coded.go).
	parity *codedParity
	// temp marks a temporary (ownership.go): a value only the expression
	// under evaluation holds, which the operator that consumes it may
	// overwrite or recycle. Every operator's result is one (derive).
	temp  bool
	holds int         // holders of a value the run made (ownership.go)
	fused *DistMatrix // the transpose TransposeFused keeps with d
	// input marks a value Read wrapped: its matrix outlives the run, and so
	// does the transpose the matrix carries (TransposeFused).
	input bool
	// expr is the payload of a deferred value (deferred.go): data stays nil
	// until force evaluates it. owned lists the buffers of the temporaries the
	// expression took over, which go to the free list once it is evaluated or
	// dropped; lenders lists the values that live on and whose cells the
	// expression reads, each held by it till then.
	expr    *matrix.Expr
	owned   [][]float64
	lenders []*DistMatrix
	src     *DistMatrix // the value whose cells d was given (Give; ownership.go)
}

// New wraps a materialized matrix with virtual dimensions and places it
// according to the cost model's local-memory rule. Passing vRows/vCols of 0
// uses the actual dimensions.
func New(ctx *Context, m *matrix.Matrix, vRows, vCols int64) *DistMatrix {
	meta := sparsity.Virtualize(sparsity.MetaOf(m), vRows, vCols)
	d := &DistMatrix{ctx: ctx, data: m, vMeta: meta, epoch: ctx.failEpoch}
	d.local = ctx.Model.FitsLocal(meta)
	return d
}

// Read wraps a matrix like New and additionally charges the input-partition
// cost (dfs read + partition shuffle) for distributed inputs, and records
// the per-worker block assignment for work-balance accounting (Fig 12/13).
func Read(ctx *Context, m *matrix.Matrix, vRows, vCols int64) *DistMatrix {
	d := New(ctx, m, vRows, vCols)
	d.input = true
	if !d.local {
		meta := d.Meta()
		bd := ctx.Model.DFSRead(meta)
		ctx.apply("dfs-read", "dfs-read", bd, nil, &meta, 0)
		ctx.PartitionSec += bd.Total()
		chargeWorkers(ctx, d)
		d.data = ctx.settle("dfs-read", "dfs-read", bd, meta, d.data, nil)
		ctx.codedSettle(d, bd)
	}
	return d
}

// Data returns the materialized matrix, evaluating a deferred value.
func (d *DistMatrix) Data() *matrix.Matrix { return d.force() }

// Dims returns the materialized dimensions without materializing a deferred
// value.
func (d *DistMatrix) Dims() (rows, cols int) {
	d.live()
	if d.expr != nil {
		return d.expr.Rows(), d.expr.Cols()
	}
	return d.data.Rows(), d.data.Cols()
}

// IsScalar reports whether the value is 1×1.
func (d *DistMatrix) IsScalar() bool {
	rows, cols := d.Dims()
	return rows == 1 && cols == 1
}

// Local reports whether the value resides in driver memory.
func (d *DistMatrix) Local() bool { return d.local }

// VirtualDims returns the dimensions used for cost accounting.
func (d *DistMatrix) VirtualDims() (int64, int64) { return d.vMeta.Rows, d.vMeta.Cols }

// Meta returns the virtual-scale estimation descriptor.
func (d *DistMatrix) Meta() sparsity.Meta { return d.vMeta }

// Give hands the next operator the cells of v, made by one like it, if it has
// any: that operator is charged, recorded, settled and given its lineage as
// ever. Give returns what was given before; Give(nil) withdraws it.
func (ctx *Context) Give(v *DistMatrix) (was *DistMatrix) {
	if was, ctx.give = ctx.give, v; ctx.escaped || v != nil && v.expr != nil {
		ctx.give = nil
	}
	return was
}

// given withdraws what the operator of the kind over a and b was given.
func (ctx *Context) given(kind string, a, b *matrix.Matrix) (out *matrix.Matrix, g *DistMatrix) {
	if g, ctx.give = ctx.give, nil; g != nil {
		out = g.data
	}
	if onKernel != nil {
		onKernel(kind, g != nil, a, b)
	}
	return out, g
}

// onKernel, when a test of this package sets it, sees every given call.
var onKernel func(kind string, given bool, a, b *matrix.Matrix)

// derive makes an operator's result: a temporary, or over the cells of src if
// given them.
func (d *DistMatrix) derive(m *matrix.Matrix, meta sparsity.Meta, local bool, prod cost.Breakdown, src *DistMatrix) *DistMatrix {
	nd := &DistMatrix{ctx: d.ctx, data: m, vMeta: meta, local: local, prod: prod, epoch: d.ctx.failEpoch, temp: src == nil, src: src}
	d.ctx.codedSettle(nd, prod)
	return nd
}

// repair settles a value whose blocks were lost to worker failures since it
// was last resident: it charges the lost partition fraction of the value's
// recovery cost (checkpoint read, lineage recomputation, or DFS re-read for
// inputs) and mirrors the charge as a recovery span. Called on every
// operand use, it makes recovery lazy the way Spark's lineage model is —
// values never touched after a failure cost nothing.
func (d *DistMatrix) repair() {
	d.live()
	ctx := d.ctx
	if d.epoch == ctx.failEpoch {
		return
	}
	from := d.epoch
	k := ctx.failEpoch - d.epoch
	d.epoch = ctx.failEpoch
	if d.local {
		return // driver memory survives worker failures
	}
	if d.parity != nil {
		// Coded values track which workers failed and decode the erased
		// data groups from parity (coded.go).
		d.repairCoded(from)
		return
	}
	// Each failure loses a 1/W slice of the partitions; k independent
	// failures lose 1-(1-1/W)^k of them.
	w := float64(ctx.Cluster.Config().Workers())
	d.chargeLost(1 - math.Pow(1-1/w, float64(k)))
}

// chargeLost charges the lost fraction of the value's recovery cost —
// checkpoint read, lineage recomputation, or DFS re-read for inputs — and
// mirrors the charge as a recovery span.
func (d *DistMatrix) chargeLost(lost float64) {
	ctx := d.ctx
	bd, label := d.prod, "recovery/lineage"
	if d.ckpt {
		bd, label = ctx.Model.DFSRead(d.vMeta), "recovery/checkpoint"
	} else if bd.FLOP == 0 && bd.Total() == 0 {
		// Inputs (and other values with no recorded lineage) are re-read
		// from the fault-tolerant store.
		bd, label = ctx.Model.DFSRead(d.vMeta), "recovery/dfs-read"
	}
	var bytes [4]float64
	for i := range bytes {
		bytes[i] = bd.Bytes[i] * lost
	}
	flop := bd.FLOP * lost
	sec := bd.Total() * lost
	ctx.Cluster.ChargeRecovery(flop, sec, bytes)
	ctx.recordFault("recovery", label, sec, flop, bytes)
}

// Checkpoint persists the value to DFS so later failures recover it at
// DFS-read cost instead of re-running its lineage. No-op for local or
// already-checkpointed values.
func (d *DistMatrix) Checkpoint() {
	d.force() // what is persisted is cells, wherever they are kept
	if d.local || d.ckpt {
		return
	}
	d.repair() // blocks lost before the write must be rebuilt first
	meta := d.vMeta
	bd := d.ctx.Model.DFSWrite(meta)
	d.ctx.apply("checkpoint", "checkpoint/dfs-write", bd, []sparsity.Meta{meta}, nil, 0)
	d.data = d.ctx.settle("checkpoint", "checkpoint/dfs-write", bd, meta, d.data, nil)
	d.ckpt = true
}

// Checkpointed reports whether the value has been persisted to DFS.
func (d *DistMatrix) Checkpointed() bool { return d.ckpt }

func (d *DistMatrix) sameCtx(o *DistMatrix) {
	if d.ctx != o.ctx {
		panic("distmat: operands from different contexts")
	}
}

// Mul returns d · o, executing the kernel and charging the cluster for the
// method (local, BMM or CPMM) the cost model selects.
func (d *DistMatrix) Mul(o *DistMatrix) *DistMatrix { return d.MulHinted(o, false) }

// Add returns d + o.
func (d *DistMatrix) Add(o *DistMatrix) *DistMatrix { return d.ewise(o, cost.EWAdd, "+") }

// Sub returns d - o.
func (d *DistMatrix) Sub(o *DistMatrix) *DistMatrix { return d.ewise(o, cost.EWSub, "-") }

// ElemMul returns d ⊙ o.
func (d *DistMatrix) ElemMul(o *DistMatrix) *DistMatrix { return d.ewise(o, cost.EWMul, "*") }

// ElemDiv returns element-wise d / o.
func (d *DistMatrix) ElemDiv(o *DistMatrix) *DistMatrix { return d.ewise(o, cost.EWDiv, "/") }

func (d *DistMatrix) ewise(o *DistMatrix, kind cost.EWiseKind, op string) *DistMatrix {
	d.sameCtx(o)
	if d.vMeta.Rows != o.vMeta.Rows || d.vMeta.Cols != o.vMeta.Cols {
		panic(fmt.Sprintf("distmat: %q virtual dims %dx%d vs %dx%d", op, d.vMeta.Rows, d.vMeta.Cols, o.vMeta.Rows, o.vMeta.Cols))
	}
	d.repair()
	o.repair()
	start := time.Now()
	var (
		outMeta  sparsity.Meta
		bd       cost.Breakdown
		outLocal bool
	)
	if d == o {
		// Same value on both sides (e.g. V ⊙ V): partitions are aligned,
		// and self-subtraction cancels to an empty result (cost.EWSub).
		outMeta, bd, outLocal = d.ctx.Model.EWiseSame(kind, d.vMeta, d.local)
	} else {
		outMeta, bd, outLocal = d.ctx.Model.EWise(kind, d.vMeta, o.vMeta, d.local, o.local)
	}
	in := []sparsity.Meta{d.vMeta, o.vMeta}
	if (d.expr != nil || o.expr != nil) && d.ctx.unobserved(bd) {
		var e *matrix.Expr
		switch op {
		case "+":
			e = d.operand().Add(o.operand())
		case "-":
			e = d.operand().Sub(o.operand())
		}
		if e != nil {
			return d.ctx.deferOp("ewise", "ewise/"+op, e, bd, in, outMeta, start, d, o)
		}
	}
	dm, om := d.force(), o.force()
	start = time.Now() // the kernel's wall, not an operand's evaluation
	out, g := d.ctx.given("ewise", dm, om)
	dst := d.ctx.dest(dm.Rows()*dm.Cols(), d, o)
	switch {
	case g != nil:
	case op == "+":
		out = dm.AddInto(dst, om)
	case op == "-":
		out = dm.SubInto(dst, om)
	case op == "*":
		out = dm.ElemMulInto(dst, om)
	default:
		out = dm.ElemDivInto(dst, om)
	}
	wall := time.Since(start)
	d.ctx.apply("ewise", "ewise/"+op, bd, in, &outMeta, wall)
	out = d.ctx.settle("ewise", "ewise/"+op, bd, outMeta, out, nil)
	d.ctx.recycle(out, dst, d, o)
	return d.derive(out, outMeta, outLocal, bd, g)
}

// Transpose returns dᵀ.
func (d *DistMatrix) Transpose() *DistMatrix {
	d.repair()
	start := time.Now()
	outMeta, bd, outLocal := d.ctx.Model.Transpose(d.vMeta, d.local)
	in := []sparsity.Meta{d.vMeta}
	if d.expr != nil && d.ctx.unobserved(bd) {
		if e := d.expr.Transpose(); e != nil {
			return d.ctx.deferOp("transpose", "transpose", e, bd, in, outMeta, start, d)
		}
	}
	m := d.force()
	start = time.Now()
	out, g := d.ctx.given("transpose", m, nil)
	dst := d.ctx.dest(m.Rows() * m.Cols())
	if g == nil {
		out = m.TransposeInto(dst)
	}
	wall := time.Since(start)
	d.ctx.apply("transpose", "transpose", bd, in, &outMeta, wall)
	out = d.ctx.settle("transpose", "transpose", bd, outMeta, out, nil)
	d.ctx.recycle(out, dst, d)
	return d.derive(out, outMeta, outLocal, bd, g)
}

// TransposeFused returns dᵀ without charging the cluster: leaf transposes
// inside multiplication chains are fused into the multiply operators
// (SystemDS rewrites t(A) %*% x into a transpose-fused matrix multiply
// rather than materializing t(A)), and the cost model prices the fused
// multiply on the transposed metadata. The transpose is kept, held and
// retired with d: the kernel runs once per value. An input's transpose rides
// on its matrix (matrix.Transposed), so the kernel runs once per input across
// runs; the input is never retired, and no free list ever gets its buffer.
func (d *DistMatrix) TransposeFused() *DistMatrix {
	if d.fused == nil {
		d.repair()
		m := d.force()
		// Uncharged: the fused view inherits its parent's lineage.
		meta := sparsity.MNC{}.Transpose(d.vMeta)
		var t *matrix.Matrix
		if d.input {
			t = m.Transposed()
		} else {
			dst := d.ctx.dest(m.Rows() * m.Cols())
			t = m.TransposeInto(dst)
			d.ctx.release(t, dst)
		}
		d.fused = d.derive(t, meta, d.local, d.prod, nil)
		d.fused.temp, d.fused.holds = false, 1 // d holds it
	}
	return d.fused
}

// Scale returns s · d.
func (d *DistMatrix) Scale(s float64) *DistMatrix {
	d.repair()
	start := time.Now()
	outMeta, bd, outLocal := d.ctx.Model.Scale(d.vMeta, d.local)
	in := []sparsity.Meta{d.vMeta}
	if d.expr != nil && d.ctx.unobserved(bd) {
		if e := d.expr.Scale(s); e != nil {
			return d.ctx.deferOp("scale", "scale", e, bd, in, outMeta, start, d)
		}
	}
	m := d.force()
	start = time.Now()
	out, g := d.ctx.given("scale", m, nil)
	dst := d.ctx.dest(m.Rows()*m.Cols(), d)
	if g == nil {
		out = m.ScaleInto(dst, s)
	}
	wall := time.Since(start)
	d.ctx.apply("scale", "scale", bd, in, &outMeta, wall)
	out = d.ctx.settle("scale", "scale", bd, outMeta, out, nil)
	d.ctx.recycle(out, dst, d)
	return d.derive(out, outMeta, outLocal, bd, g)
}

// AddScalar returns d + s on every element, charged as an element-wise
// pass. The result densifies, so the model prices the pass on the
// densified output metadata (a sparse input would otherwise under-charge
// the densified result).
func (d *DistMatrix) AddScalar(s float64) *DistMatrix {
	d.repair()
	m := d.force()
	start := time.Now()
	out, g := d.ctx.given("add-scalar", m, nil)
	dst := d.ctx.dest(m.Rows()*m.Cols(), d)
	if g == nil {
		out = m.AddScalarInto(dst, s)
	}
	wall := time.Since(start)
	outMeta, bd, outLocal := d.ctx.Model.AddScalar(d.vMeta, d.local)
	d.ctx.apply("add-scalar", "add-scalar", bd, []sparsity.Meta{d.vMeta}, &outMeta, wall)
	out = d.ctx.settle("add-scalar", "add-scalar", bd, outMeta, out, nil)
	d.ctx.recycle(out, dst, d)
	return d.derive(out, outMeta, outLocal, bd, g)
}

// Sum returns the scalar sum of all elements; distributed inputs aggregate
// per-partition partials and collect them. The charge routes through the
// model's breakdown like every other operator, so it is visible to the
// trace and its collect bytes follow the breakdown path.
func (d *DistMatrix) Sum() float64 {
	d.repair()
	m := d.force()
	start := time.Now()
	out, _ := d.ctx.given("sum", m, nil)
	if out == nil {
		out = matrix.Scalar(m.Sum())
	}
	wall := time.Since(start)
	outMeta, bd, _ := d.ctx.Model.Sum(d.vMeta, d.local)
	d.ctx.apply("sum", "sum", bd, []sparsity.Meta{d.vMeta}, &outMeta, wall)
	// Route the scalar through settlement as a 1×1 block so a corruption
	// landing on the collected partials damages (or is caught on) the sum
	// like any other payload.
	v := d.ctx.settle("sum", "sum", bd, outMeta, out, nil).ScalarValue()
	d.ctx.recycle(nil, nil, d)
	return v
}

// chargeWorkers distributes the matrix's virtual bytes across workers by
// hash-partitioning a block grid weighted by the materialized per-block
// nonzero mass. This reproduces the SystemDS 1000×1000 hash partitioning
// whose balance Fig 13 measures.
func chargeWorkers(ctx *Context, d *DistMatrix) {
	shares := WorkerShares(ctx.Cluster, d.data)
	total := cost.SizeBytes(d.Meta())
	for w, s := range shares {
		ctx.Cluster.ChargeWorker(w, s*total)
	}
}

// WorkerShares returns the fraction of a matrix's data volume each worker
// would hold under block hash partitioning. The materialized matrix is cut
// into a grid standing in for the virtual 1000×1000 block grid; each cell
// is weighted by its nonzero count and assigned by the cluster's hash.
//
// The grid's nonzero counts are a function of the matrix alone and ride on
// it (matrix.BlockNNZ); only the fold over the cluster's hash happens here.
func WorkerShares(c *cluster.Cluster, m *matrix.Matrix) []float64 {
	const gridTarget = 48
	counts, gc := m.BlockNNZ(gridTarget)
	weights := make([]float64, c.Config().Workers())
	total := 0.0
	for idx, n := range counts {
		if n == 0 {
			continue
		}
		w := c.PartitionOf(idx/gc, idx%gc)
		weights[w] += float64(n)
		total += float64(n)
	}
	if total == 0 {
		for i := range weights {
			weights[i] = 1 / float64(len(weights))
		}
		return weights
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// MulHinted is Mul with the TSMM structural hint (the operands form a
// transpose-self product over the same underlying matrix).
func (d *DistMatrix) MulHinted(o *DistMatrix, tsmm bool) *DistMatrix {
	d.sameCtx(o)
	if d.vMeta.Cols != o.vMeta.Rows {
		panic(fmt.Sprintf("distmat: Mul virtual dims %dx%d · %dx%d", d.vMeta.Rows, d.vMeta.Cols, o.vMeta.Rows, o.vMeta.Cols))
	}
	d.repair()
	o.repair()
	dm, om := d.force(), o.force()
	start := time.Now()
	outMeta, bd, outLocal := d.ctx.Model.MulHinted(d.vMeta, o.vMeta, d.local, o.local, tsmm)
	label := "mul/" + bd.Method.String()
	in := []sparsity.Meta{d.vMeta, o.vMeta}
	if d.ctx.unobserved(bd) {
		// A rank-one product is where a deferred value starts.
		if e := matrix.Outer(dm, om); e != nil {
			return d.ctx.deferOp("mul", label, e, bd, in, outMeta, start, d, o)
		}
	}
	out, g := d.ctx.given("mul", dm, om)
	dst := d.ctx.dest(dm.Rows() * om.Cols())
	if g == nil {
		out = dm.MulInto(dst, om)
	}
	wall := time.Since(start)
	d.ctx.apply("mul", label, bd, in, &outMeta, wall)
	// ABFT reads both operands, so they are given up only after settlement.
	out = d.ctx.settle("mul", label, bd, outMeta, out, &mulOperands{a: dm, b: om})
	d.ctx.recycle(out, dst, d, o)
	return d.derive(out, outMeta, outLocal, bd, g)
}
