package distmat

import (
	"time"

	"remac/internal/cost"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/sparsity"
)

// This file keeps the tail of a quasi-Newton update — a rank-one product and
// the scale, +, − and transpose operators over it — from writing one n×n
// value per operator. Each operator is charged, recorded, settled and given
// its lineage when it is called, exactly as if it had run; what it leaves out
// is the kernel: the value carries a matrix.Expr in place of cells, and the
// cells of the whole chain are produced in one pass (force) when somebody
// needs them — Data, Pin, Checkpoint, GuardValue, or an operator outside the
// deferred set.
//
// Three rules make that the same run, bit for bit:
//
//   - Format. Which kernel an eager operator takes depends on the format its
//     operands compacted to; matrix.Expr.Eval re-runs the eager operators
//     when a node would have left as CSR, and the constructors decline CSR
//     operands and the factors CSR and dense kernels disagree about.
//   - Observers. An operator defers only where nothing looks at its payload
//     (unobserved): corruption is inert there, ABFT and coded parity apply to
//     distributed values only, and no per-operator guard scans it.
//   - Ownership. A deferred value takes over its temporary operands at once —
//     they are emptied, so using them again panics as ever — but their
//     buffers are leaves now: they reach the free list when the expression
//     is evaluated or dropped (letGo), and not at all once a value that is
//     not a temporary (a retained one) has lent its expression to another,
//     which may be evaluated at any later time. An operand that lives on — a
//     bound value read as a leaf — is a lender: the expression holds it
//     (ownership.go) until it is evaluated or dropped.

// unobserved reports whether settle leaves alone the payload of an operator
// charged bd: it ran in driver memory with nothing in flight (a corruption
// landing on it is inert, verification has nothing to digest, ABFT and coded
// parity are for distributed values) and no guard scans every operator's
// result.
func (ctx *Context) unobserved(bd cost.Breakdown) bool {
	if !bd.Local || ctx.NaNGuard == integrity.GuardPerOp {
		return false
	}
	for _, b := range bd.Bytes {
		if b != 0 {
			return false
		}
	}
	return true
}

// operand returns d as an operand of a deferred + or −: its expression, or
// its dense matrix as a leaf (nil for CSR, which the constructors pass on).
func (d *DistMatrix) operand() *matrix.Expr {
	if d.expr != nil {
		return d.expr
	}
	return matrix.Leaf(d.data)
}

// deferOp completes an operator whose result stays the expression e: the
// charge, the span (its wall is the time it took to record the operator; the
// evaluation's lands in whatever encloses the force), settlement and lineage
// are those of the eager operator, and the temporaries among the operands
// pass to the result.
func (ctx *Context) deferOp(kind, label string, e *matrix.Expr, bd cost.Breakdown, in []sparsity.Meta, outMeta sparsity.Meta, start time.Time, operands ...*DistMatrix) *DistMatrix {
	ctx.apply(kind, label, bd, in, &outMeta, time.Since(start))
	ctx.settle(kind, label, bd, outMeta, nil, nil)
	nd := operands[0].derive(nil, outMeta, true, bd, nil)
	nd.expr = e
	for _, x := range operands {
		switch {
		case x.data == nil && x.expr == nil: // emptied: the same temporary on both sides
		case !x.temp && x.expr == nil:
			// x lives on and e reads its cells.
			nd.borrow(x)
		case !x.temp:
			// x lives on and so does its expression, inside e: whichever of
			// the two is evaluated first must leave the leaves to the other,
			// and each holds what they both read.
			x.owned = nil
			for _, l := range x.lenders {
				nd.borrow(l)
			}
		default:
			// The buffers and the lenders move with the expression; x is
			// emptied, so its lists may be built on.
			nd.owned = append(x.owned, nd.owned...)
			if x.data != nil && x.data.Buffer() != nil {
				nd.owned = append(nd.owned, x.data.Buffer())
			}
			nd.lenders = append(x.lenders, nd.lenders...)
			x.data, x.expr, x.owned, x.lenders = nil, nil, nil, nil
		}
	}
	return nd
}

// borrow records that d's expression reads the cells of l, which lives on.
func (d *DistMatrix) borrow(l *DistMatrix) {
	if d.lenders == nil {
		d.lenders = make([]*DistMatrix, 0, 8) // an update tail borrows 5 or 6 times: one allocation
	}
	d.lenders = append(d.lenders, l.Retain())
}

// force materialises a deferred value in place and returns the matrix: one
// evaluation into a recycled or fresh buffer, after which the expression
// lets go.
func (d *DistMatrix) force() *matrix.Matrix {
	d.live()
	if e := d.expr; e != nil {
		dst := d.ctx.dest(e.Rows() * e.Cols())
		d.data = e.Eval(dst)
		d.ctx.release(d.data, dst)
		d.letGo(d.data)
	}
	return d.data
}

// letGo ends d's expression, evaluated into out or dropped (nil): the buffers
// it took over go to the free list, and its lenders lose its hold.
func (d *DistMatrix) letGo(out *matrix.Matrix) {
	for _, buf := range d.owned {
		d.ctx.release(out, buf)
	}
	for _, l := range d.lenders {
		l.Retire()
	}
	d.expr, d.owned, d.lenders = nil, nil, nil
}

// Deferred reports whether the value's cells are yet to be computed.
func (d *DistMatrix) Deferred() bool { return d.expr != nil }
