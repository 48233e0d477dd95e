package distmat

import "remac/internal/matrix"

// This file is the ownership rule that lets execution run without garbage.
//
// A value is a temporary only if its producer's caller said so with Temp:
// nothing but the expression under evaluation holds it, so the one operator
// that consumes it may write its own result over the value's dense buffer
// (element-wise, scale and add-scalar passes, which read a cell before they
// write it) or, when the result cannot live there, hand the buffer to the
// context's free list for a later operator to use as its destination. A
// consumed temporary is emptied: using it again panics. Everything else —
// inputs, cache hits, anything bound, cached, published or returned — is not
// a temporary, is never written and never recycled; Pin and Retain withdraw
// the declaration when a temporary comes to be retained after all.

// Temp declares d a temporary and returns it. The caller vouches that it
// holds the only reference to d and to d's matrix.
func (d *DistMatrix) Temp() *DistMatrix {
	d.temp = true
	return d
}

// Pin withdraws Temp — d is about to be bound, or to outlive the run — and
// returns d, materialised: what a name, a result or another goroutine holds
// is cells (deferred.go).
func (d *DistMatrix) Pin() *DistMatrix {
	d.force()
	d.temp = false
	return d
}

// Retain withdraws Temp for a holder that lives and dies with the run (the
// executor's reuse caches) and returns d as it is: a deferred value stays
// deferred.
func (d *DistMatrix) Retain() *DistMatrix {
	d.temp = false
	return d
}

// live panics on a consumed temporary.
func (d *DistMatrix) live() {
	if d.data == nil && d.expr == nil {
		panic("distmat: use of a consumed temporary")
	}
}

// dest picks the destination for a dense result of n cells: the buffer of
// the first of inPlace that is a temporary with a dense payload of that size,
// else a recycled buffer, else nil (the kernel allocates). The buffer may be
// dirty; the kernels cope (matrix: denseOver).
func (ctx *Context) dest(n int, inPlace ...*DistMatrix) []float64 {
	for _, x := range inPlace {
		if buf := x.data.Buffer(); x.temp && len(buf) == n {
			return buf
		}
	}
	if l := ctx.free[n]; len(l) > 0 {
		ctx.free[n] = l[:len(l)-1]
		return l[len(l)-1]
	}
	return nil
}

// recycle ends an operator, after settlement (which may still read the
// operands, and may swap a corrupted copy in for the clean result): every
// temporary among the operands is emptied, and its dense buffer and the
// destination dst go to the free list, except the one out is built on.
func (ctx *Context) recycle(out *matrix.Matrix, dst []float64, operands ...*DistMatrix) {
	ctx.release(out, dst)
	for _, x := range operands {
		if !x.temp || x.data == nil { // nil: the same value on both sides
			continue
		}
		buf := x.data.Buffer()
		x.data = nil
		if !sameBuffer(buf, dst) {
			ctx.release(out, buf)
		}
	}
}

// release puts buf on the free list unless it is empty or out's own.
func (ctx *Context) release(out *matrix.Matrix, buf []float64) {
	if len(buf) == 0 || (out != nil && sameBuffer(out.Buffer(), buf)) {
		return
	}
	if ctx.free == nil {
		ctx.free = map[int][][]float64{}
	}
	ctx.free[len(buf)] = append(ctx.free[len(buf)], buf)
}

func sameBuffer(a, b []float64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// Idle returns the buffers on the free list: what the ownership tests check
// no retained value shares.
func (ctx *Context) Idle() [][]float64 {
	var all [][]float64
	for _, l := range ctx.free {
		all = append(all, l...)
	}
	return all
}
