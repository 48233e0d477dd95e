package distmat

import (
	"sync"

	"remac/internal/matrix"
)

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
//
// One retained value does come back: a temporary that was given a name (Pin)
// is dead again once the name is rebound, if no other name holds it and no
// expression still to be evaluated reads it. Retire recycles it then. The
// buffers that are idle when the run ends serve the next run (HandOver).

// Temp declares d a temporary and returns it. The caller vouches that it
// holds the only reference to d and to d's matrix.
func (d *DistMatrix) Temp() *DistMatrix {
	d.temp = true
	return d
}

// Pin withdraws Temp — d is about to be bound, or to outlive the run — and
// returns d, materialised: what a name, a result or another goroutine holds
// is cells (deferred.go).
//
// A value that was a temporary here is one the run made and only names hold:
// Retire may recycle it when the last of them lets go.
func (d *DistMatrix) Pin() *DistMatrix {
	d.force()
	if d.temp {
		d.temp, d.named = false, true
	}
	return d
}

// Retain withdraws Temp for a holder that lives and dies with the run (the
// executor's reuse caches) and returns d as it is: a deferred value stays
// deferred.
// What a cache holds is never retired, named or not.
func (d *DistMatrix) Retain() *DistMatrix {
	d.temp, d.named = false, false
	return d
}

// Retire ends a named value: the caller vouches that no name holds d any
// more. If the run made d (Pin), nothing else retains it (Retain) and no
// unevaluated expression reads it (deferred.go: loans), d is emptied like a
// consumed temporary and its dense buffer, which Retire returns, goes to the
// free list. Anything else — an input, a cache hit, a cached or published
// value, a lender — is left as it is, and Retire returns nil. Recovery state
// does not enter into it: a checkpoint and coded parity say how the lost
// blocks of a value are rebuilt when it is next used, parity blocks are
// allocations of their own, and nothing uses a retired value.
func (d *DistMatrix) Retire() []float64 {
	if !d.named || d.loans > 0 || d.data == nil {
		return nil
	}
	buf := d.data.Buffer()
	d.data = nil
	d.ctx.release(nil, buf)
	return buf
}

// live panics on a consumed temporary.
func (d *DistMatrix) live() {
	if d.data == nil && d.expr == nil {
		panic("distmat: use of a consumed temporary")
	}
}

// dest picks the destination for a dense result of n cells: the buffer of
// the first of inPlace that is a temporary with a dense payload of that size,
// else a recycled buffer — of this run, else one an earlier run handed over —
// else nil (the kernel allocates). The buffer may be dirty; the kernels cope
// (matrix: denseOver).
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
	if n >= handOverCells {
		if pool, ok := handedOver.Load(n); ok {
			if buf, ok := pool.(*sync.Pool).Get().(*[]float64); ok {
				return *buf
			}
		}
	}
	return nil
}

// handOverCells is the least length of a buffer worth keeping past its run:
// the least work matrix gives a stripe of its own, below which a pass runs on
// one goroutine and a fresh allocation costs next to nothing.
const handOverCells = matrix.MinStripeCells

// handedOver holds, by length, the buffers that were idle when a run ended: a
// *sync.Pool of *[]float64 each, so any number of runs may give and take at
// once and the collector empties it. A buffer is on a free list because no
// live value can reach it, so nothing here can be reached either.
var handedOver sync.Map

// HandOver ends the run: the idle buffers worth keeping go to later runs, on
// any goroutine, and the free list is emptied — the context stays reachable
// through the values the run returns.
func (ctx *Context) HandOver() {
	for n, l := range ctx.free {
		if n < handOverCells {
			continue
		}
		pool, ok := handedOver.Load(n)
		if !ok {
			pool, _ = handedOver.LoadOrStore(n, new(sync.Pool))
		}
		for _, buf := range l {
			pool.(*sync.Pool).Put(&buf)
		}
	}
	ctx.free = nil
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

// Reads returns the buffers a value still deferred will read when it is
// evaluated, nil for cells: what the ownership tests check is not idle either.
func (d *DistMatrix) Reads() [][]float64 {
	var bufs [][]float64
	if d.expr != nil {
		d.expr.Leaves(func(m *matrix.Matrix) { bufs = append(bufs, m.Buffer()) })
	}
	return bufs
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
