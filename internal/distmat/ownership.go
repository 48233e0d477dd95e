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
// a temporary and is never written: Pin and Retain withdraw the declaration.
// What the run made comes back once its last holder (a name, a reuse slot)
// has let go, if no unevaluated expression reads it (Retire); the buffers idle
// when the run ends serve the next run (HandOver).

// Temp declares d a temporary and returns it. The caller vouches that it
// holds the only reference to d and to d's matrix.
func (d *DistMatrix) Temp() *DistMatrix {
	d.temp = true
	return d
}

// Pin is Retain for a holder that reads cells, and returns d materialised.
func (d *DistMatrix) Pin() *DistMatrix {
	d.force()
	return d.Retain()
}

// Retain withdraws Temp for a holder and returns d as it is, deferred or not;
// holds counts the holders of a value the run made (a temporary till then).
func (d *DistMatrix) Retain() *DistMatrix {
	if d.temp || d.holds > 0 {
		d.temp, d.holds = false, d.holds+1
	}
	return d
}

// Retire lets one holder of d go. When the last holder of a value the run made
// lets go and no unevaluated expression reads it (deferred.go: loans), d and
// its fused transpose are emptied like consumed temporaries and their buffers
// go to the free list; Retire returns d's. Anything else — nil, an input, a
// cache hit, a value held or lent still, one still deferred — is left as it
// is; so is recovery state, since nothing uses a retired value.
func (d *DistMatrix) Retire() []float64 {
	if d == nil || d.holds == 0 || d.holds == 1 && d.loans > 0 {
		return nil
	}
	if d.holds--; d.holds > 0 || d.data == nil {
		return nil
	}
	d.fused.Retire()
	buf := d.data.Buffer()
	d.data, d.fused = nil, nil
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

// Fused returns the transpose TransposeFused keeps with d, for the tests.
func (d *DistMatrix) Fused() *DistMatrix { return d.fused }

// Idle returns the buffers on the free list: what the ownership tests check
// no retained value shares.
func (ctx *Context) Idle() [][]float64 {
	var all [][]float64
	for _, l := range ctx.free {
		all = append(all, l...)
	}
	return all
}
