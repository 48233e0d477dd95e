package matrix_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"remac/internal/matrix"
	"remac/internal/sparsity"
)

// Microbenchmarks of the local kernels at the operand shapes the workloads
// run: the 870- and 1500-column quasi-Newton updates (outer product,
// mat-vec, vec-mat, scale, add), GNMF's and GD's skinny products over
// half-zero data, the 2000×870 CSR data matrices (uniform and zipf-skewed,
// and cri2's sparser one times a vector), and the metadata reads that
// follow every kernel. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/matrix

var sink any // keeps results alive

func benchOp(b *testing.B, f func() *matrix.Matrix) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = f()
	}
}

func benchMul(b *testing.B, x, y *matrix.Matrix) {
	b.Helper()
	benchOp(b, func() *matrix.Matrix { return x.Mul(y) })
}

func BenchmarkMulDenseDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{870, 1500} {
		h := matrix.RandDense(rng, n, n)
		col := matrix.RandVector(rng, n)
		row := col.Transpose()
		b.Run(fmt.Sprintf("outer/%d", n), func(b *testing.B) { benchMul(b, col, row) })
		b.Run(fmt.Sprintf("matvec/%d", n), func(b *testing.B) { benchMul(b, h, col) })
		b.Run(fmt.Sprintf("vecmat/%d", n), func(b *testing.B) { benchMul(b, row, h) })
		if n == 1500 { // one Inf in the vector: the mat-vec keeps its zero skip
			bad := col.Clone()
			bad.Set(n/2, 0, math.Inf(1))
			b.Run("matvec/1500/nonfinite", func(b *testing.B) { benchMul(b, h, bad) })
		}
	}
	w := matrix.RandDense(rng, 4000, 47)
	hh := matrix.RandDense(rng, 47, 10)
	b.Run("tall/4000x47x10", func(b *testing.B) { benchMul(b, w, hh) })
	sq := matrix.RandDense(rng, 870, 870)
	b.Run("square/870", func(b *testing.B) { benchMul(b, sq, sq) })
	// GD's AᵀA and GNMF's Wᵀ·V, Wᵀ·W and V·Hᵀ, over data matrices stored
	// dense but filled as cri1 (60 %) and red1 (51 %) are: the zero skip's
	// shapes, which a fully filled operand never takes.
	red1, cri1 := filledDense(rng, 4000, 34, 0.51), filledDense(rng, 4000, 47, 0.6)
	red1T, wT4000 := red1.Transpose(), matrix.RandDense(rng, 10, 4000)
	w2000 := matrix.RandDense(rng, 2000, 10)
	wT2000 := w2000.Transpose()
	b.Run("AtA/red1", func(b *testing.B) { benchMul(b, red1T, red1) })
	b.Run("WtV/cri1", func(b *testing.B) { benchMul(b, wT4000, cri1) })
	b.Run("WtW", func(b *testing.B) { benchMul(b, wT2000, w2000) })
	b.Run("VHt/cri1", func(b *testing.B) { benchMul(b, cri1, hh) })
	// GNMF's W·(H·Hᵀ) over a 4000-row V (cri1, red1), its H·Hᵀ over cri3's
	// 1500 columns, and its Wᵀ·V on red1: outputs of 10 and 34 columns.
	h1500, hh10 := matrix.RandDense(rng, 10, 1500), matrix.RandDense(rng, 10, 10)
	w4000 := matrix.RandDense(rng, 4000, 10)
	b.Run("WHHt", func(b *testing.B) { benchMul(b, w4000, hh10) })
	b.Run("HHt", func(b *testing.B) { benchMul(b, h1500, h1500.Transpose()) })
	b.Run("WtV/red1", func(b *testing.B) { benchMul(b, wT4000, red1) })
}

// filledDense returns a rows×cols dense matrix with about fill of its cells
// nonzero, drawn as the data generators draw cri1 and red1.
func filledDense(rng *rand.Rand, rows, cols int, fill float64) *matrix.Matrix {
	cells := make([]float64, rows*cols)
	for i := range cells {
		if rng.Float64() < fill {
			cells[i] = 2*rng.Float64() - 1
		}
	}
	return matrix.NewDenseData(rows, cols, cells)
}

func BenchmarkMulSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	uniform := matrix.RandSparse(rng, 2000, 870, 0.02)
	zipf := matrix.ZipfSparse(rng, 2000, 870, 0.02, 2.1)
	dense := matrix.RandDense(rng, 870, 870)
	fat := matrix.RandDense(rng, 870, 2000)
	vec := matrix.RandVector(rng, 870)
	cri2 := matrix.RandSparse(rng, 2000, 870, 4.5e-3) // cri2's shape: the CSR·vector the workloads run
	b.Run("csr_dense/uniform", func(b *testing.B) { benchMul(b, uniform, dense) })
	b.Run("csr_dense/zipf", func(b *testing.B) { benchMul(b, zipf, dense) })
	b.Run("csr_vec", func(b *testing.B) { benchMul(b, uniform, vec) })
	b.Run("csr_vec/cri2", func(b *testing.B) { benchMul(b, cri2, vec) })
	b.Run("dense_csr", func(b *testing.B) { benchMul(b, fat, uniform) })
	b.Run("csr_csr", func(b *testing.B) { benchMul(b, uniform.Transpose(), uniform) })
}

func BenchmarkDenseOps(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := matrix.RandDense(rng, 870, 870)
	y := matrix.RandDense(rng, 870, 870)
	b.Run("add/870", func(b *testing.B) { benchOp(b, func() *matrix.Matrix { return x.Add(y) }) })
	b.Run("elemmul/870", func(b *testing.B) { benchOp(b, func() *matrix.Matrix { return x.ElemMul(y) }) })
	b.Run("scale/870", func(b *testing.B) { benchOp(b, func() *matrix.Matrix { return x.Scale(2) }) })
	b.Run("transpose/870", func(b *testing.B) { benchOp(b, x.Transpose) })
	b.Run("clone/870", func(b *testing.B) { benchOp(b, x.Clone) })
}

// BenchmarkDestinations times the kernels the quasi-Newton updates end in
// three ways: allocating (fresh), into a buffer some dead value left behind
// (dirty), and over an operand's own buffer (inplace, where the operator
// allows it). Results that are handed a destination do not allocate one.
func BenchmarkDestinations(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := matrix.RandDense(rng, 870, 870)
	own := x.Clone() // overwritten by the in-place cases
	spare := make([]float64, 870*870)
	zeros := matrix.NewDense(870, 870)
	for _, c := range []struct {
		name string
		dst  []float64
		left *matrix.Matrix
	}{{"fresh", nil, x}, {"dirty", spare, x}, {"inplace", own.Buffer(), own}} {
		dst, left := c.dst, c.left
		// Scaling by one and adding zeros keep the in-place operand's cells
		// what they were, whatever b.N is.
		b.Run("scale/870/"+c.name, func(b *testing.B) {
			benchOp(b, func() *matrix.Matrix { return left.ScaleInto(dst, 1) })
		})
		b.Run("add/870/"+c.name, func(b *testing.B) {
			benchOp(b, func() *matrix.Matrix { return left.AddInto(dst, zeros) })
		})
	}
	for _, n := range []int{870, 1500} {
		col := matrix.RandVector(rng, n)
		row := col.Transpose()
		into := make([]float64, n*n)
		b.Run(fmt.Sprintf("outer/%d/fresh", n), func(b *testing.B) { benchMul(b, col, row) })
		b.Run(fmt.Sprintf("outer/%d/dirty", n), func(b *testing.B) {
			benchOp(b, func() *matrix.Matrix { return col.MulInto(into, row) })
		})
	}
}

// BenchmarkCompactFreshProduct is the format decision every operator ends
// in, on a result no one has looked at yet: the multiply runs off the clock.
func BenchmarkCompactFreshProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	col := matrix.RandVector(rng, 870)
	row := col.Transpose()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prod := col.Mul(row)
		b.StartTimer()
		sink = prod.Compact()
	}
}

func BenchmarkMetaOf(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dense := matrix.RandDense(rng, 870, 870)
	csr := matrix.RandSparse(rng, 2000, 870, 0.02)
	cells := make([]float64, 870*870)
	for i := range cells {
		cells[i] = rng.Float64()
	}
	metaOf := func(get func() *matrix.Matrix) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = sparsity.MetaOf(get())
			}
		}
	}
	// cold: a matrix nothing has been asked of yet (wrapping the same
	// cells each time costs nothing).
	b.Run("dense/cold", metaOf(func() *matrix.Matrix { return matrix.NewDenseData(870, 870, cells) }))
	b.Run("dense/repeat", metaOf(func() *matrix.Matrix { return dense }))
	b.Run("csr/repeat", metaOf(func() *matrix.Matrix { return csr }))
}

// BenchmarkDeferredUpdate times the tail of one quasi-Newton iteration — the
// 6 n×n operators of DFP's H − (u·vᵀ)·c + (d·dᵀ)·c' and the 9 of BFGS's
// H + (s·sᵀ)·c·c' − (S + Sᵀ)·c″, S = (H·y)·sᵀ — as the eager operator
// sequence and as one deferred expression. fresh allocates every n×n value
// (the expression: its one result); recycled is what a run reaches once its
// free list is warm: the eager temporaries overwritten in place over two
// spare buffers, the expression evaluated into one. shape/… are the operand
// shapes a ± computes as it goes instead of reading them from a pass of their
// own, one at a time, into a recycled destination: a product on both sides,
// a product under two scales, a transposed product.
func BenchmarkDeferredUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{870, 1500} {
		h := matrix.RandDense(rng, n, n)
		u, d, hy := matrix.RandVector(rng, n), matrix.RandVector(rng, n), matrix.RandVector(rng, n)
		v, dT := matrix.RandVector(rng, n).Transpose(), d.Transpose()
		bufs := [][]float64{make([]float64, n*n), make([]float64, n*n)}
		for _, recycled := range []bool{false, true} {
			// spare is the destination of an operator with no dead operand, on
			// that of one whose operand is dead: a spare buffer and the
			// operand's own when recycling, fresh ones otherwise.
			name := "fresh"
			spare := func(int) []float64 { return nil }
			on := func(*matrix.Matrix) []float64 { return nil }
			if recycled {
				name = "recycled"
				spare = func(i int) []float64 { return bufs[i] }
				on = (*matrix.Matrix).Buffer
			}
			b.Run(fmt.Sprintf("dfp/%d/eager/%s", n, name), func(b *testing.B) {
				benchOp(b, func() *matrix.Matrix {
					t := u.MulInto(spare(0), v)
					t = t.ScaleInto(on(t), 0.5)
					t = h.SubInto(on(t), t)
					w := d.MulInto(spare(1), dT)
					w = w.ScaleInto(on(w), 0.25)
					return t.AddInto(on(t), w)
				})
			})
			b.Run(fmt.Sprintf("dfp/%d/deferred/%s", n, name), func(b *testing.B) {
				benchOp(b, func() *matrix.Matrix {
					e := matrix.Leaf(h).Sub(matrix.Outer(u, v).Scale(0.5)).Add(matrix.Outer(d, dT).Scale(0.25))
					return e.Eval(spare(0))
				})
			})
			b.Run(fmt.Sprintf("bfgs/%d/eager/%s", n, name), func(b *testing.B) {
				benchOp(b, func() *matrix.Matrix {
					t := d.MulInto(spare(0), dT)
					t = t.ScaleInto(on(t), 1.5)
					t = t.ScaleInto(on(t), 0.25)
					t = h.AddInto(on(t), t)
					s := hy.MulInto(spare(1), dT) // retained by a CSE reuse slot: not overwritten
					w := s.Transpose()
					w = s.AddInto(on(w), w)
					w = w.ScaleInto(on(w), 0.5)
					return t.SubInto(on(t), w)
				})
			})
			b.Run(fmt.Sprintf("bfgs/%d/deferred/%s", n, name), func(b *testing.B) {
				benchOp(b, func() *matrix.Matrix {
					s := matrix.Outer(hy, dT)
					e := matrix.Leaf(h).Add(matrix.Outer(d, dT).Scale(1.5).Scale(0.25)).Sub(s.Add(s.Transpose()).Scale(0.5))
					return e.Eval(spare(0))
				})
			})
		}
		for _, shape := range []struct {
			name  string
			build func() *matrix.Expr
		}{
			{"both", func() *matrix.Expr { return matrix.Leaf(h).Sub(matrix.Outer(u, v).Add(matrix.Outer(hy, dT))) }},
			{"twoscales", func() *matrix.Expr { return matrix.Leaf(h).Add(matrix.Outer(d, dT).Scale(1.5).Scale(0.25)) }},
			{"transposed", func() *matrix.Expr { return matrix.Leaf(h).Sub(matrix.Outer(hy, dT).Transpose().Scale(0.5)) }},
		} {
			b.Run(fmt.Sprintf("shape/%d/%s", n, shape.name), func(b *testing.B) {
				benchOp(b, func() *matrix.Matrix { return shape.build().Eval(bufs[0]) })
			})
		}
	}
}
