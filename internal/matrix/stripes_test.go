package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestKernelsIndependentOfStripeCount: every kernel that stripes builds each
// output cell the same way whatever the number of stripes, so a result — cell
// bits (a NaN's payload aside, see requireSameBits), format, nonzero count —
// is the same at GOMAXPROCS 1, 2, 3 and 8. The shapes are past
// minStripeRows·8 rows or MinStripeCells cells, so that each kernel really
// splits at every count above one.
func TestKernelsIndependentOfStripeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(41))
	const rows = 8*minStripeRows + 8

	matVec := genDense(rng, rows, 20, fillSpecial)
	finiteX := genDense(rng, 20, 1, fillZeros)
	nonFiniteX := genDense(rng, 20, 1, fillZeros)
	nonFiniteX.data[3], nonFiniteX.data[11] = math.Inf(1), math.NaN()
	outerX, outerY := genDense(rng, rows, 1, fillZeros), genDense(rng, 1, 50, fillPlain)
	fewRows, wide := genDense(rng, 2, 20, fillZeros), genDense(rng, 20, 1000, fillPlain)
	tall, narrow := genDense(rng, rows, 13, fillZeros), genDense(rng, 13, 40, fillSpecial)
	sparseA, sparseB := RandSparse(rng, rows, 80, 0.05), RandSparse(rng, 80, 60, 0.05)
	denseB, denseA := genDense(rng, 80, 30, fillPlain), genDense(rng, rows, 80, fillZeros)
	cellsA, cellsB := genDense(rng, rows, 40, fillSpecial), genDense(rng, rows, 40, fillZeros)
	toTranspose := genDense(rng, 300, rows, fillSpecial)

	// The quasi-Newton tails as the engine defers them, which compile to the
	// fused DFP and BFGS loops.
	const n = rows
	h := genDense(rng, n, n, fillPlain)
	vector := func() *Matrix { return genDense(rng, n, 1, fillPlain) }
	u, d, hy := vector(), vector(), vector()
	v, dT := vector().Transpose(), d.Transpose()
	s := Outer(hy, dT)
	dfp := Leaf(h).Sub(Outer(u, v).Scale(0.5)).Add(Outer(d, dT).Scale(0.25))
	bfgs := Leaf(h).Add(Outer(d, dT).Scale(1.5).Scale(0.25)).Sub(s.Add(s.Transpose()).Scale(0.5))

	cases := []struct {
		name string
		run  func() *Matrix
	}{
		{"mat-vec, finite x", func() *Matrix { return matVec.Mul(finiteX) }},
		{"mat-vec, non-finite x", func() *Matrix { return matVec.Mul(nonFiniteX) }},
		{"outer product", func() *Matrix { return outerX.Mul(outerY) }},
		{"column-striped, few rows", func() *Matrix { return fewRows.Mul(wide) }},
		{"k-unrolled", func() *Matrix { return tall.Mul(narrow) }},
		{"k-unrolled into a dirty destination", func() *Matrix { return tall.MulInto(dirty(rows*40), narrow) }},
		{"csr·dense", func() *Matrix { return sparseA.Mul(denseB) }},
		{"dense·csr", func() *Matrix { return denseA.Mul(sparseB) }},
		{"csr·csr", func() *Matrix { return sparseA.Mul(sparseB) }},
		{"transpose", func() *Matrix { return toTranspose.Transpose() }},
		{"add", func() *Matrix { return cellsA.Add(cellsB) }},
		{"sub", func() *Matrix { return cellsA.Sub(cellsB) }},
		{"elem-mul", func() *Matrix { return cellsA.ElemMul(cellsB) }},
		{"elem-div", func() *Matrix { return cellsA.ElemDiv(cellsB) }},
		{"scale", func() *Matrix { return cellsA.Scale(-0.5) }},
		{"add-scalar", func() *Matrix { return cellsB.AddScalar(1e-300) }},
		{"DFP tail", func() *Matrix { return dfp.Eval(nil) }},
		{"BFGS tail", func() *Matrix { return bfgs.Eval(dirty(n * n)) }},
	}
	var want []*Matrix
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			got := c.run()
			if procs == 1 {
				want = append(want, got)
				continue
			}
			ctx := fmt.Sprintf("%s at GOMAXPROCS %d", c.name, procs)
			requireSameBits(t, ctx, got, want[i])
			if got.Format() != want[i].Format() || got.NNZ() != want[i].NNZ() {
				t.Fatalf("%s: %v nnz %d, want %v nnz %d", ctx, got.Format(), got.NNZ(), want[i].Format(), want[i].NNZ())
			}
		}
	}
}
