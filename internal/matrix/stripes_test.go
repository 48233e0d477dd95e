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
// is the same at GOMAXPROCS 1, 2, 3 and 8. Every case is sized from
// MinStripeCells to carry at least eight stripes' worth of its kernel's work
// prefix, and the test checks that it does, so that each kernel really splits
// at every count above one.
func TestKernelsIndependentOfStripeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(41))
	const least = 8 * MinStripeCells
	const rows = 520
	const wide = least/rows + 1 // a row of this many cells, rows of them carry least

	matVec := genDense(rng, rows, wide, fillSpecial)
	finiteX := genDense(rng, wide, 1, fillZeros)
	nonFiniteX := genDense(rng, wide, 1, fillZeros)
	nonFiniteX.data[3], nonFiniteX.data[11] = math.Inf(1), math.NaN()
	outerX, outerY := genDense(rng, rows, 1, fillZeros), genDense(rng, 1, wide, fillPlain)
	fewRows, fewWide := genDense(rng, 2, 20, fillZeros), genDense(rng, 20, least/40+1, fillPlain)
	tall, narrow := genDense(rng, rows, 13, fillZeros), genDense(rng, 13, 40, fillSpecial)
	// The few-row path over long k (k-blocks, each stripe in a private
	// tile), with and without zeros to skip, and with more columns than one
	// tile holds; the row path at a narrow p over a half-zero operand.
	longA, longB := genHalf(rng, 10, 4000), genDense(rng, 4000, 10, fillPlain)
	poisonSkipped(rng, longA, longB)
	fullA := genDense(rng, 10, 4000, fillPlain)
	chunkA, chunkB := genHalf(rng, 34, 300), genDense(rng, 300, 2*tileCells/34+5, fillZeros)
	halfTall, narrowB := genHalf(rng, rows, 47), genDense(rng, 47, 10, fillPlain)
	fullTall := genDense(rng, rows+1, 13, fillPlain)
	sparseA, sparseB := RandSparse(rng, rows, 4*wide, 0.3), RandSparse(rng, 4*wide, 60, 0.05)
	denseB, denseA := genDense(rng, 4*wide, 30, fillPlain), genDense(rng, rows, 4*wide, fillZeros)
	cellsA, cellsB := genDense(rng, rows, wide, fillSpecial), genDense(rng, rows, wide, fillZeros)
	toTranspose := genDense(rng, wide, rows, fillSpecial)

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

	// Each case's work is its kernel's prefix at the end of the range.
	nnzA, nnzB := sparseA.rowPtr[rows], len(sparseB.vals)
	cells := rows * wide
	tiles := (toTranspose.cols + transposeTile - 1) / transposeTile
	cases := []struct {
		name string
		work int
		run  func() *Matrix
	}{
		{"mat-vec, finite x", rows * wide, func() *Matrix { return matVec.Mul(finiteX) }},
		{"mat-vec, non-finite x", rows * wide, func() *Matrix { return matVec.Mul(nonFiniteX) }},
		{"outer product", rows * wide, func() *Matrix { return outerX.Mul(outerY) }},
		{"column-striped, few rows", fewWide.cols * 2 * 20, func() *Matrix { return fewRows.Mul(fewWide) }},
		{"few rows, long k, half zero", 10 * 10 * 4000, func() *Matrix { return longA.Mul(longB) }},
		{"few rows, long k, no zero", 10 * 10 * 4000, func() *Matrix { return fullA.MulInto(dirty(100), longB) }},
		{"few rows, columns in chunks", chunkB.cols * 34 * 300, func() *Matrix { return chunkA.Mul(chunkB) }},
		{"k-unrolled", rows * 13 * 40, func() *Matrix { return tall.Mul(narrow) }},
		{"k-unrolled, narrow, half zero", rows * 47 * 10, func() *Matrix { return halfTall.Mul(narrowB) }},
		{"k-unrolled, rows in pairs", (rows + 1) * 13 * 40, func() *Matrix { return fullTall.MulInto(dirty((rows+1)*40), narrow) }},
		{"k-unrolled into a dirty destination", rows * 13 * 40, func() *Matrix { return tall.MulInto(dirty(rows*40), narrow) }},
		{"csr·dense", (nnzA + rows) * 30, func() *Matrix { return sparseA.Mul(denseB) }},
		{"dense·csr", rows * (60 + nnzB), func() *Matrix { return denseA.Mul(sparseB) }},
		{"csr·csr", nnzA + rows, func() *Matrix { return sparseA.Mul(sparseB) }},
		{"transpose", tiles * toTranspose.rows * transposeTile, func() *Matrix { return toTranspose.Transpose() }},
		{"add", cells, func() *Matrix { return cellsA.Add(cellsB) }},
		{"sub", cells, func() *Matrix { return cellsA.Sub(cellsB) }},
		{"elem-mul", cells, func() *Matrix { return cellsA.ElemMul(cellsB) }},
		{"elem-div", cells, func() *Matrix { return cellsA.ElemDiv(cellsB) }},
		{"scale", cells, func() *Matrix { return cellsA.Scale(-0.5) }},
		{"add-scalar", cells, func() *Matrix { return cellsB.AddScalar(1e-300) }},
		{"DFP tail", n * n, func() *Matrix { return dfp.Eval(nil) }},
		{"BFGS tail", n * n, func() *Matrix { return bfgs.Eval(dirty(n * n)) }},
	}
	for _, c := range cases {
		if c.work < least {
			t.Fatalf("%s carries %d work, under the %d that eight stripes need", c.name, c.work, least)
		}
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
