package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The destination forms of the kernels against the allocating forms and the
// reference kernels of reference_test.go: a destination full of NaN must
// leave no trace, an operand's own buffer (where the operator allows it)
// must give the cells a fresh output would have, and the result's format and
// nonzero count must be those of the cells it holds now, not of what the
// buffer held before.

// dirty returns n cells of NaN.
func dirty(n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

// copyOf returns a dense matrix over a copy of m's cells, whose buffer a test
// may give away.
func copyOf(m *Matrix) *Matrix {
	return NewDenseData(m.rows, m.cols, append([]float64(nil), m.data...))
}

// requireSameAsAllocating fails unless got, a destination form's result, is
// what the allocating form returned: cells, format, nonzero count. A dense
// result must be built on dst (nil: the operator has a CSR kernel for these
// operands and densifies, if at all, into a buffer of its own).
func requireSameAsAllocating(t *testing.T, ctx string, got, want *Matrix, dst []float64) {
	t.Helper()
	requireSameBits(t, ctx, got, want)
	if got.Format() != want.Format() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %v nnz %d, want %v nnz %d", ctx, got.Format(), got.NNZ(), want.Format(), want.NNZ())
	}
	if got.Format() == Dense {
		if dst != nil && &got.data[0] != &dst[0] {
			t.Fatalf("%s: dense result not built on its destination", ctx)
		}
		requireFreshCounts(t, ctx, got)
	}
}

func TestMulIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ks := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 64}
	// As TestMulDenseDenseMatchesReference: rows around the 64-row striping
	// threshold, p = 1 (mat-vec), one and three rows wide enough to stripe
	// their columns.
	shapes := [][2]int{{1, 1}, {1, 5}, {1, 400}, {3, 700}, {5, 3}, {63, 1}, {64, 1}, {65, 1}, {130, 1},
		{63, 6}, {64, 5}, {65, 9}, {130, 17}}
	for _, sh := range shapes {
		for _, k := range ks {
			for kind := fillPlain; kind <= fillSpecial; kind++ {
				n, p := sh[0], sh[1]
				a, b := genDense(rng, n, k, kind), genDense(rng, k, p, kind)
				if kind == fillZeros {
					// Zeros in A only: skipped rows of the outer product (k = 1),
					// skipped steps everywhere else.
					b = genDense(rng, k, p, fillPlain)
				}
				ctx := fmt.Sprintf("%dx%d·%dx%d kind %d", n, k, k, p, kind)
				dst := dirty(n * p)
				got := a.MulInto(dst, b)
				requireSameResult(t, ctx, got, refMulDenseDense(a, b))
				requireSameAsAllocating(t, ctx, got, a.Mul(b), dst)
			}
		}
	}
	// An outer product most of whose rows are skipped compacts to CSR and
	// leaves the destination behind.
	x, y := NewDense(90, 1), genDense(rng, 1, 70, fillPlain)
	x.data[3], x.data[64], x.data[89] = 2, -1, math.Inf(1)
	dst := dirty(90 * 70)
	got := x.MulInto(dst, y)
	requireSameResult(t, "sparse outer product", got, refMulDenseDense(x, y))
	if got.Format() != CSR {
		t.Fatalf("sparse outer product: format %v, want CSR", got.Format())
	}
}

// withoutFirstRow returns CSR m with its first row's entries dropped.
func withoutFirstRow(m *Matrix) *Matrix {
	cut := m.rowPtr[1]
	rowPtr := make([]int, len(m.rowPtr))
	for i := 1; i < len(rowPtr); i++ {
		rowPtr[i] = m.rowPtr[i] - cut
	}
	return NewCSR(m.rows, m.cols, rowPtr, m.colIdx[cut:], m.vals[cut:])
}

func TestMulIntoSparseOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range [][3]int{{1, 9, 5}, {63, 40, 7}, {64, 40, 1}, {130, 25, 33}, {200, 60, 90}} {
		n, k, p := sh[0], sh[1], sh[2]
		for _, s := range []float64{0.02, 0.3} {
			// RandSparse leaves rows empty at these sizes; the first row is
			// emptied for certain.
			sa := withoutFirstRow(RandSparse(rng, n, k, s))
			sb := RandSparse(rng, k, p, s)
			for kind := fillPlain; kind <= fillZeros; kind++ {
				da, db := genDense(rng, n, k, kind), genDense(rng, k, p, fillPlain)
				ctx := fmt.Sprintf("%dx%dx%d s=%g kind %d", n, k, p, s, kind)

				dst := dirty(n * p)
				got := sa.MulInto(dst, db)
				requireSameAsAllocating(t, "csr·dense "+ctx, got, sa.Mul(db), dst)
				requireSameResult(t, "csr·dense "+ctx, got, refMulDenseDense(sa.ToDense(), db))

				dst = dirty(n * p)
				got = da.MulInto(dst, sb)
				requireSameAsAllocating(t, "dense·csr "+ctx, got, da.Mul(sb), dst)
				requireSameResult(t, "dense·csr "+ctx, got, refMulDenseDense(da, sb.ToDense()))

				// CSR·CSR has no dense scratch: the destination is left alone.
				dst = dirty(n * p)
				requireSameAsAllocating(t, "csr·csr "+ctx, sa.MulInto(dst, sb), sa.Mul(sb), nil)
				if dst[0] == dst[0] {
					t.Fatalf("csr·csr %s wrote its destination", ctx)
				}
			}
		}
	}
}

func TestElementwiseIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ops := []struct {
		name string
		do   func(a *Matrix, dst []float64, b *Matrix) *Matrix
		ref  func(x, y float64) float64
	}{
		{"Add", (*Matrix).AddInto, func(x, y float64) float64 { return x + y }},
		{"Sub", (*Matrix).SubInto, func(x, y float64) float64 { return x - y }},
		{"ElemMul", (*Matrix).ElemMulInto, func(x, y float64) float64 { return x * y }},
		{"ElemDiv", (*Matrix).ElemDivInto, func(x, y float64) float64 { return x / y }},
	}
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {7, 3}, {127, 129}, {128, 128}, {300, 70}} {
		for kind := fillPlain; kind <= fillSpecial; kind++ {
			a, b := genDense(rng, sh[0], sh[1], kind), genDense(rng, sh[0], sh[1], kind)
			sp := RandSparse(rng, sh[0], sh[1], 0.3)
			for _, op := range ops {
				ctx := fmt.Sprintf("%s %dx%d kind %d", op.name, sh[0], sh[1], kind)
				want, ref := op.do(a, nil, b), refZipDense(a, b, op.ref)
				requireSameResult(t, ctx, want, ref)

				dst := dirty(len(a.data))
				requireSameAsAllocating(t, ctx+" dirty", op.do(a, dst, b), want, dst)
				left := copyOf(a)
				requireSameAsAllocating(t, ctx+" over the left operand", op.do(left, left.data, b), want, left.data)
				right := copyOf(b)
				requireSameAsAllocating(t, ctx+" over the right operand", op.do(a, right.data, right), want, right.data)

				// The same value on both sides (V ⊙ V, V − V), in place.
				both := copyOf(a)
				requireSameAsAllocating(t, ctx+" of a value with itself, in place", op.do(both, both.data, both), op.do(a, nil, a), both.data)

				// A CSR operand beside a dense one whose buffer is the destination.
				if op.name == "ElemDiv" {
					continue // sp / a and a / sp both go through the dense pass; covered by Add and Sub
				}
				for _, csrLeft := range []bool{false, true} {
					dense := copyOf(a)
					l, r, wl, wr := dense, sp, a, sp
					if csrLeft {
						l, r, wl, wr = sp, dense, sp, a
					}
					on := dense.data
					if op.name == "ElemMul" {
						on = nil // walks the CSR operand's structure instead
					}
					requireSameAsAllocating(t, fmt.Sprintf("%s with a CSR operand (left: %v), over the dense one", ctx, csrLeft),
						op.do(l, dense.data, r), op.do(wl, nil, wr), on)
				}
			}
			dst := dirty(len(a.data))
			requireSameAsAllocating(t, "csr+csr", sp.AddInto(dst, sp), sp.Add(sp), nil)

			for _, s := range []float64{2, -1, 0, 1e-320, math.Inf(1)} {
				ctx := fmt.Sprintf("(%g) %dx%d kind %d", s, sh[0], sh[1], kind)
				want := a.Scale(s)
				if s != 0 {
					requireSameBits(t, "Scale"+ctx, want, refScale(a, s))
				}
				dst := dirty(len(a.data))
				requireSameAsAllocating(t, "Scale"+ctx+" dirty", a.ScaleInto(dst, s), want, dst)
				own := copyOf(a)
				requireSameAsAllocating(t, "Scale"+ctx+" in place", own.ScaleInto(own.data, s), want, own.data)
				dst = dirty(len(a.data))
				requireSameAsAllocating(t, "Scale"+ctx+" of CSR", sp.ScaleInto(dst, s), sp.Scale(s), dst)

				want = a.AddScalar(s)
				requireSameResult(t, "AddScalar"+ctx, want, refAddScalar(a, s))
				dst = dirty(len(a.data))
				requireSameAsAllocating(t, "AddScalar"+ctx+" dirty", a.AddScalarInto(dst, s), want, dst)
				own = copyOf(a)
				requireSameAsAllocating(t, "AddScalar"+ctx+" in place", own.AddScalarInto(own.data, s), want, own.data)
				// A CSR receiver densifies into a buffer of its own.
				got := sp.AddScalarInto(dirty(len(a.data)), s)
				requireSameResult(t, "AddScalar"+ctx+" of CSR", got, refAddScalar(sp, s))
			}
		}
	}
}

func TestTransposeIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, sh := range [][2]int{{1, 1}, {1, 50}, {50, 1}, {3, 5}, {31, 33}, {32, 32}, {65, 97}, {200, 130}, {129, 300}} {
		m := genDense(rng, sh[0], sh[1], fillSpecial)
		m.nnzCounts() // the transpose carries the counts over, swapped
		ctx := fmt.Sprintf("Transpose %dx%d", sh[0], sh[1])
		dst := dirty(len(m.data))
		got := m.TransposeInto(dst)
		requireSameBits(t, ctx, got, refTranspose(m))
		requireSameAsAllocating(t, ctx, got, m.Transpose(), dst)
	}
	sp := RandSparse(rng, 40, 30, 0.2)
	dst := dirty(40 * 30)
	requireSameAsAllocating(t, "Transpose of CSR", sp.TransposeInto(dst), sp.Transpose(), dst)
}

func TestIntoRejectsAWrongSizedDestination(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a destination of the wrong length was accepted")
		}
	}()
	RandDense(rand.New(rand.NewSource(1)), 3, 3).ScaleInto(make([]float64, 8), 2)
}
