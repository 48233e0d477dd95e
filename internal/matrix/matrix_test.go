package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	if m.Format() != Dense {
		t.Fatalf("format = %v, want Dense", m.Format())
	}
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
}

func TestNewDenseDataLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "NewDenseData")
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestNewCSRValidation(t *testing.T) {
	defer expectPanic(t, "NewCSR bad rowPtr")
	NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1})
}

func TestNonPositiveDimsPanics(t *testing.T) {
	defer expectPanic(t, "zero dims")
	NewDense(0, 3)
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if r := recover(); r == nil {
		t.Fatalf("%s: expected panic", what)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d,%d] = %g, want %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestScalarValue(t *testing.T) {
	s := Scalar(2.5)
	if !s.IsScalar() || s.ScalarValue() != 2.5 {
		t.Fatalf("Scalar(2.5) broken: %v", s)
	}
	defer expectPanic(t, "ScalarValue on non-scalar")
	NewDense(2, 2).ScalarValue()
}

func TestAtCSRBinarySearch(t *testing.T) {
	// 2x4 with nonzeros at (0,1)=5, (0,3)=7, (1,0)=2
	m := NewCSR(2, 4, []int{0, 2, 3}, []int{1, 3, 0}, []float64{5, 7, 2})
	cases := []struct {
		i, j int
		want float64
	}{{0, 0, 0}, {0, 1, 5}, {0, 2, 0}, {0, 3, 7}, {1, 0, 2}, {1, 3, 0}}
	for _, c := range cases {
		if got := m.At(c.i, c.j); got != c.want {
			t.Errorf("At(%d,%d) = %g, want %g", c.i, c.j, got, c.want)
		}
	}
}

func TestSetOnSparsePanics(t *testing.T) {
	m := NewCSR(1, 1, []int{0, 0}, nil, nil)
	defer expectPanic(t, "Set on CSR")
	m.Set(0, 0, 1)
}

func TestDenseCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := RandSparse(rng, 17, 23, 0.2).ToDense()
	back := d.ToCSR().ToDense()
	if !d.Equal(back) {
		t.Fatal("dense -> CSR -> dense round trip changed values")
	}
}

func TestCompactChoosesFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sparse := RandSparse(rng, 50, 50, 0.05).Compact()
	if sparse.Format() != CSR {
		t.Errorf("5%% sparsity should stay CSR, got %v", sparse.Format())
	}
	dense := RandDense(rng, 20, 20).Compact()
	if dense.Format() != Dense {
		t.Errorf("dense random should stay dense, got %v", dense.Format())
	}
}

func TestSizeBytesMonotonicInSparsity(t *testing.T) {
	prev := int64(0)
	for _, s := range []float64{0.001, 0.01, 0.1, 0.3} {
		size := SizeBytesFor(1000, 1000, s)
		if size <= prev {
			t.Fatalf("SizeBytesFor not increasing at sparsity %g: %d <= %d", s, size, prev)
		}
		prev = size
	}
	// Dense threshold: above 0.4 the size is the dense size regardless.
	if SizeBytesFor(100, 100, 0.5) != SizeBytesFor(100, 100, 0.9) {
		t.Fatal("dense sizes should not depend on sparsity")
	}
}

func TestMulSmallKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Mul mismatch")
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestMulAllFormatPairsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandSparse(rng, 13, 9, 0.3)
	b := RandSparse(rng, 9, 11, 0.3)
	ref := mulDenseDense(nil, a.ToDense(), b.ToDense(), vectorLoops)
	for _, pair := range []struct {
		name string
		got  *Matrix
	}{
		{"csr-dense", mulCSRDense(nil, a.ToCSR(), b.ToDense())},
		{"dense-csr", mulDenseCSR(nil, a.ToDense(), b.ToCSR())},
		{"csr-csr", mulCSRCSR(a.ToCSR(), b.ToCSR())},
	} {
		if !pair.got.ApproxEqual(ref, 1e-12) {
			t.Errorf("%s disagrees with dense reference", pair.name)
		}
	}
}

func TestMulLargeParallelStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandDense(rng, 200, 40)
	b := RandDense(rng, 40, 30)
	got := a.Mul(b)
	// Spot check a few entries against a scalar loop.
	for _, idx := range [][2]int{{0, 0}, {199, 29}, {100, 15}} {
		want := 0.0
		for k := 0; k < 40; k++ {
			want += a.At(idx[0], k) * b.At(k, idx[1])
		}
		if math.Abs(got.At(idx[0], idx[1])-want) > 1e-9 {
			t.Fatalf("entry (%d,%d) = %g, want %g", idx[0], idx[1], got.At(idx[0], idx[1]), want)
		}
	}
}

func TestTransposeKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose dims = %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at)
	}
}

func TestTransposeCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandSparse(rng, 15, 7, 0.25)
	if !a.Transpose().ToDense().Equal(a.ToDense().Transpose()) {
		t.Fatal("CSR transpose disagrees with dense transpose")
	}
}

func TestAddSubElemOps(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	if !a.Add(b).Equal(NewDenseData(2, 2, []float64{6, 8, 10, 12})) {
		t.Error("Add wrong")
	}
	if !b.Sub(a).Equal(NewDenseData(2, 2, []float64{4, 4, 4, 4})) {
		t.Error("Sub wrong")
	}
	if !a.ElemMul(b).Equal(NewDenseData(2, 2, []float64{5, 12, 21, 32})) {
		t.Error("ElemMul wrong")
	}
	if !b.ElemDiv(a).ApproxEqual(NewDenseData(2, 2, []float64{5, 3, 7.0 / 3, 2}), 1e-12) {
		t.Error("ElemDiv wrong")
	}
}

func TestAddCSRPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandSparse(rng, 20, 20, 0.1)
	b := RandSparse(rng, 20, 20, 0.1)
	if !a.Add(b).ToDense().ApproxEqual(a.ToDense().Add(b.ToDense()).ToDense(), 1e-12) {
		t.Error("CSR Add disagrees with dense Add")
	}
	if !a.Sub(b).ToDense().ApproxEqual(a.ToDense().Sub(b.ToDense()).ToDense(), 1e-12) {
		t.Error("CSR Sub disagrees with dense Sub")
	}
	// a - a must be empty.
	if nnz := a.Sub(a).NNZ(); nnz != 0 {
		t.Errorf("a-a has %d nonzeros", nnz)
	}
}

func TestElemMulSparseStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandSparse(rng, 30, 30, 0.05)
	b := RandDense(rng, 30, 30)
	got := a.ElemMul(b)
	want := a.ToDense().ElemMul(b)
	if !got.ToDense().ApproxEqual(want.ToDense(), 1e-12) {
		t.Fatal("sparse ElemMul disagrees with dense")
	}
}

func TestScaleAndNeg(t *testing.T) {
	a := NewDenseData(1, 3, []float64{1, -2, 3})
	if !a.Scale(2).Equal(NewDenseData(1, 3, []float64{2, -4, 6})) {
		t.Error("Scale wrong")
	}
	if !a.Neg().Equal(NewDenseData(1, 3, []float64{-1, 2, -3})) {
		t.Error("Neg wrong")
	}
	if a.Scale(0).NNZ() != 0 {
		t.Error("Scale(0) should be empty")
	}
	rng := rand.New(rand.NewSource(8))
	s := RandSparse(rng, 10, 10, 0.2)
	if !s.Scale(3).ToDense().ApproxEqual(s.ToDense().Scale(3), 1e-12) {
		t.Error("CSR Scale disagrees")
	}
}

func TestSumAndNorm(t *testing.T) {
	a := NewDenseData(2, 2, []float64{3, 4, 0, 0})
	if a.Sum() != 7 {
		t.Errorf("Sum = %g, want 7", a.Sum())
	}
	if math.Abs(a.FrobeniusNorm()-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %g, want 5", a.FrobeniusNorm())
	}
	s := a.ToCSR()
	if s.Sum() != 7 || math.Abs(s.FrobeniusNorm()-5) > 1e-12 {
		t.Error("CSR Sum/Norm disagree")
	}
}

func TestAddScalar(t *testing.T) {
	a := NewCSR(2, 2, []int{0, 1, 1}, []int{0}, []float64{1})
	got := a.AddScalar(1)
	want := NewDenseData(2, 2, []float64{2, 1, 1, 1})
	if !got.ToDense().Equal(want) {
		t.Fatalf("AddScalar: got %v", got)
	}
}

func TestIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if !RandSymmetric(rng, 8).IsSymmetric(1e-12) {
		t.Error("RandSymmetric not symmetric")
	}
	if RandDense(rng, 8, 8).IsSymmetric(1e-12) {
		t.Error("random dense reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Error("non-square reported symmetric")
	}
}

func TestRowColNNZCounts(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 0, 2, 0, 0, 3})
	rows, cols := countsOf(m)
	if rows[0] != 2 || rows[1] != 1 {
		t.Errorf("row counts = %v", rows)
	}
	if cols[0] != 1 || cols[1] != 0 || cols[2] != 2 {
		t.Errorf("column counts = %v", cols)
	}
	s := m.ToCSR()
	rows2, cols2 := countsOf(s)
	for i := range rows {
		if rows[i] != rows2[i] {
			t.Error("CSR row counts disagree")
		}
	}
	for j := range cols {
		if cols[j] != cols2[j] {
			t.Error("CSR column counts disagree")
		}
	}
}

func TestDenseRow(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.DenseRow(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("DenseRow = %v", row)
	}
	s := m.ToCSR()
	srow := s.DenseRow(1)
	for j := range row {
		if row[j] != srow[j] {
			t.Error("CSR DenseRow disagrees")
		}
	}
}

func TestRandSparseSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := RandSparse(rng, 500, 500, 0.05)
	s := m.Sparsity()
	if s < 0.04 || s > 0.06 {
		t.Fatalf("sparsity = %g, want ~0.05", s)
	}
}

func TestZipfSparseSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows, cols := 2000, 500
	m := ZipfSparse(rng, rows, cols, 0.005, 2.8)
	// Check overall nnz is near target.
	target := int(float64(rows*cols) * 0.005)
	if m.NNZ() != target {
		t.Fatalf("nnz = %d, want %d", m.NNZ(), target)
	}
	// With exponent 2.8 the top 5% of rows should hold > 80% of nonzeros
	// (paper says >95% for rows AND columns jointly at 2.8; per-axis we
	// assert a looser bound, and per-row quotas are capped at cols/10 so
	// heavy rows stay dense-but-not-full).
	counts, _ := countsOf(m)
	counts = append([]int(nil), counts...)
	sortDescInts(counts)
	top := 0
	for i := 0; i < rows/20; i++ {
		top += counts[i]
	}
	if frac := float64(top) / float64(m.NNZ()); frac < 0.8 {
		t.Fatalf("top 5%% rows hold %.2f of nnz, want > 0.8", frac)
	}
	// No row exceeds the cap.
	if counts[0] > cols/10 {
		t.Fatalf("heaviest row holds %d nnz, cap is %d", counts[0], cols/10)
	}
	// Exponent 0 must be uniform-ish: top 5% of rows near 5% of nnz.
	u := ZipfSparse(rng, rows, cols, 0.005, 0)
	ucounts, _ := countsOf(u)
	ucounts = append([]int(nil), ucounts...)
	sortDescInts(ucounts)
	utop := 0
	for i := 0; i < rows/20; i++ {
		utop += ucounts[i]
	}
	if frac := float64(utop) / float64(u.NNZ()); frac > 0.15 {
		t.Fatalf("uniform top-5%% rows hold %.2f of nnz, want < 0.15", frac)
	}
}

func sortDescInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func TestApproxEqualShapes(t *testing.T) {
	if NewDense(2, 2).ApproxEqual(NewDense(2, 3), 1) {
		t.Error("different shapes reported equal")
	}
}

func TestStringForms(t *testing.T) {
	small := NewDenseData(1, 2, []float64{1, 2})
	if got := small.String(); got == "" {
		t.Error("empty String for small matrix")
	}
	big := NewDense(100, 100)
	if got := big.String(); got == "" {
		t.Error("empty String for big matrix")
	}
	if Dense.String() != "dense" || CSR.String() != "sparse" {
		t.Error("Format.String wrong")
	}
}

func TestMulFLOPModel(t *testing.T) {
	// 3*R*C*C'*S_U*S_V per §4.2.
	got := MulFLOP(10, 20, 30, 0.5, 0.1)
	want := 3.0 * 10 * 20 * 30 * 0.5 * 0.1
	if got != want {
		t.Fatalf("MulFLOP = %g, want %g", got, want)
	}
}
