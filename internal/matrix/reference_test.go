package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The kernels this package shipped before they were specialised by shape,
// kept here as the reference the production kernels must reproduce bit for
// bit: same cells, same format decision, same nonzero count. They are the
// old bodies unchanged — one accumulation loop, a closure per cell, clone
// then scale, the naive transpose — and know nothing of carried counts.

func refMulDenseDense(a, b *Matrix) *Matrix {
	out := make([]float64, a.rows*b.cols)
	k, p := a.cols, b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out[i*p : (i+1)*p]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*p : (kk+1)*p]
			for j := 0; j < p; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return NewDenseData(a.rows, b.cols, out)
}

func refZipDense(a, b *Matrix, f func(x, y float64) float64) *Matrix {
	ad, bd := a.ToDense(), b.ToDense()
	out := make([]float64, a.rows*a.cols)
	for i := range out {
		out[i] = f(ad.data[i], bd.data[i])
	}
	return NewDenseData(a.rows, a.cols, out)
}

func refScale(m *Matrix, s float64) *Matrix {
	if m.format == Dense {
		out := append([]float64(nil), m.data...)
		for i := range out {
			out[i] *= s
		}
		return NewDenseData(m.rows, m.cols, out)
	}
	vals := append([]float64(nil), m.vals...)
	for i := range vals {
		vals[i] *= s
	}
	return NewCSR(m.rows, m.cols, m.rowPtr, m.colIdx, vals)
}

func refAddScalar(m *Matrix, s float64) *Matrix {
	out := append([]float64(nil), m.ToDense().data...)
	for i := range out {
		out[i] += s
	}
	return NewDenseData(m.rows, m.cols, out)
}

func refTranspose(m *Matrix) *Matrix {
	out := make([]float64, m.rows*m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return NewDenseData(m.cols, m.rows, out)
}

// wantCompacted is the format rule of Compact applied to an independent
// count of ref's cells.
func wantCompacted(ref *Matrix) (Format, int) {
	nnz, _, _ := scanCounts(ref)
	if float64(nnz)/(float64(ref.rows)*float64(ref.cols)) > DenseThreshold {
		return Dense, nnz
	}
	return CSR, nnz
}

// requireSameBits fails unless got holds exactly ref's cells. NaN cells must
// be NaN on both sides but may differ in payload: which operand's payload an
// addition of two NaNs propagates is the register allocator's choice, not
// the kernel's.
func requireSameBits(t *testing.T, ctx string, got, ref *Matrix) {
	t.Helper()
	if got.rows != ref.rows || got.cols != ref.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.rows, got.cols, ref.rows, ref.cols)
	}
	g, w := got.ToDense().data, ref.ToDense().data
	for i := range w {
		if math.Float64bits(g[i]) == math.Float64bits(w[i]) || (g[i] != g[i] && w[i] != w[i]) {
			continue
		}
		t.Fatalf("%s: cell (%d,%d) = %v (%#x), want %v (%#x)", ctx, i/ref.cols, i%ref.cols,
			g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
	}
}

// requireSameResult is requireSameBits plus the format and count a
// compacting operator must arrive at. A result that compacts to CSR stores
// no zeros, so there the sign of a zero is not part of the comparison.
func requireSameResult(t *testing.T, ctx string, got, ref *Matrix) {
	t.Helper()
	format, nnz := wantCompacted(ref)
	if format == CSR {
		ref = ref.ToCSR()
	}
	requireSameBits(t, ctx, got, ref)
	if got.Format() != format {
		t.Fatalf("%s: format %v, want %v", ctx, got.Format(), format)
	}
	if got.NNZ() != nnz {
		t.Fatalf("%s: NNZ %d, want %d", ctx, got.NNZ(), nnz)
	}
}

// fill kinds for the operand generator.
const (
	fillPlain   = iota // uniform in [-1, 1)
	fillZeros          // a third of the cells ±0
	fillSpecial        // zeros, subnormals, huge, tiny, NaN, ±Inf mixed in
)

var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	math.MaxFloat64, -math.MaxFloat64, 1e-200, -1e200,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func genDense(rng *rand.Rand, rows, cols, kind int) *Matrix {
	data := make([]float64, rows*cols)
	for i := range data {
		v := 2*rng.Float64() - 1
		switch kind {
		case fillZeros:
			if rng.Intn(3) == 0 {
				v = specials[rng.Intn(2)]
			}
		case fillSpecial:
			if rng.Intn(4) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
		}
		data[i] = v
	}
	return NewDenseData(rows, cols, data)
}

// genHalf returns a rows×cols operand about half ±0 — in runs of up to
// eight cells and alone, as a dense-stored data matrix like cri1 or red1 is
// — the rest uniform in [-1, 1).
func genHalf(rng *rand.Rand, rows, cols int) *Matrix {
	m := genDense(rng, rows, cols, fillPlain)
	for i := 0; i < len(m.data); i++ {
		switch r := rng.Intn(10); {
		case r == 0:
			for run := 1 + rng.Intn(8); run > 0 && i < len(m.data); run-- {
				m.data[i] = specials[rng.Intn(2)]
				i++
			}
		case r < 3:
			m.data[i] = specials[rng.Intn(2)]
		}
	}
	return m
}

// poisonSkipped writes ±Inf and NaN over three rows of b, and ±0 into
// every other row of a at those k: only the zero skip keeps those rows'
// cells finite.
func poisonSkipped(rng *rand.Rand, a, b *Matrix) {
	for c := 0; c < 3; c++ {
		kk := rng.Intn(a.cols)
		for j := 0; j < b.cols; j++ {
			b.data[kk*b.cols+j] = specials[9+(c+j)%3]
		}
		for i := 0; i < a.rows; i += 2 {
			a.data[i*a.cols+kk] = specials[i/2%2]
		}
	}
}

func TestMulDenseDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ks := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 64}
	// Rows straddle the 64-row striping threshold; p = 1 and rows = 1 take
	// the mat-vec and column-striped paths; 1×47·47×400 and 3×9·9×700 carry
	// enough work to stripe their columns.
	shapes := [][2]int{{1, 1}, {1, 5}, {1, 400}, {3, 700}, {2, 1}, {5, 3}, {63, 1}, {64, 1}, {67, 1},
		{63, 6}, {64, 5}, {65, 9}, {130, 1}, {131, 17}, {200, 33}}
	for _, sh := range shapes {
		for _, k := range ks {
			for kind := fillPlain; kind <= fillSpecial; kind++ {
				n, p := sh[0], sh[1]
				a, b := genDense(rng, n, k, kind), genDense(rng, k, p, kind)
				if kind == fillZeros {
					b = genDense(rng, k, p, fillPlain) // zeros in A only: the skip path
				}
				ctx := fmt.Sprintf("%dx%d·%dx%d kind %d", n, k, k, p, kind)
				requireSameResult(t, ctx, a.Mul(b), refMulDenseDense(a, b))
			}
		}
	}
	// Long k: k just below, at and above one index list's block, and 4000,
	// over a about half zero and over a with no zero at all (every k in
	// order), on the few-row path and, at 63 rows, near its edge; into a
	// fresh destination and a NaN-poisoned one.
	for _, k := range []int{kBlock - 1, kBlock, kBlock + 1, 4000} {
		for _, n := range []int{1, 2, 10, 34, 63} {
			for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 47} {
				for _, zeroFree := range []bool{false, true} {
					if zeroFree && k != kBlock && k != 4000 {
						continue
					}
					a, b := genHalf(rng, n, k), genDense(rng, k, p, fillPlain)
					if zeroFree {
						a = genDense(rng, n, k, fillPlain)
					} else {
						poisonSkipped(rng, a, b)
					}
					ref := refMulDenseDense(a, b)
					ctx := fmt.Sprintf("%dx%d·%dx%d zero-free %v", n, k, k, p, zeroFree)
					requireSameResult(t, ctx, a.Mul(b), ref)
					requireSameResult(t, ctx+", dirty destination", a.MulInto(dirty(n*p), b), ref)
				}
			}
		}
	}
	// A seeded sweep of odd shapes on top of the fixed ones.
	for trial := 0; trial < 60; trial++ {
		n, k, p := 1+rng.Intn(140), 1+rng.Intn(40), 1+rng.Intn(90)
		kind := rng.Intn(3)
		a, b := genDense(rng, n, k, kind), genDense(rng, k, p, kind)
		requireSameResult(t, fmt.Sprintf("trial %d: %dx%d·%dx%d kind %d", trial, n, k, k, p, kind),
			a.Mul(b), refMulDenseDense(a, b))
	}
}

// FuzzMulDenseDense: a dense product of any shape the input names — the
// mat-vec, outer-product, few-row and row paths, across blocks of k and
// chunks of columns — over a with any share of ±0 (none included), and b
// with ±Inf and NaN where the input asks, matches the reference into a
// fresh or a NaN-poisoned destination: cells bit for bit, format and count.
func FuzzMulDenseDense(f *testing.F) {
	// Mat-vecs (p = 1) around the vector loop's eight rows and four k, with
	// a non-finite x, into a fresh and a dirty destination.
	for _, n := range []int{8, 9, 16, 17, 79} {
		for _, k := range []int{1, 3, 5, 599} {
			for _, dirtyDst := range []bool{false, true} {
				f.Add(int64(n*k), uint16(n-1), uint16(k-1), uint16(0), uint8(n%3), uint8(1+k%7), dirtyDst)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, rows, inner, cols uint16, zeros, nonFinite uint8, dirtyDst bool) {
		n, k, p := 1+int(rows)%80, 1+int(inner)%600, 1+int(cols)%80
		rng := rand.New(rand.NewSource(seed))
		a, b := genDense(rng, n, k, fillPlain), genDense(rng, k, p, fillPlain)
		if zeros%2 == 1 { // ±0 in runs and alone
			a = genHalf(rng, n, k)
		} else { // each cell ±0 with probability (zeros mod 9)/8, 0 to 1
			for i := range a.data {
				if rng.Float64() < float64(zeros%9)/8 {
					a.data[i] = specials[rng.Intn(2)]
				}
			}
		}
		for c := 0; c < int(nonFinite%8); c++ {
			b.data[rng.Intn(len(b.data))] = specials[9+rng.Intn(3)]
		}
		var dst []float64
		if dirtyDst {
			dst = dirty(n * p)
		}
		requireSameResult(t, fmt.Sprintf("%dx%d·%dx%d", n, k, k, p), a.MulInto(dst, b), refMulDenseDense(a, b))
	})
}

func TestMulZeroSkipAndSignedZero(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	// 0·Inf is skipped, not NaN — alone, and inside an unrolled group of four.
	for _, k := range []int{2, 4, 8} {
		a, b := NewDense(1, k), NewDense(k, 2)
		for kk := 0; kk < k; kk++ {
			a.data[kk] = float64(kk % 2) // 0, 1, 0, 1 …
			b.data[kk*2], b.data[kk*2+1] = inf, 3
			if kk%2 == 1 {
				b.data[kk*2] = 2
			}
		}
		got := a.Mul(b)
		if got.At(0, 0) != float64(k) || got.At(0, 1) != 1.5*float64(k) {
			t.Fatalf("k=%d: got %v, want [%d %g]", k, got, k, 1.5*float64(k))
		}
	}
	// Four nonzero k with a zero between each run as one group, beside rows
	// of b that are ±Inf or NaN where a is ±0: on the few-row and the row
	// path, at a narrow and a wide p, over more than one block of k.
	for _, n := range []int{1, 70} {
		for _, p := range []int{3, 40} {
			for _, k := range []int{13, kBlock + 13} {
				a, b := NewDense(n, k), NewDense(k, p)
				want := 0.0
				for kk := 0; kk < k; kk++ {
					for i := 0; i < n; i++ {
						a.data[i*k+kk] = []float64{float64(kk%7 + 1), 0, float64(-kk%5 - 1), negZero}[kk%4]
					}
					for j := 0; j < p; j++ {
						b.data[kk*p+j] = []float64{1, inf, 0.5, math.NaN()}[kk%4]
					}
					want += []float64{float64(kk%7 + 1), 0, float64(-kk%5-1) * 0.5, 0}[kk%4]
				}
				got := a.Mul(b).ToDense()
				for c, v := range got.data {
					if v != want {
						t.Fatalf("%dx%d·%dx%d: cell (%d,%d) = %v, want %v", n, k, k, p, c/p, c%p, v, want)
					}
				}
			}
		}
	}
	// 0·Inf skipped in the mat-vec path too: in a group of eight rows and in
	// the rows left over.
	rows := make([]float64, 0, 22)
	for i := 0; i < 11; i++ {
		rows = append(rows, 0, float64(i+1))
	}
	mv := NewDenseData(11, 2, rows).Mul(NewDenseData(2, 1, []float64{inf, 1}))
	for i := 0; i < 11; i++ {
		if mv.At(i, 0) != float64(i+1) {
			t.Fatalf("mat-vec row %d = %v", i, mv.At(i, 0))
		}
	}
	// A −0 product lands as +0: in the outer-product path …
	outer := NewDenseData(2, 1, []float64{-1, 2}).Mul(NewDenseData(1, 2, []float64{0, 3})).ToDense()
	if bits := math.Float64bits(outer.data[0]); bits != 0 {
		t.Fatalf("outer product cell (0,0) bits %#x, want +0", bits)
	}
	// … the mat-vec path and the general path.
	if bits := math.Float64bits(NewDenseData(1, 1, []float64{-1}).Mul(Scalar(0)).ToDense().data[0]); bits != 0 {
		t.Fatalf("1x1 product bits %#x, want +0", bits)
	}
	gen := NewDenseData(1, 2, []float64{-1, 1}).Mul(NewDenseData(2, 2, []float64{0, 0, negZero, 5})).ToDense()
	if bits := math.Float64bits(gen.data[0]); bits != 0 {
		t.Fatalf("general product cell (0,0) bits %#x, want +0", bits)
	}
}

// TestMatVecFinitePathMatchesReference: a mat-vec over a finite x runs
// without the zero skip, one over an x with a NaN or ±Inf keeps it; both are
// the reference bit for bit, at row counts around the four-row groups and the
// striping threshold. Against a non-finite x[c] the rows of a with a zero in
// column c must skip it, not turn NaN.
func TestMatVecFinitePathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 3, 4, 5, 63, 64, 65, 130} {
		for _, k := range []int{1, 2, 7, 64} {
			for _, kind := range []int{fillPlain, fillSpecial} {
				a := genDense(rng, n, k, kind) // fillSpecial: ±0, subnormals, ±MaxFloat64, NaN, ±Inf
				for kk := 0; kk < k; kk++ {
					a.data[kk] = specials[kk%2] // a row of ±0: its cell stays +0
				}
				x := genDense(rng, k, 1, fillZeros)
				for kk := range x.data {
					if rng.Intn(4) == 0 {
						x.data[kk] = specials[rng.Intn(9)] // finite extremes: ±0, subnormals, ±MaxFloat64
					}
				}
				ctx := fmt.Sprintf("%dx%d kind %d", n, k, kind)
				requireSameResult(t, ctx+", finite x", a.Mul(x), refMulDenseDense(a, x))

				c := rng.Intn(k)
				for i := 0; i < n; i += 2 {
					a.data[i*k+c] = []float64{0, negZero}[i/2%2]
				}
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					x.data[c] = bad
					requireSameResult(t, fmt.Sprintf("%s, x[%d] = %v", ctx, c, bad), a.Mul(x), refMulDenseDense(a, x))
				}
			}
		}
	}
}

func TestElementwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ops := []struct {
		name string
		do   func(a, b *Matrix) *Matrix
		ref  func(x, y float64) float64
	}{
		{"Add", (*Matrix).Add, func(x, y float64) float64 { return x + y }},
		{"Sub", (*Matrix).Sub, func(x, y float64) float64 { return x - y }},
		{"ElemMul", (*Matrix).ElemMul, func(x, y float64) float64 { return x * y }},
		{"ElemDiv", (*Matrix).ElemDiv, func(x, y float64) float64 { return x / y }},
	}
	// 127×129 and 128×128 straddle the cell-striping threshold.
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {7, 3}, {127, 129}, {128, 128}, {300, 70}} {
		for kind := fillPlain; kind <= fillSpecial; kind++ {
			a, b := genDense(rng, sh[0], sh[1], kind), genDense(rng, sh[0], sh[1], kind)
			for _, op := range ops {
				ctx := fmt.Sprintf("%s %dx%d kind %d", op.name, sh[0], sh[1], kind)
				requireSameResult(t, ctx, op.do(a, b), refZipDense(a, b, op.ref))
			}
			// Dense with a CSR operand goes through the same pass.
			sp := RandSparse(rng, sh[0], sh[1], 0.3)
			requireSameResult(t, "Add dense+csr", a.Add(sp), refZipDense(a, sp, ops[0].ref))
			requireSameResult(t, "Sub csr-dense", sp.Sub(a), refZipDense(sp, a, ops[1].ref))
			requireSameResult(t, "ElemDiv csr/dense", sp.ElemDiv(a), refZipDense(sp, a, ops[3].ref))

			for _, s := range []float64{2, -1, 1, 1e-320, math.Inf(1)} {
				got := a.Scale(s)
				requireSameBits(t, fmt.Sprintf("Scale(%g) %dx%d kind %d", s, sh[0], sh[1], kind), got, refScale(a, s))
				if _, nnz := wantCompacted(got); got.Format() != Dense || got.NNZ() != nnz {
					t.Fatalf("Scale(%g): format %v nnz %d, want dense nnz %d", s, got.Format(), got.NNZ(), nnz)
				}
				gotSp := sp.Scale(s)
				requireSameBits(t, "Scale csr", gotSp, refScale(sp, s))
				if gotSp.Format() != CSR || gotSp.NNZ() != sp.NNZ() {
					t.Fatalf("Scale(%g) of CSR: format %v nnz %d", s, gotSp.Format(), gotSp.NNZ())
				}
				requireSameResult(t, "AddScalar dense", a.AddScalar(s), refAddScalar(a, s))
				requireSameResult(t, "AddScalar csr", sp.AddScalar(s), refAddScalar(sp, s))
			}
		}
	}
}

func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range [][2]int{{1, 1}, {1, 50}, {50, 1}, {3, 5}, {31, 33}, {32, 32}, {65, 97}, {200, 130}, {129, 300}} {
		m := genDense(rng, sh[0], sh[1], fillSpecial)
		got := m.Transpose()
		requireSameBits(t, fmt.Sprintf("Transpose %dx%d", sh[0], sh[1]), got, refTranspose(m))
		if _, nnz := wantCompacted(m); got.Format() != Dense || got.NNZ() != nnz {
			t.Fatalf("Transpose %dx%d: format %v nnz %d, want dense nnz %d", sh[0], sh[1], got.Format(), got.NNZ(), nnz)
		}
	}
}

// TestStripesCoverTheRangeOnceAtEveryShare runs Stripes at GOMAXPROCS 1, 2,
// 3 and 8 over four work prefixes — a uniform one, one whose tail carries no
// work (empty CSR rows), one below a stripe's worth (a single range, the
// caller's) and a zipf-skewed CSR's row pointer — and checks that the ranges
// tile [0, n) exactly, that there are min(GOMAXPROCS, n,
// total/MinStripeCells) of them, that no range carries more than its share
// plus the heaviest item, and that the bodies' counts sum.
func TestStripesCoverTheRangeOnceAtEveryShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	zipf := ZipfSparse(rand.New(rand.NewSource(7)), 2000, 870, 0.02, 2.8)
	prefixes := []struct {
		name string
		n    int
		work func(i int) int
	}{
		{"uniform", 1000, func(i int) int { return i * MinStripeCells / 10 }},
		{"uniform, then a tail of no work", 1000, func(i int) int { return min(i, 500) * MinStripeCells / 10 }},
		{"below one unit", 1000, func(i int) int { return i * (MinStripeCells - 1) / 1000 }},
		{"zipf-2.8 rowPtr", zipf.rows, func(i int) int { return (zipf.rowPtr[i] + i) * 8 }},
	}
	for _, pr := range prefixes {
		total, heaviest := pr.work(pr.n), 0
		for i := 0; i < pr.n; i++ {
			heaviest = max(heaviest, pr.work(i+1)-pr.work(i))
		}
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			ctx := fmt.Sprintf("%s at GOMAXPROCS %d", pr.name, procs)
			var mu sync.Mutex
			covered := make([]int, pr.n)
			var spans [][2]int
			sum := Stripes(pr.n, pr.work, func(lo, hi int) int {
				mu.Lock()
				defer mu.Unlock()
				spans = append(spans, [2]int{lo, hi})
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				return hi - lo
			})
			want := max(1, min(procs, pr.n, total/MinStripeCells))
			if len(spans) != want {
				t.Errorf("%s: %d ranges, want %d", ctx, len(spans), want)
			}
			if sum != pr.n {
				t.Errorf("%s: bodies' counts sum to %d, want %d", ctx, sum, pr.n)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("%s: item %d covered %d times", ctx, i, c)
				}
			}
			for _, sp := range spans {
				if w := pr.work(sp[1]) - pr.work(sp[0]); w > total/len(spans)+heaviest {
					t.Errorf("%s: range [%d, %d) carries %d, over its share %d plus the heaviest item %d",
						ctx, sp[0], sp[1], w, total/len(spans), heaviest)
				}
			}
		}
	}
}
