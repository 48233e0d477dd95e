package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// simdValues are the cells that tell a vector loop's lanes from its Go loop:
// signed zeros (a dropped 0 + or a swapped − shows in a zero's sign), the
// infinities and NaN (a count that compares ordered misses NaN), subnormals
// and the largest finite values (a fused multiply-add rounds once where the
// Go statements round twice, and overflows where they do not).
var simdValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.MaxFloat64, -math.MaxFloat64,
}

// simdScales are the factors and row entries a loop holds in a register.
var simdScales = []float64{-1, 1, math.SmallestNonzeroFloat64, 0x1p-1030}

// simdWidths are the row lengths: every remainder against 4 up to 67, a
// width stripes leave (750) and a whole chunk (exprChunk).
func simdWidths() []int {
	w := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		w = append(w, n)
	}
	return append(w, 750, exprChunk)
}

// simdSlice returns n cells that start off cells into their allocation (so
// the vector loads meet every alignment), about a third of them simdValues.
func simdSlice(rng *rand.Rand, n, off int) []float64 { return simdMix(rng, n, off, 3) }

// simdMix is simdSlice with about one cell in every a simdValue.
func simdMix(rng *rand.Rand, n, off, every int) []float64 {
	v := make([]float64, off+n)[off:]
	for i := range v {
		if rng.Intn(every) == 0 {
			v[i] = simdValues[rng.Intn(len(simdValues))]
		} else {
			v[i] = 4*rng.Float64() - 2
		}
	}
	return v
}

// simdScalar is a factor from simdScales or, as often, a cell value.
func simdScalar(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return simdScales[rng.Intn(len(simdScales))]
	}
	return simdValues[rng.Intn(len(simdValues))]
}

// requireSameCells is requireSameBits over one row of cells.
func requireSameCells(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(want) > 0 {
		requireSameBits(t, ctx, NewDenseData(1, len(got), got), NewDenseData(1, len(want), want))
	}
}

// TestSIMDMatchesScalar runs each AVX2 loop over the longest prefix of a
// multiple of 4 cells and its Go loop over the rest, and its Go loop alone
// over every cell: the cells must agree bit for bit and the nonzero counts
// exactly, at every width, alignment and extreme value. The accumulates run
// inside mulRow and mulRowPair, and the mat-vec inside mulMatVec (groups of
// eight rows, the Go loop for the rest), with and without vector.
func TestSIMDMatchesScalar(t *testing.T) {
	if !vectorLoops {
		t.Skip("no AVX2 on this processor (or not amd64): the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(37))
	for _, w := range simdWidths() {
		for off := 0; off < 4; off++ {
			for rep := 0; rep < 4; rep++ {
				ctx := fmt.Sprintf("width %d offset %d rep %d", w, off, rep)
				j := w &^ 3
				h, xv, yv := simdSlice(rng, w, off), simdSlice(rng, w, off), simdSlice(rng, w, off)
				dirty := simdSlice(rng, w, off)
				got, want := simdSlice(rng, w, off), simdSlice(rng, w, off)
				reset := func() { copy(got, dirty); copy(want, dirty) }
				c0, c1, c2, c3 := simdScalar(rng), simdScalar(rng), simdScalar(rng), simdScalar(rng)

				reset()
				inner, nnz := dfpTailAVX2(got[:j], h[:j], xv[:j], yv[:j], c0, c1, c2, c3)
				i2, n2 := dfpTailGo(got[j:], h[j:], xv[j:], yv[j:], c0, c1, c2, c3)
				wantInner, wantNNZ := dfpTailGo(want, h, xv, yv, c0, c1, c2, c3)
				requireSameCells(t, "dfpTail "+ctx, got, want)
				if inner+i2 != wantInner || nnz+n2 != wantNNZ {
					t.Fatalf("dfpTail %s: counts %d, %d, want %d, %d", ctx, inner+i2, nnz+n2, wantInner, wantNNZ)
				}

				reset()
				inner, nnz = bfgsTailAVX2(got[:j], h[:j], xv[:j], yv[:j], c0, c1, c2, c3)
				i2, n2 = bfgsTailGo(got[j:], h[j:], xv[j:], yv[j:], c0, c1, c2, c3)
				wantInner, wantNNZ = bfgsTailGo(want, h, xv, yv, c0, c1, c2, c3)
				requireSameCells(t, "bfgsTail "+ctx, got, want)
				if inner+i2 != wantInner || nnz+n2 != wantNNZ {
					t.Fatalf("bfgsTail %s: counts %d, %d, want %d, %d", ctx, inner+i2, nnz+n2, wantInner, wantNNZ)
				}

				reset()
				nnz = addTermsAVX2(got[:j], xv[:j], yv[:j], c0, c1) + addTermsGo(got[j:], xv[j:], yv[j:], c0, c1)
				wantNNZ = addTermsGo(want, xv, yv, c0, c1)
				requireSameCells(t, "addTerms "+ctx, got, want)
				if nnz != wantNNZ {
					t.Fatalf("addTerms %s: count %d, want %d", ctx, nnz, wantNNZ)
				}

				// The accumulates add a block of k (a full group of four, its
				// remainder, or nothing) into cells holding earlier sums.
				k := rng.Intn(12)
				stride := w + rng.Intn(4)
				a0, a1 := simdSlice(rng, k, off), simdSlice(rng, k, off)
				bm := simdSlice(rng, k*stride, off)
				var idx [kBlock]int32
				nz := nonzeroK(&idx, a0)
				reset()
				mulRow(got, a0, nz, bm, stride, true)
				mulRow(want, a0, nz, bm, stride, false)
				requireSameCells(t, "mulRow "+ctx, got, want)

				reset()
				got1, want1 := append([]float64(nil), h...), append([]float64(nil), h...)
				mulRowPair(got, got1, a0, a1, bm, stride, true)
				mulRowPair(want, want1, a0, a1, bm, stride, false)
				requireSameCells(t, "mulRowPair first row "+ctx, got, want)
				requireSameCells(t, "mulRowPair second row "+ctx, got1, want1)
			}
		}
	}

	// The mat-vec: every row count's remainder against 8, and a stripe's
	// rows, over every k's remainder against 4 and long k. The offset turns
	// with the number of whole groups of eight, so each remainder meets each
	// alignment at each k. Both operands mix in simdValues about twice a row,
	// so that most rows stay short of NaN and a skipped 0·Inf, a kept NaN of
	// a and a rounding each show.
	for _, n := range append(simdWidths()[:68], 870) {
		for _, k := range simdWidths() {
			off := (n/8 + k) % 4
			ctx := fmt.Sprintf("mat-vec %d rows, k %d, offset %d", n, k, off)
			every := 3 + k/2
			a, x := simdMix(rng, n*k, off, every), simdMix(rng, k, off, every)
			got, want := simdSlice(rng, n, off), simdSlice(rng, n, off)
			nnz, wantNNZ := mulMatVec(got, a, x, true), mulMatVec(want, a, x, false)
			requireSameCells(t, ctx, got, want)
			if nnz != wantNNZ {
				t.Fatalf("%s: count %d, want %d", ctx, nnz, wantNNZ)
			}
		}
	}
}
