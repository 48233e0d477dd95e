package sparsity

import "testing"

// cri2Like builds the operands of AᵀA at the cri2 shape: 2 000 sampled rows
// and 870 columns at paper-scale dimensions, a handful of distinct counts
// per vector. Each call returns fresh vectors (no summary yet).
func cri2Like() (at, a Meta) {
	rowCounts, colCounts := make([]int, 2000), make([]int, 870)
	for i := range rowCounts {
		rowCounts[i] = 4 + i%7
	}
	for i := range colCounts {
		colCounts[i] = 9 + i%5
	}
	rows, cols := NewCounts(rowCounts), NewCounts(colCounts)
	a = Meta{Rows: 58_400_000, Cols: 8_700, Sparsity: 4.5e-3, RowCounts: rows, ColCounts: cols}
	return transposeMeta(a), a
}

var sinkMeta Meta

// BenchmarkMNCMul prices one product: cold, each operand's outer vector is
// summarised inside the call (what a vector's first product pays); warm, the
// summaries are there (every later product over the same vector).
func BenchmarkMNCMul(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			at, a := cri2Like()
			b.StartTimer()
			sinkMeta = MNC{}.Mul(at, a)
		}
	})
	b.Run("warm", func(b *testing.B) {
		at, a := cri2Like()
		MNC{}.Mul(at, a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkMeta = MNC{}.Mul(at, a)
		}
	})
}

// TestMNCMulWarmAllocBudget bounds what a product over summarised vectors
// allocates: the two output vectors, their headers and per-class values —
// nothing per call for classifying or bucketing the 870- and 2 000-entry
// operands. A count, so it holds on any machine.
func TestMNCMulWarmAllocBudget(t *testing.T) {
	at, a := cri2Like()
	for _, tc := range []struct {
		name string
		l, r Meta
	}{{"870x870 over 2000", at, a}, {"2000x2000 over 870", a, at}} {
		MNC{}.Mul(tc.l, tc.r)
		if allocs := testing.AllocsPerRun(20, func() { sinkMeta = MNC{}.Mul(tc.l, tc.r) }); allocs > 6 {
			t.Errorf("%s: warm MNC.Mul allocates %.0f objects, budget 6", tc.name, allocs)
		}
	}
}
