package sparsity

import (
	"runtime"
	"testing"
)

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

// denseLike is a dense operand of a's shape: every row and column full, a
// single class per vector.
func denseLike(a Meta) Meta {
	d := MetaDims(a.Rows, a.Cols, 1)
	d.RowCounts = NewCounts(filled(a.RowCounts.Len(), int(a.Cols)))
	d.ColCounts = NewCounts(filled(a.ColCounts.Len(), int(a.Rows)))
	return d
}

var sinkMeta Meta

// BenchmarkMNCMul prices one product: cold, each operand's vectors are
// classified and summarised inside the call (what a measured vector's first
// product pays); warm, the summaries are there (every later product over the
// same vectors); chain, a product of a fresh product, whose vectors are
// summarised inside the call. The add arms price a sum of two products over
// the same class indexes, and of an operand and a dense one.
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
	b.Run("chain", func(b *testing.B) {
		at, a := cri2Like()
		MNC{}.Mul(MNC{}.Mul(at, a), at)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkMeta = MNC{}.Mul(MNC{}.Mul(at, a), at)
		}
	})
	for _, arm := range []struct {
		name string
		l, r func(at, a Meta) Meta
	}{
		{"add/shared",
			func(at, a Meta) Meta { return MNC{}.Mul(at, a) },
			func(at, a Meta) Meta {
				a.Sparsity /= 2 // the same vectors, so the same class indexes
				return MNC{}.Mul(at, a)
			}},
		{"add/dense",
			func(_, a Meta) Meta { return a },
			func(_, a Meta) Meta { return denseLike(a) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			at, a := cri2Like()
			l, r := arm.l(at, a), arm.r(at, a)
			MNC{}.Add(l, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkMeta = MNC{}.Add(l, r)
			}
		})
	}
}

// allocated returns the bytes and objects one call of f allocates, averaged
// over runs calls made on one processor (as testing.AllocsPerRun makes them).
func allocated(runs int, f func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestMNCMulWarmAllocBudget bounds what a product over summarised vectors
// allocates: the two output vectors, each a header over its operand's class
// index and one value per class — nothing per entry of the 870- and 2 000-
// entry operands, so the byte budget holds whichever way round they are.
// Counts and bytes, so it holds on any machine.
func TestMNCMulWarmAllocBudget(t *testing.T) {
	at, a := cri2Like()
	for _, tc := range []struct {
		name string
		l, r Meta
	}{{"870x870 over 2000", at, a}, {"2000x2000 over 870", a, at}} {
		bytes, objects := allocated(20, func() { sinkMeta = MNC{}.Mul(tc.l, tc.r) })
		t.Logf("%s: %.0f objects, %.0f B", tc.name, objects, bytes)
		if objects > 4 || bytes > 512 {
			t.Errorf("%s: warm MNC.Mul allocates %.0f objects, %.0f B; budget 4, 512 B", tc.name, objects, bytes)
		}
	}
}

// TestMNCChainAllocBudget bounds a product of a product — the shape of every
// chain the planner prices — over the 2 000- and 870-entry operands: the
// inner product's vectors are bucketed inside the call, per class, and both
// results keep their operands' class indexes. Everything it allocates comes
// to less than one 4-byte entry per row of the shorter vector: no
// full-length vector is built.
func TestMNCChainAllocBudget(t *testing.T) {
	at, a := cri2Like()
	bytes, objects := allocated(20, func() { sinkMeta = MNC{}.Mul(MNC{}.Mul(at, a), at) })
	t.Logf("(AᵀA)·Aᵀ: %.0f objects, %.0f B", objects, bytes)
	if limit := float64(4 * a.ColCounts.Len()); bytes >= limit {
		t.Errorf("(AᵀA)·Aᵀ allocates %.0f B, budget %.0f B", bytes, limit)
	}
}
