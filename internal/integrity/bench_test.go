package integrity

import (
	"math/rand"
	"testing"

	"remac/internal/matrix"
)

// The benchmark's integrity.digest_ms and serve.hash_ms probes loop over the
// same values and so time the memo. These time the pass itself: every
// iteration gets a new header over the same cells, which carries nothing.

var summarySink matrix.Summary

func BenchmarkSummariseDense870(b *testing.B) {
	const n = 870 // DFP's H on cri2
	cells := matrix.RandDense(rand.New(rand.NewSource(1)), n, n).Buffer()
	b.SetBytes(8 * n * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarySink = Summarise(matrix.NewDenseData(n, n, cells))
	}
}

func BenchmarkSummariseCSR(b *testing.B) {
	const rows, cols = 20000, 870
	rowPtr, colIdx, vals := csrArrays(matrix.RandSparse(rand.New(rand.NewSource(2)), rows, cols, 0.05))
	b.SetBytes(int64(16 * len(vals))) // a value and its column
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarySink = Summarise(matrix.NewCSR(rows, cols, rowPtr, colIdx, vals))
	}
}

func BenchmarkSummariseMemoHit(b *testing.B) {
	m := matrix.RandDense(rand.New(rand.NewSource(3)), 870, 870)
	Summarise(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarySink = Summarise(m)
	}
}

// csrArrays copies out the arrays of a CSR matrix, to build other headers on.
func csrArrays(m *matrix.Matrix) (rowPtr, colIdx []int, vals []float64) {
	rowPtr = make([]int, 1, m.Rows()+1)
	for i := 0; i < m.Rows(); i++ {
		c, v := m.StoredRow(i)
		colIdx, vals = append(colIdx, c...), append(vals, v...)
		rowPtr = append(rowPtr, len(vals))
	}
	return rowPtr, colIdx, vals
}
