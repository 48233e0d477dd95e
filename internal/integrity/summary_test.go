package integrity

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"remac/internal/matrix"
)

// refSummary is the definition Summarise's comment gives, read off the
// logical cells one At at a time: no formats, no lanes in flight, no stripes,
// no memo.
func refSummary(m *matrix.Matrix) matrix.Summary {
	step := func(h, x uint64) uint64 { return bits.RotateLeft64(h^x, 32) * fnvPrime }
	digest := step(step(fnvOffset, uint64(m.Rows())), uint64(m.Cols()))
	total := 0.0
	for lo := 0; lo < m.Rows(); lo += 64 {
		block, blockSq := uint64(fnvOffset), 0.0
		for i := lo; i < lo+64 && i < m.Rows(); i++ {
			row, rowSq := uint64(fnvOffset), 0.0
			for j := 0; j < m.Cols(); j++ {
				if v := m.At(i, j); v != 0 {
					row = step(step(row, uint64(j)), math.Float64bits(v))
					rowSq += v * v
				}
			}
			block, blockSq = step(block, row), blockSq+rowSq
		}
		digest, total = step(digest, block), total+blockSq
	}
	return matrix.Summary{Digest: digest, SumSq: total}
}

// withExplicitZeros is m in CSR with about one stored zero for every three
// logical ones: storage the digest must not see.
func withExplicitZeros(m *matrix.Matrix, rng *rand.Rand) *matrix.Matrix {
	rowPtr := make([]int, 1, m.Rows()+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 || rng.Intn(3) == 0 {
				colIdx, vals = append(colIdx, j), append(vals, v)
			}
		}
		rowPtr = append(rowPtr, len(vals))
	}
	return matrix.NewCSR(m.Rows(), m.Cols(), rowPtr, colIdx, vals)
}

// sameSummary compares bit for bit, but for the payload of a NaN: which
// operand's an addition of two keeps is the compiler's choice of operand
// order, and the wire spells every one of them "NaN".
func sameSummary(a, b matrix.Summary) bool {
	return a.Digest == b.Digest &&
		(math.Float64bits(a.SumSq) == math.Float64bits(b.SumSq) || math.IsNaN(a.SumSq) && math.IsNaN(b.SumSq))
}

// checkFormats fails unless dense, CSR and CSR with explicit zeros all
// summarise to the reference, on a first pass and from the memo.
func checkFormats(t *testing.T, what string, dense *matrix.Matrix, rng *rand.Rand) {
	t.Helper()
	want := refSummary(dense)
	for name, m := range map[string]*matrix.Matrix{
		"dense":              matrix.NewDenseData(dense.Rows(), dense.Cols(), dense.Buffer()), // a header that carries nothing
		"CSR":                dense.ToCSR(),
		"CSR, explicit zero": withExplicitZeros(dense, rng),
	} {
		if _, carried := m.Summary(); carried {
			t.Fatalf("%s, %s: a new header already carries a summary", what, name)
		}
		if got := Summarise(m); !sameSummary(got, want) {
			t.Fatalf("%s, %s: %016x Σx² %v, want %016x Σx² %v", what, name, got.Digest, got.SumSq, want.Digest, want.SumSq)
		}
		if got, carried := m.Summary(); !carried || !sameSummary(got, want) || !sameSummary(Summarise(m), want) {
			t.Fatalf("%s, %s: the memo does not hold what the pass returned", what, name)
		}
		if got := Summarise(m.Clone()); !sameSummary(got, want) {
			t.Fatalf("%s, %s: a clone summarises differently", what, name)
		}
	}
}

// TestDigestIndependentOfFormatStripesAndMemo: the digest and Σx² are a
// function of rows, cols and the nonzero cells alone — not of the storage
// format or of zeros it stores, not of how many stripes made the pass
// (GOMAXPROCS decides that), not of whether the answer was remembered. Row
// counts sit on both sides of the 64-row block and of the four-row group; the
// wide ones are past the striping bound.
func TestDigestIndependentOfFormatStripesAndMemo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(23))
	shapes := [][2]int{{1, 1}, {1, 300}, {2, 5}, {3, 300}, {63, 7}, {64, 300}, {65, 300}, {259, 1}, {259, 130}, {300, 300}}
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, shape := range shapes {
			for _, fill := range []float64{0, 0.02, 0.5, 1} {
				what := fmt.Sprintf("GOMAXPROCS %d, %dx%d filled %g", procs, shape[0], shape[1], fill)
				m := matrix.NewDense(shape[0], shape[1])
				for i := range m.Buffer() {
					if rng.Float64() < fill {
						m.Buffer()[i] = rng.NormFloat64()
					}
				}
				checkFormats(t, what, m, rng)
			}
		}
	}
	// What is not a finite number is a nonzero cell like any other.
	odd := matrix.NewDenseData(2, 3, []float64{math.NaN(), 0, math.Inf(-1), math.Copysign(0, -1), 5e-324, 1})
	checkFormats(t, "non-finite cells", odd, rng)
	if s := Summarise(odd); !math.IsNaN(s.SumSq) {
		t.Fatalf("Σx² over a NaN is %v", s.SumSq)
	}
	if Summarise(matrix.NewDense(5, 5)).SumSq != 0 {
		t.Fatal("an empty matrix has a norm")
	}
}

// FuzzDigestFormats: any cells, any shape — one summary, whatever stores them.
func FuzzDigestFormats(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(0), []byte{1})
	f.Add(uint8(64), uint8(3), int64(1), []byte{0, 1, 2, 0, 0, 255})
	f.Add(uint8(65), uint8(9), int64(2), []byte{7, 0, 0, 0, 9})
	f.Add(uint8(200), uint8(40), int64(3), []byte{1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 11})
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, raw []byte) {
		if rows == 0 || cols == 0 || len(raw) == 0 {
			return
		}
		m := matrix.NewDense(int(rows), int(cols))
		cells := m.Buffer()
		for i := range cells {
			// A zero byte is a zero cell; the others spread over sign,
			// exponent and mantissa.
			if b := raw[i%len(raw)]; b != 0 {
				cells[i] = math.Float64frombits(uint64(b)*0x0101010101010101 ^ uint64(i)<<20)
			}
		}
		checkFormats(t, "fuzzed", m, rand.New(rand.NewSource(seed)))
	})
}

// TestDigestMemoDroppedByEveryWriter: a carried summary describes the cells
// as they are. Set and FlipValueBit change cells and must drop it — Corrupt of
// a block whose digest is already known is how the integrity layer decides
// whether a corruption was caught. A dense transpose is a new header over
// moved cells and must not inherit it (H is symmetric only up to rounding); a
// clone holds the same cells and may.
func TestDigestMemoDroppedByEveryWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := matrix.RandDense(rng, 70, 9)
	before := Summarise(m)

	clone := m.Clone()
	if got, carried := clone.Summary(); !carried || !sameSummary(got, before) {
		t.Error("a clone does not carry its original's summary")
	}
	if _, carried := m.Transpose().Summary(); carried {
		t.Error("a dense transpose inherited a summary")
	}
	if sameSummary(Summarise(m.Transpose()), before) {
		t.Error("the transpose of a 70×9 matrix summarises like the matrix")
	}

	for bits := uint64(0); bits < 40; bits++ {
		bad, ok := Corrupt(m, bits<<8)
		if !ok {
			t.Fatal("corrupt failed")
		}
		if _, carried := bad.Summary(); carried {
			t.Fatalf("bits %d: the corrupted copy carries a summary", bits)
		}
		if Digest(bad) == before.Digest {
			t.Fatalf("bits %d: a corrupted copy of a summarised block digests like the block", bits)
		}
	}
	for _, sp := range []*matrix.Matrix{m.ToCSR(), matrix.RandSparse(rng, 70, 40, 0.1)} {
		clean := Digest(sp)
		bad, _ := Corrupt(sp, 0xABCDEF00)
		if Digest(bad) == clean {
			t.Fatal("a corrupted copy of a summarised CSR block digests like the block")
		}
	}

	clone.Set(3, 4, clone.At(3, 4)+1)
	if _, carried := clone.Summary(); carried {
		t.Error("Set left the summary in place")
	}
	if got := Summarise(clone); sameSummary(got, before) || !sameSummary(got, refSummary(clone)) {
		t.Error("after Set the summary is not that of the new cells")
	}
	if got, _ := m.Summary(); !sameSummary(got, before) {
		t.Error("writing a clone changed the original's summary")
	}
}
