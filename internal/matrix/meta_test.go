package matrix

import (
	"math/rand"
	"sync"
	"testing"
)

// Tests of the carried metadata (nonzero count, row/column count vectors):
// every writer that changes a cell after the count was taken must leave no
// stale count behind, and the lazy fills must be safe on shared matrices.

// scanCounts recounts m's dense form from scratch.
func scanCounts(m *Matrix) (nnz int, row, col []int) {
	d := m.ToDense()
	row, col = make([]int, m.rows), make([]int, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if d.data[i*m.cols+j] != 0 {
				nnz++
				row[i]++
				col[j]++
			}
		}
	}
	return nnz, row, col
}

// countsOf returns the count vectors NNZCounts hands a form.
func countsOf(m *Matrix) (row, col []int) {
	c := NNZCounts(m, func(row, col []int) *[2][]int { return &[2][]int{row, col} })
	return c[0], c[1]
}

func requireFreshCounts(t *testing.T, ctx string, m *Matrix) {
	t.Helper()
	nnz, row, col := scanCounts(m)
	if m.NNZ() != nnz {
		t.Fatalf("%s: NNZ() = %d, cells hold %d", ctx, m.NNZ(), nnz)
	}
	gotRow, gotCol := countsOf(m)
	for i := range row {
		if gotRow[i] != row[i] {
			t.Fatalf("%s: row count %d = %d, cells hold %d", ctx, i, gotRow[i], row[i])
		}
	}
	for j := range col {
		if gotCol[j] != col[j] {
			t.Fatalf("%s: column count %d = %d, cells hold %d", ctx, j, gotCol[j], col[j])
		}
	}
}

func TestSetAfterNNZLeavesNoStaleCount(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 0, 2, 0, 0, 3})
	if row, _ := countsOf(m); m.NNZ() != 3 || row[1] != 1 {
		t.Fatalf("NNZ %d, row counts %v", m.NNZ(), row)
	}
	m.Set(1, 0, 7)
	requireFreshCounts(t, "Set nonzero", m)
	m.Set(0, 0, 0)
	m.Set(0, 2, 0)
	requireFreshCounts(t, "Set zero", m)
	if m.Sparsity() != 2.0/6 || m.Compact().Format() != CSR {
		t.Fatalf("sparsity %g, compacts to %v", m.Sparsity(), m.Compact().Format())
	}
	// A clone carries the count; writing to the clone must not reach back.
	c := m.Clone()
	c.Set(0, 1, 5)
	requireFreshCounts(t, "clone after Set", c)
	requireFreshCounts(t, "original after clone's Set", m)
}

func TestFlipToZeroLeavesNoStaleCount(t *testing.T) {
	// Bit 62 of 2.0 is its only set bit: the flipped value is 0.0.
	for _, format := range []Format{Dense, CSR} {
		m := NewDenseData(2, 2, []float64{2, 1, 0, 1})
		if format == CSR {
			m = m.ToCSR()
		}
		if m.NNZ() != 3 {
			t.Fatalf("%v: NNZ %d", format, m.NNZ())
		}
		countsOf(m) // counted before the flip, so a copied count would be stale
		flipped, ok := m.FlipValueBit(0, 62)
		if !ok || flipped.At(0, 0) != 0 {
			t.Fatalf("%v: flip ok=%v, cell %g", format, ok, flipped.At(0, 0))
		}
		if format == Dense {
			requireFreshCounts(t, "flipped", flipped)
		}
		// The next victim is chosen among the values still nonzero.
		again, ok := flipped.FlipValueBit(2, 62)
		if !ok || again.At(0, 1) == 1 || again.At(1, 1) != 1 {
			t.Fatalf("%v: second flip ok=%v hit %v", format, ok, again)
		}
		requireFreshCounts(t, "receiver", m.ToDense())
	}
}

func TestConstructorsAndKernelsCarryCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a, b := RandDense(rng, 70, 9), RandDense(rng, 9, 80)
	sp := RandSparse(rng, 70, 80, 0.1)
	holes := genDense(rng, 70, 80, fillZeros)
	for ctx, m := range map[string]*Matrix{
		"Identity":      Identity(5),
		"RandDense":     a,
		"RandSymmetric": RandSymmetric(rng, 7),
		"Mul":           a.Mul(b),
		"Mul csr·dense": sp.Mul(b.Transpose()),
		"Mul dense·csr": a.Transpose().Mul(sp),
		"Add":           holes.Add(holes),
		"Sub to zero":   holes.Sub(holes),
		"ElemMul":       holes.ElemMul(a.Mul(b)),
		"Scale":         holes.Scale(3),
		"Scale(0)":      holes.Scale(0),
		"AddScalar":     holes.AddScalar(1),
		"Transpose":     holes.Transpose(),
		"Clone":         holes.Clone(),
		"ToDense":       sp.ToDense(),
		"ToCSR":         holes.ToCSR(),
	} {
		requireFreshCounts(t, ctx, m)
	}
	// The count vectors transpose with the matrix, whether or not they were
	// taken first.
	countsOf(holes)
	requireFreshCounts(t, "Transpose after counts", holes.Transpose())
}

// TestCountFormDroppedWithTheCounts: what NNZCounts built of the counts is
// carried for as long as they are — one build per counting, whatever asks —
// and goes when a cell changes. A form of another type takes its place: the
// next ask for the first type builds it again, and gets it right.
func TestCountFormDroppedWithTheCounts(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 1, 0, 1})
	builds := 0
	form := func(row, col []int) *[2]int {
		builds++
		return &[2]int{row[0], col[0]}
	}
	first := NNZCounts(m, form)
	if again := NNZCounts(m.Clone(), form); again != first || builds != 1 {
		t.Fatalf("second ask (on a clone) built %d forms, same=%v", builds, again == first)
	}
	countsOf(m) // another type
	if NNZCounts(m, form) == first || builds != 2 {
		t.Fatalf("after a form of another type: %d builds", builds)
	}
	m.Set(0, 0, 0)
	if got := NNZCounts(m, form); builds != 3 || *got != [2]int{1, 0} {
		t.Fatalf("after Set: %d builds, form %v, want a fresh [1 0]", builds, *got)
	}
}

func TestConcurrentMetadataReads(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range []*Matrix{genDense(rng, 90, 70, fillZeros), RandSparse(rng, 90, 70, 0.2)} {
		nnz, row, col := scanCounts(m)
		if m.format == CSR {
			nnz = len(m.vals)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					if got := m.NNZ(); got != nnz {
						t.Errorf("NNZ() = %d, want %d", got, nnz)
					}
					if got, _ := countsOf(m); got[3] != row[3] {
						t.Errorf("row count 3 = %d, want %d", got[3], row[3])
					}
					if _, got := countsOf(m); got[5] != col[5] {
						t.Errorf("column count 5 = %d, want %d", got[5], col[5])
					}
					if got := m.Transpose().NNZ(); got != nnz {
						t.Errorf("Transpose().NNZ() = %d, want %d", got, nnz)
					}
					if got := m.Clone().Sparsity(); got != m.Sparsity() {
						t.Errorf("Clone().Sparsity() = %g, want %g", got, m.Sparsity())
					}
				}
			}()
		}
		wg.Wait()
	}
}
