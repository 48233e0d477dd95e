// Package sparsity implements the sparsity estimators the cost model can
// use (§4.2): the metadata-based estimator SystemDS uses by default (fast,
// assumes uniformly distributed nonzeros), an MNC-style structure-exploiting
// estimator (accurate on skewed data, costs a pass over count vectors), and
// a sampling estimator in between.
//
// Estimators propagate Meta descriptors through operators. A Meta carries
// the dimensions and sparsity of a (possibly intermediate) matrix plus, for
// the structure-exploiting estimators, per-row and per-column nonzero count
// vectors.
package sparsity

import (
	"fmt"
	"math"

	"remac/internal/matrix"
)

// Meta describes a matrix for estimation purposes. Count vectors are at the
// granularity of the materialized (possibly scaled-down) matrix; Sparsity is
// scale-free and is what the cost model consumes. A Meta is a comparable
// value: two descriptors are == when their scalars agree and they point at
// the same (immutable) vectors.
type Meta struct {
	Rows, Cols int64
	Sparsity   float64
	// RowCounts and ColCounts hold the nonzero counts per row/column of the
	// materialized matrix. Nil when unavailable (metadata-only estimation).
	RowCounts, ColCounts *Counts
}

// NNZ returns the estimated number of nonzeros.
func (m Meta) NNZ() float64 { return float64(float64(m.Rows) * float64(m.Cols) * m.Sparsity) }

// Valid reports whether the descriptor is structurally sound.
func (m Meta) Valid() error {
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("sparsity: non-positive dims %dx%d", m.Rows, m.Cols)
	}
	if m.Sparsity < 0 || m.Sparsity > 1 {
		return fmt.Errorf("sparsity: sparsity %g out of [0,1]", m.Sparsity)
	}
	return nil
}

// MetaOf extracts a full descriptor (including count vectors) from a
// materialized matrix. The matrix carries its counts once taken, and the
// two vectors wrapping them, so only the first call on a matrix scans it
// (once, not once per field) and each vector is classified at most once
// however many compilations read it.
func MetaOf(m *matrix.Matrix) Meta {
	counts := matrix.NNZCounts(m, func(row, col []int) *[2]*Counts {
		return &[2]*Counts{NewCounts(row), NewCounts(col)}
	})
	return Meta{
		Rows:      int64(m.Rows()),
		Cols:      int64(m.Cols()),
		Sparsity:  m.Sparsity(),
		RowCounts: counts[0],
		ColCounts: counts[1],
	}
}

// MetaDims builds a descriptor from dimensions and sparsity only.
func MetaDims(rows, cols int64, s float64) Meta {
	return Meta{Rows: rows, Cols: cols, Sparsity: clamp01(s)}
}

// WithVirtualDims returns a copy of m re-dimensioned to (rows, cols),
// keeping the sparsity and count vectors. Used by the virtual-scale cost
// accounting described in DESIGN.md.
func (m Meta) WithVirtualDims(rows, cols int64) Meta {
	out := m
	out.Rows, out.Cols = rows, cols
	return out
}

func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	if math.IsNaN(s) {
		return 0
	}
	return s
}

// Estimator propagates Meta descriptors through the operators that appear
// in optimized plans.
type Estimator interface {
	// Name identifies the estimator in experiment output ("MD", "MNC", ...).
	Name() string
	// Mul estimates the metadata of a·b. Inner dimensions must agree.
	Mul(a, b Meta) Meta
	// Add estimates the metadata of a+b (same for subtraction: structural
	// union).
	Add(a, b Meta) Meta
	// ElemMul estimates the metadata of a⊙b (structural intersection).
	ElemMul(a, b Meta) Meta
	// Transpose returns the metadata of aᵀ.
	Transpose(a Meta) Meta
	// Scale returns the metadata of s·a for nonzero s.
	Scale(a Meta) Meta
}

func checkMulDims(a, b Meta) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparsity: Mul inner dims %d vs %d", a.Cols, b.Rows))
	}
}

func checkSameDims(a, b Meta, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("sparsity: %s dims %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Metadata is the SystemDS metadata-based estimator: it assumes nonzeros
// are uniformly distributed and derives output sparsity from input
// sparsities alone. O(1) per operator; inaccurate under skew.
type Metadata struct{}

// Name implements Estimator.
func (Metadata) Name() string { return "MD" }

// Mul implements Estimator. Under the uniform assumption, an output cell is
// nonzero unless all K terms vanish: s = 1 - (1 - sA·sB)^K.
func (Metadata) Mul(a, b Meta) Meta {
	checkMulDims(a, b)
	k := float64(a.Cols)
	s := 1 - math.Pow(1-float64(a.Sparsity*b.Sparsity), k)
	return MetaDims(a.Rows, b.Cols, s)
}

// Add implements Estimator: structural union under independence.
func (Metadata) Add(a, b Meta) Meta {
	checkSameDims(a, b, "Add")
	s := a.Sparsity + b.Sparsity - float64(a.Sparsity*b.Sparsity)
	return MetaDims(a.Rows, a.Cols, s)
}

// ElemMul implements Estimator: structural intersection under independence.
func (Metadata) ElemMul(a, b Meta) Meta {
	checkSameDims(a, b, "ElemMul")
	return MetaDims(a.Rows, a.Cols, a.Sparsity*b.Sparsity)
}

// Transpose implements Estimator.
func (Metadata) Transpose(a Meta) Meta { return MetaDims(a.Cols, a.Rows, a.Sparsity) }

// Scale implements Estimator.
func (Metadata) Scale(a Meta) Meta { return MetaDims(a.Rows, a.Cols, a.Sparsity) }
