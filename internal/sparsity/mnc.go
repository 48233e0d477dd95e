package sparsity

import "math"

// MNC is a structure-exploiting estimator in the spirit of Sommer et al.'s
// matrix-nonzero-count sketches (the paper's footnote selects the MNC
// variant using the density-map estimate over h_r of A and h_c of B). It
// carries per-row/per-column nonzero count vectors through operators, which
// lets it see skew the metadata estimator's uniform assumption misses —
// exactly the effect Fig 12's zipf datasets probe.
type MNC struct{}

// Name implements Estimator.
func (MNC) Name() string { return "MNC" }

// Mul implements Estimator. The estimate follows a rank-1 propensity model:
// cell A(i,k) is nonzero with probability hrA[i]·hcA[k]/nnzA (rows and
// columns have independent propensities calibrated by the count sketches),
// and likewise for B. The probability that output cell (i,j) is nonzero is
// then 1 - Π_k (1 - p_ik·q_kj) ≈ 1 - exp(-hrA[i]·hcB[j]·T/(nnzA·nnzB)),
// where T = Σ_k hcA[k]·hrB[k] couples the inner-dimension structure. The
// double sum over (i, j) is evaluated on geometric buckets of the count
// values, which keeps estimation cheap while capturing the saturation of
// heavy rows/columns — the effect the uniform metadata model misses on
// skewed data.
func (MNC) Mul(a, b Meta) Meta {
	checkMulDims(a, b)
	if a.ColCounts == nil || b.RowCounts == nil || a.RowCounts == nil || b.ColCounts == nil {
		// Degrade gracefully to the metadata estimate when sketches are
		// unavailable (e.g. a synthetic shape with no materialized data).
		return Metadata{}.Mul(a, b)
	}
	// The count vectors may be samples of a (virtually) larger matrix:
	// lengths need not match the dimensions. Replication factors rescale
	// sampled sums to the full matrix; totals come from the scale-free
	// sparsity so sampled and full sketches agree.
	nnzA, nnzB := a.NNZ(), b.NNZ()
	rowsA, colsB := a.RowCounts.classified(), b.ColCounts.classified()
	if nnzA == 0 || nnzB == 0 {
		out := MetaDims(a.Rows, b.Cols, 0)
		out.RowCounts = rowsA.derive(make([]int, len(rowsA.vals)))
		out.ColCounts = colsB.derive(make([]int, len(colsB.vals)))
		return out
	}
	inner, innerB := a.ColCounts.classified(), b.RowCounts.classified()
	innerRep := float64(a.Cols) / float64(inner.Len())
	// The sum runs entry by entry, a chain of dependent additions; its
	// terms' conversions are made once per class, off that chain.
	var bufA, bufB [64]float64
	fa, fb := floatsOf(inner.vals, bufA[:0]), floatsOf(innerB.vals, bufB[:0])
	classB := innerB.idx.class[:len(inner.idx.class)]
	t := 0.0
	for k, ci := range inner.idx.class {
		t += fa[ci] * fb[classB[k]]
	}
	t *= innerRep
	coupling := t / (nnzA * nnzB)

	// The outer vectors' buckets outlive this call: a vector multiplied
	// again (the planner prices the same operand in many products) is not
	// bucketed again.
	bucketsA, bucketsB := rowsA.summary(), colsB.summary()
	rowRep := float64(a.Rows) / float64(rowsA.Len())
	colRep := float64(b.Cols) / float64(colsB.Len())
	expNNZ := 0.0
	for _, ba := range bucketsA {
		for _, bb := range bucketsB {
			lambda := ba.value * bb.value * coupling
			expNNZ += ba.n * rowRep * bb.n * colRep * -math.Expm1(-lambda)
		}
	}
	cells := float64(a.Rows) * float64(b.Cols)
	out := MetaDims(a.Rows, b.Cols, expNNZ/cells)
	out.RowCounts = propagateMulRows(rowsA, bucketsB, colRep, coupling, int(b.Cols))
	out.ColCounts = propagateMulRows(colsB, bucketsA, rowRep, coupling, int(a.Rows))
	return out
}

// floatsOf appends the values, converted, to dst.
func floatsOf(vals []int, dst []float64) []float64 {
	for _, v := range vals {
		dst = append(dst, float64(v))
	}
	return dst
}

// Virtualize re-dimensions a materialized matrix's metadata to virtual
// (paper-scale) dimensions: sparsity is preserved, and the count-vector
// values are rescaled so each retained row/column carries the nonzero count
// it would have at virtual width/height. The vectors keep their sampled
// lengths; MNC's replication factors account for the unsampled remainder.
func Virtualize(m Meta, vRows, vCols int64) Meta {
	if vRows <= 0 {
		vRows = m.Rows
	}
	if vCols <= 0 {
		vCols = m.Cols
	}
	out := m
	colScale := float64(vCols) / float64(m.Cols)
	rowScale := float64(vRows) / float64(m.Rows)
	out.RowCounts = scaleVals(m.RowCounts, colScale)
	out.ColCounts = scaleVals(m.ColCounts, rowScale)
	out.Rows, out.Cols = vRows, vCols
	return out
}

func scaleVals(counts *Counts, f float64) *Counts {
	if counts == nil || f == 1 {
		return counts
	}
	c := counts.classified()
	out := make([]int, len(c.vals))
	for ci, v := range c.vals {
		out[ci] = int(math.Round(float64(v) * f))
	}
	return c.derive(out)
}

// propagateMulRows estimates the per-row (or, transposed, per-column) count
// vector of a product: row i of the output has expected count
// Σ_j (1 - exp(-hr[i]·hcB[j]·coupling)), evaluated over the bucketed
// opposite-side counts with their replication factor — once per class of
// hr, over whose index the result is built.
func propagateMulRows(rows *Counts, opposite []bucket, oppositeRep, coupling float64, dimCap int) *Counts {
	perClass := make([]int, len(rows.vals))
	for ci, rc := range rows.vals {
		if rc == 0 {
			continue
		}
		exp := 0.0
		for _, b := range opposite {
			exp += b.n * oppositeRep * -math.Expm1(-float64(rc)*b.value*coupling)
		}
		if exp > float64(dimCap) {
			exp = float64(dimCap)
		}
		perClass[ci] = int(math.Round(exp))
	}
	return rows.derive(perClass)
}

func transposeMeta(a Meta) Meta {
	return Meta{Rows: a.Cols, Cols: a.Rows, Sparsity: a.Sparsity, RowCounts: a.ColCounts, ColCounts: a.RowCounts}
}

// Add implements Estimator: per-row/column union bound, capped at the
// dimension.
func (MNC) Add(a, b Meta) Meta {
	checkSameDims(a, b, "Add")
	s := a.Sparsity + b.Sparsity - a.Sparsity*b.Sparsity
	out := MetaDims(a.Rows, a.Cols, s)
	var total int
	out.RowCounts, total = unionCounts(a.RowCounts, b.RowCounts, int(a.Cols))
	out.ColCounts, _ = unionCounts(a.ColCounts, b.ColCounts, int(a.Rows))
	// If counts are available, derive the sparsity from them; they reflect
	// structure the independence assumption misses. The vectors may be
	// samples, so normalize by their own footprint.
	if n := out.RowCounts.Len(); n > 0 {
		out.Sparsity = clamp01(float64(total) / (float64(n) * float64(a.Cols)))
	}
	return out
}

// unionCounts returns the union bound of two count vectors and the sum of
// its entries.
func unionCounts(ca, cb *Counts, cap int) (*Counts, int) {
	if ca == nil || cb == nil || ca.Len() != cb.Len() {
		return nil, 0
	}
	return zipCounts(ca, cb, func(x, y int) int {
		// Union bound assuming the two patterns overlap proportionally.
		u := float64(x) + float64(y) - float64(x)*float64(y)/float64(cap)
		if u > float64(cap) {
			u = float64(cap)
		}
		return int(math.Round(u))
	})
}

// ElemMul implements Estimator: per-row intersection estimate.
func (MNC) ElemMul(a, b Meta) Meta {
	checkSameDims(a, b, "ElemMul")
	out := MetaDims(a.Rows, a.Cols, a.Sparsity*b.Sparsity)
	if a.RowCounts != nil && b.RowCounts != nil && a.RowCounts.Len() == b.RowCounts.Len() {
		var total int
		out.RowCounts, total = zipCounts(a.RowCounts, b.RowCounts, func(x, y int) int {
			return int(math.Round(float64(x) * float64(y) / float64(a.Cols)))
		})
		out.Sparsity = clamp01(float64(total) / (float64(out.RowCounts.Len()) * float64(a.Cols)))
	}
	return out
}

// Transpose implements Estimator: swap dimensions and count vectors.
func (MNC) Transpose(a Meta) Meta { return transposeMeta(a) }

// Scale implements Estimator: scaling by a nonzero constant preserves
// structure exactly.
func (MNC) Scale(a Meta) Meta { return a }
