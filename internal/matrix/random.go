package matrix

import (
	"math"
	"math/rand"
)

// This file provides deterministic random matrix constructors used by the
// dataset generators and the tests. All take an explicit *rand.Rand so runs
// are reproducible.

// RandDense returns a rows×cols dense matrix with entries uniform in
// [-1, 1).
func RandDense(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewDense(rows, cols)
	nnz := 0
	for i := range m.data {
		// float64(…) keeps an arm64 compiler from fusing the inlined
		// Float64's scaling into the doubling (exact either way).
		v := 2*float64(rng.Float64()) - 1
		m.data[i] = v
		if v != 0 { // Float64 can return exactly 0.5
			nnz++
		}
	}
	m.setNNZ(nnz)
	return m
}

// RandSparse returns a rows×cols CSR matrix where each cell is nonzero with
// probability sparsity and nonzero values are uniform in [-1, 1).
func RandSparse(rng *rand.Rand, rows, cols int, sparsity float64) *Matrix {
	rowPtr := make([]int, rows+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < rows; i++ {
		// Geometric skipping for efficiency at low sparsity.
		j := nextHit(rng, sparsity, -1)
		for j < cols {
			colIdx = append(colIdx, j)
			vals = append(vals, 2*float64(rng.Float64())-1)
			j = nextHit(rng, sparsity, j)
		}
		rowPtr[i+1] = len(vals)
	}
	return NewCSR(rows, cols, rowPtr, colIdx, vals)
}

// nextHit returns the next column index after prev that is selected with
// probability p per cell, via geometric skipping.
func nextHit(rng *rand.Rand, p float64, prev int) int {
	if p <= 0 {
		return math.MaxInt32
	}
	if p >= 1 {
		return prev + 1
	}
	u := rng.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	skip := int(math.Floor(math.Log(u)/math.Log(1-p))) + 1
	if skip < 1 {
		skip = 1
	}
	return prev + skip
}

// RandSymmetric returns a dense symmetric rows×rows matrix (used for the
// inverse-Hessian approximations in DFP/BFGS tests).
func RandSymmetric(rng *rand.Rand, n int) *Matrix {
	m := RandDense(rng, n, n)
	return m.Add(m.Transpose()).Scale(0.5)
}

// RandVector returns an n×1 dense column vector with entries in [-1, 1).
func RandVector(rng *rand.Rand, n int) *Matrix {
	return RandDense(rng, n, 1)
}

// ZipfSparse returns a rows×cols CSR matrix with the given overall sparsity
// whose nonzeros are skewed across rows and columns following a Zipf
// distribution with the given exponent. Exponent 0 degenerates to the
// uniform distribution. This reproduces the zipf-* synthetic datasets of
// §6.5: with exponent 2.8, more than 95% of nonzeros land in ~5% of the
// rows and columns.
func ZipfSparse(rng *rand.Rand, rows, cols int, sparsity, exponent float64) *Matrix {
	if exponent <= 0 {
		return RandSparse(rng, rows, cols, sparsity)
	}
	targetNNZ := int(float64(rows) * float64(cols) * sparsity)

	// Allocate per-row nonzero quotas proportional to Zipf weights, capped
	// at a tenth of the column count (heavy rows are dense but not full —
	// a single full row would make AᵀA trivially dense at every skew),
	// spilling any excess down the rank order. Direct rejection sampling
	// of (row, col) cells would flatten the skew: at exponent 2.8 over 80%
	// of draws hit one cell, which can only be stored once.
	rowCap := cols / 10
	if rowCap < 1 {
		rowCap = 1
	}
	rowQuota := zipfQuotas(rows, exponent, targetNNZ, rowCap)
	colCDF := zipfCDF(cols, exponent)
	rowPerm := rng.Perm(rows)
	colPerm := rng.Perm(cols)

	perRow := make([][]int, rows)
	seen := make([]bool, cols)
	for rank := 0; rank < rows; rank++ {
		q := rowQuota[rank]
		if q == 0 {
			continue
		}
		i := rowPerm[rank]
		chosen := make([]int, 0, q)
		// Sample distinct columns from the Zipf CDF; when duplicates start
		// dominating (dense rows), fill the remainder from the rank order.
		for attempts := 0; len(chosen) < q && attempts < 8*q; attempts++ {
			c := sampleCDF(rng, colCDF)
			if !seen[c] {
				seen[c] = true
				chosen = append(chosen, c)
			}
		}
		for c := 0; len(chosen) < q; c++ {
			if !seen[c] {
				seen[c] = true
				chosen = append(chosen, c)
			}
		}
		rowCols := make([]int, 0, len(chosen))
		for _, c := range chosen {
			seen[c] = false
			rowCols = append(rowCols, colPerm[c])
		}
		insertionSortInts(rowCols)
		perRow[i] = rowCols
	}
	rowPtr := make([]int, rows+1)
	colIdx := make([]int, 0, targetNNZ)
	vals := make([]float64, 0, targetNNZ)
	for i := 0; i < rows; i++ {
		for _, j := range perRow[i] {
			colIdx = append(colIdx, j)
			vals = append(vals, 2*float64(rng.Float64())-1)
		}
		rowPtr[i+1] = len(vals)
	}
	return NewCSR(rows, cols, rowPtr, colIdx, vals)
}

// zipfQuotas splits total into n integer quotas proportional to a Zipf
// distribution with the given exponent, capping each quota at max and
// spilling the excess to later ranks.
func zipfQuotas(n int, exponent float64, total, max int) []int {
	weights := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		weights[k] = 1 / math.Pow(float64(k+1), exponent)
		sum += weights[k]
	}
	quotas := make([]int, n)
	remaining := total
	// Repeated proportional passes: mass clipped by the per-row cap cascades
	// onto the next unsaturated ranks, preserving the head-heavy shape
	// instead of smearing the excess uniformly.
	for pass := 0; remaining > 0 && pass < 64; pass++ {
		tailSum := 0.0
		for k := 0; k < n; k++ {
			if quotas[k] < max {
				tailSum += weights[k]
			}
		}
		if tailSum == 0 {
			break
		}
		progress := false
		budget := remaining
		for k := 0; k < n && remaining > 0; k++ {
			if quotas[k] >= max {
				continue
			}
			q := int(math.Round(float64(budget) * weights[k] / tailSum))
			if q > max-quotas[k] {
				q = max - quotas[k]
			}
			if q > remaining {
				q = remaining
			}
			if q > 0 {
				quotas[k] += q
				remaining -= q
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	// Greedy fallback for rounding residue: fill in rank order.
	for k := 0; k < n && remaining > 0; k++ {
		take := max - quotas[k]
		if take > remaining {
			take = remaining
		}
		quotas[k] += take
		remaining -= take
	}
	return quotas
}

func zipfCDF(n int, exponent float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), exponent)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func sampleCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
