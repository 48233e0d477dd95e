package matrix

import (
	"fmt"
	"math"
)

// This file implements the element-wise, scalar and reduction operators the
// DML runtime needs besides multiplication.

// transposeTile is the side of the square tile the dense transpose moves at
// a time: 32 rows of 32 doubles keep the strided side of the copy within 32
// cache lines, each reused for 8 consecutive columns.
const transposeTile = 32

// Transpose returns mᵀ in the same format as m.
func (m *Matrix) Transpose() *Matrix { return m.TransposeInto(nil) }

// TransposeInto is Transpose into a destination (see denseOver), which must
// not be m's own buffer.
func (m *Matrix) TransposeInto(dst []float64) *Matrix {
	if m.format == Dense {
		return transposeDense(dst, m)
	}
	// CSR transpose via column counting (classic two-pass).
	nnz := len(m.vals)
	rowPtr := make([]int, m.cols+1)
	for _, j := range m.colIdx {
		rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int, nnz)
	vals := make([]float64, nnz)
	next := append([]int(nil), rowPtr[:m.cols]...)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.colIdx[p]
			q := next[j]
			next[j]++
			colIdx[q] = i
			vals[q] = m.vals[p]
		}
	}
	return NewCSR(m.cols, m.rows, rowPtr, colIdx, vals)
}

// transposeDense moves m tile by tile, striped over tile columns of m (tile
// rows of the result). Every cell of t is written.
func transposeDense(dst []float64, m *Matrix) *Matrix {
	t, _ := denseOver(dst, m.cols, m.rows)
	// Transposing moves cells, it does not change them.
	t.nnz.Store(m.nnz.Load())
	if c := m.counts.Load(); c != nil {
		t.counts.Store(&nnzCounts{row: c.col, col: c.row})
	}
	if m.IsVector() {
		copy(t.data, m.data)
		return t
	}
	rows, cols := m.rows, m.cols
	tiles := (cols + transposeTile - 1) / transposeTile
	Stripes(tiles, func(i int) int { return i * rows * transposeTile }, func(lo, hi int) int {
		for jj := lo * transposeTile; jj < min(hi*transposeTile, cols); jj += transposeTile {
			jEnd := min(jj+transposeTile, cols)
			for ii := 0; ii < rows; ii += transposeTile {
				iEnd := min(ii+transposeTile, rows)
				for j := jj; j < jEnd; j++ {
					trow := t.data[j*rows+ii : j*rows+iEnd]
					src := m.data[ii*cols+j:]
					for i := range trow {
						trow[i] = src[i*cols]
					}
				}
			}
		}
		return 0
	})
	return t
}

func (m *Matrix) checkSameShape(other *Matrix, op string) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, other.rows, other.cols))
	}
}

// ewise names the element-wise operators of zipDense.
type ewise int

const (
	ewAdd ewise = iota
	ewSub
	ewMul
	ewDiv
)

// zipDense applies op cell by cell to the dense forms of a and b: one
// striped pass that also counts the nonzeros it writes. It reads cell i of
// both operands and then writes cell i, nothing else, so dst may be either
// operand's own buffer.
func zipDense(dst []float64, a, b *Matrix, op ewise) *Matrix {
	out, _ := denseOver(dst, a.rows, a.cols)
	ad, bd, od := a.ToDense().data, b.ToDense().data, out.data
	out.setNNZ(Stripes(len(od), func(i int) int { return i }, func(lo, hi int) int {
		x, y, o := ad[lo:hi], bd[lo:hi], od[lo:hi]
		nnz := 0
		switch op {
		case ewAdd:
			for i := range o {
				v := x[i] + y[i]
				o[i] = v
				if v != 0 {
					nnz++
				}
			}
		case ewSub:
			for i := range o {
				v := x[i] - y[i]
				o[i] = v
				if v != 0 {
					nnz++
				}
			}
		case ewMul:
			for i := range o {
				v := x[i] * y[i]
				o[i] = v
				if v != 0 {
					nnz++
				}
			}
		case ewDiv:
			for i := range o {
				v := x[i] / y[i]
				o[i] = v
				if v != 0 {
					nnz++
				}
			}
		}
		return nnz
	}))
	return out
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) *Matrix { return m.AddInto(nil, other) }

// AddInto is Add into a destination (see denseOver), which may be the dense
// buffer of either operand. The same holds for SubInto, ElemMulInto and
// ElemDivInto.
func (m *Matrix) AddInto(dst []float64, other *Matrix) *Matrix {
	m.checkSameShape(other, "Add")
	if m.format == CSR && other.format == CSR {
		return addCSR(m, other, 1).Compact()
	}
	return zipDense(dst, m, other, ewAdd).Compact()
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) *Matrix { return m.SubInto(nil, other) }

// SubInto is Sub into a destination.
func (m *Matrix) SubInto(dst []float64, other *Matrix) *Matrix {
	m.checkSameShape(other, "Sub")
	if m.format == CSR && other.format == CSR {
		return addCSR(m, other, -1).Compact()
	}
	return zipDense(dst, m, other, ewSub).Compact()
}

// addCSR merges two CSR matrices row-wise computing a + sign*b.
func addCSR(a, b *Matrix, sign float64) *Matrix {
	rowPtr := make([]int, a.rows+1)
	colIdx := make([]int, 0, len(a.vals)+len(b.vals))
	vals := make([]float64, 0, len(a.vals)+len(b.vals))
	for i := 0; i < a.rows; i++ {
		pa, pb := a.rowPtr[i], b.rowPtr[i]
		ea, eb := a.rowPtr[i+1], b.rowPtr[i+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && a.colIdx[pa] < b.colIdx[pb]):
				colIdx = append(colIdx, a.colIdx[pa])
				vals = append(vals, a.vals[pa])
				pa++
			case pa >= ea || b.colIdx[pb] < a.colIdx[pa]:
				colIdx = append(colIdx, b.colIdx[pb])
				vals = append(vals, sign*b.vals[pb])
				pb++
			default:
				v := a.vals[pa] + sign*b.vals[pb]
				if v != 0 {
					colIdx = append(colIdx, a.colIdx[pa])
					vals = append(vals, v)
				}
				pa++
				pb++
			}
		}
		rowPtr[i+1] = len(vals)
	}
	return NewCSR(a.rows, a.cols, rowPtr, colIdx, vals)
}

// ElemMul returns the Hadamard product m ⊙ other.
func (m *Matrix) ElemMul(other *Matrix) *Matrix { return m.ElemMulInto(nil, other) }

// ElemMulInto is ElemMul into a destination.
func (m *Matrix) ElemMulInto(dst []float64, other *Matrix) *Matrix {
	m.checkSameShape(other, "ElemMul")
	if m.format == CSR {
		// Walk the sparser operand's structure.
		rowPtr := make([]int, m.rows+1)
		colIdx := make([]int, 0, len(m.vals))
		vals := make([]float64, 0, len(m.vals))
		for i := 0; i < m.rows; i++ {
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				j := m.colIdx[p]
				v := m.vals[p] * other.At(i, j)
				if v != 0 {
					colIdx = append(colIdx, j)
					vals = append(vals, v)
				}
			}
			rowPtr[i+1] = len(vals)
		}
		return NewCSR(m.rows, m.cols, rowPtr, colIdx, vals).Compact()
	}
	if other.format == CSR {
		return other.ElemMulInto(dst, m)
	}
	return zipDense(dst, m, other, ewMul).Compact()
}

// ElemDiv returns element-wise m / other (IEEE semantics for zero divisors).
func (m *Matrix) ElemDiv(other *Matrix) *Matrix { return m.ElemDivInto(nil, other) }

// ElemDivInto is ElemDiv into a destination.
func (m *Matrix) ElemDivInto(dst []float64, other *Matrix) *Matrix {
	m.checkSameShape(other, "ElemDiv")
	return zipDense(dst, m, other, ewDiv).Compact()
}

// Scale returns s · m in m's format.
func (m *Matrix) Scale(s float64) *Matrix { return m.ScaleInto(nil, s) }

// ScaleInto is Scale into a destination (see denseOver), which may be m's
// own buffer: cell i is read, then written.
func (m *Matrix) ScaleInto(dst []float64, s float64) *Matrix {
	if s == 0 {
		return NewCSR(m.rows, m.cols, make([]int, m.rows+1), nil, nil)
	}
	if m.format == Dense {
		out, _ := denseOver(dst, m.rows, m.cols)
		out.setNNZ(Stripes(len(out.data), func(i int) int { return i }, func(lo, hi int) int {
			x, o := m.data[lo:hi], out.data[lo:hi]
			nnz := 0
			for i := range o {
				v := x[i] * s
				o[i] = v
				if v != 0 {
					nnz++
				}
			}
			return nnz
		}))
		return out
	}
	vals := make([]float64, len(m.vals))
	for i, v := range m.vals {
		vals[i] = v * s
	}
	return NewCSR(m.rows, m.cols, append([]int(nil), m.rowPtr...), append([]int(nil), m.colIdx...), vals)
}

// AddScalar returns m + s on every element (densifying).
func (m *Matrix) AddScalar(s float64) *Matrix { return m.AddScalarInto(nil, s) }

// AddScalarInto is AddScalar into a destination (see denseOver), which may
// be m's own buffer.
func (m *Matrix) AddScalarInto(dst []float64, s float64) *Matrix {
	d := m.ToDense()
	if d != m {
		dst = d.data // a CSR receiver's dense form is ours to overwrite
	}
	out, _ := denseOver(dst, m.rows, m.cols)
	out.setNNZ(Stripes(len(out.data), func(i int) int { return i }, func(lo, hi int) int {
		x, o := d.data[lo:hi], out.data[lo:hi]
		nnz := 0
		for i := range o {
			v := x[i] + s
			o[i] = v
			if v != 0 {
				nnz++
			}
		}
		return nnz
	}))
	return out.Compact()
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	total := 0.0
	if m.format == Dense {
		for _, v := range m.data {
			total += v
		}
		return total
	}
	for _, v := range m.vals {
		total += v
	}
	return total
}

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	total := 0.0
	if m.format == Dense {
		for _, v := range m.data {
			total += v * v
		}
	} else {
		for _, v := range m.vals {
			total += v * v
		}
	}
	return math.Sqrt(total)
}

// Neg returns -m.
func (m *Matrix) Neg() *Matrix { return m.Scale(-1) }

// IsSymmetric reports whether m equals its transpose within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	return m.ApproxEqual(m.Transpose(), tol)
}
