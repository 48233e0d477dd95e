// Package matrix implements the local matrix kernels that underpin the
// distributed matrix runtime, mirroring the block operations of SystemDS.
//
// A Matrix is either dense (row-major float64 slice) or sparse (compressed
// sparse rows). Following SystemDS, the runtime stores a matrix densely when
// its sparsity exceeds DenseThreshold and in CSR otherwise; callers that
// build matrices incrementally can ask for the economical format with
// Compact.
package matrix

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Format identifies the physical representation of a Matrix.
type Format int

const (
	// Dense is a row-major []float64 of length rows*cols.
	Dense Format = iota
	// CSR is compressed sparse rows: rowPtr, colIdx, vals.
	CSR
)

// String returns the SystemDS-style name of the format.
func (f Format) String() string {
	switch f {
	case Dense:
		return "dense"
	case CSR:
		return "sparse"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// DenseThreshold is the sparsity above which SystemDS (and hence this
// runtime) stores a matrix densely. See §4.2 of the paper: "we use a dense
// format if S > 0.4".
const DenseThreshold = 0.4

// CSRThreshold is the sparsity above which a sparse matrix uses CSR rather
// than an ultra-sparse coordinate encoding (paper: 0.0004 < S <= 0.4 uses
// compressed sparse rows). We use CSR for everything at or below
// DenseThreshold; the size model in SizeBytes still distinguishes the
// ultra-sparse regime.
const CSRThreshold = 0.0004

// Matrix is a two-dimensional float64 matrix in either dense or CSR format.
// The zero value is not usable; use the constructors.
type Matrix struct {
	rows, cols int
	format     Format

	// dense payload (format == Dense)
	data []float64

	// CSR payload (format == CSR)
	rowPtr []int
	colIdx []int
	vals   []float64

	// Carried metadata. Matrices are shared across goroutines (plan,
	// intermediate and idempotency caches), so the fields are atomics:
	// racing lazy fills compute and store the same value.
	//
	// nnz is the number of nonzero dense cells plus one; zero means "not
	// counted yet". Kernels store it while the row they just produced is
	// still in cache; anything else is counted on first use. CSR matrices
	// never need it (len(vals)).
	nnz atomic.Int64
	// counts holds the per-row and per-column nonzero counts once asked
	// for. The vectors are never written after publication.
	counts atomic.Pointer[nnzCounts]
	// blocks holds the nonzero counts of a block grid over the matrix once
	// asked for (BlockNNZ); immutable after publication like counts.
	blocks atomic.Pointer[blockNNZ]
	// summary holds what the cells come to for whoever identifies or reports
	// the matrix without them (Summary), once somebody has made the pass.
	summary atomic.Pointer[Summary]
	// transposed holds the transpose once asked for (Transposed): a matrix
	// of its own that nobody writes, for as long as the cells stay as they are.
	transposed atomic.Pointer[Matrix]
}

// Summary is a matrix reduced to what crosses a wire in its place: Digest
// identifies the shape and the nonzero cells bit for bit, SumSq is Σx². Both
// come from one pass over the cells, which integrity.Summarise makes and
// defines; the matrix only carries the outcome, like its nonzero counts.
type Summary struct {
	Digest uint64
	SumSq  float64
}

// Summary returns the summary the matrix carries, if a pass has been made
// since its cells last changed.
func (m *Matrix) Summary() (s Summary, ok bool) {
	if p := m.summary.Load(); p != nil {
		return *p, true
	}
	return Summary{}, false
}

// SetSummary records the summary of the cells as they are now.
func (m *Matrix) SetSummary(s Summary) { m.summary.Store(&s) }

type nnzCounts struct {
	row, col []int
	form     atomic.Pointer[any] // what NNZCounts built of row and col
}

type blockNNZ struct {
	grid, cols int // the grid asked for, and how many blocks across it came to
	counts     []int
}

// setNNZ records the nonzero count of a dense matrix whose cells the caller
// has just written.
func (m *Matrix) setNNZ(n int) { m.nnz.Store(int64(n) + 1) }

// invalidate drops the carried metadata; every writer that changes a cell
// after construction calls it. Builders call Set once per cell, so the
// common nothing-to-drop case stays a pair of loads.
func (m *Matrix) invalidate() {
	if m.nnz.Load() != 0 {
		m.nnz.Store(0)
	}
	if m.counts.Load() != nil {
		m.counts.Store(nil)
	}
	if m.blocks.Load() != nil {
		m.blocks.Store(nil)
	}
	if m.summary.Load() != nil {
		m.summary.Store(nil)
	}
	if m.transposed.Load() != nil {
		m.transposed.Store(nil)
	}
}

// Transposed returns the transpose the matrix carries, made on first use by
// Transpose: the same cells bit for bit, dense or CSR like m, shared by every
// caller until a cell of m changes. Callers must not write it or give its
// buffer up as a destination. Racing first callers compute the same cells;
// the first to publish wins.
func (m *Matrix) Transposed() *Matrix {
	if t := m.transposed.Load(); t != nil {
		return t
	}
	t := m.TransposeInto(nil)
	if !m.transposed.CompareAndSwap(nil, t) {
		if won := m.transposed.Load(); won != nil {
			return won
		}
	}
	return t
}

// NewDense returns a rows×cols dense zero matrix.
func NewDense(rows, cols int) *Matrix {
	checkDims(rows, cols)
	return &Matrix{rows: rows, cols: cols, format: Dense, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) as a dense matrix.
// The slice is owned by the matrix afterwards.
func NewDenseData(rows, cols int, data []float64) *Matrix {
	checkDims(rows, cols)
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: NewDenseData %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{rows: rows, cols: cols, format: Dense, data: data}
}

// denseOver is how every kernel with a dense result gets its output: a
// rows×cols matrix over dst, or over a fresh zeroed buffer when dst is nil —
// the allocating operators are the nil-destination call of the Into ones. A
// caller's dst must hold rows·cols cells and may hold anything in them
// (dirty): the kernel writes or clears every one. The result gets a new
// header either way, so carried counts are never those of the cells dst held
// before. An operator whose result ends up CSR leaves dst behind, as scratch
// or untouched; Buffer tells the caller which happened.
func denseOver(dst []float64, rows, cols int) (out *Matrix, dirty bool) {
	if dst == nil {
		return NewDense(rows, cols), false
	}
	return NewDenseData(rows, cols, dst), true
}

// Buffer returns the dense payload itself, not a copy (nil for CSR): what a
// caller that owns m outright may pass as a destination once m is dead, and
// what tells it whether a result was built on the destination it supplied.
func (m *Matrix) Buffer() []float64 { return m.data }

// NewCSR returns a rows×cols sparse matrix from raw CSR arrays. The arrays
// are owned by the matrix afterwards. Column indices within a row must be
// strictly increasing.
func NewCSR(rows, cols int, rowPtr, colIdx []int, vals []float64) *Matrix {
	checkDims(rows, cols)
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("matrix: NewCSR rowPtr length %d, want %d", len(rowPtr), rows+1))
	}
	if len(colIdx) != len(vals) {
		panic(fmt.Sprintf("matrix: NewCSR colIdx/vals length mismatch %d vs %d", len(colIdx), len(vals)))
	}
	if rowPtr[rows] != len(vals) {
		panic(fmt.Sprintf("matrix: NewCSR rowPtr[last]=%d, want %d", rowPtr[rows], len(vals)))
	}
	return &Matrix{rows: rows, cols: cols, format: CSR, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Identity returns the n×n dense identity matrix.
func Identity(n int) *Matrix {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	m.setNNZ(n)
	return m
}

// Scalar returns a 1×1 matrix holding v. The runtime models scalars as 1×1
// matrices, like SystemDS does internally.
func Scalar(v float64) *Matrix {
	return NewDenseData(1, 1, []float64{v})
}

func checkDims(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: non-positive dimensions %dx%d", rows, cols))
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Format returns the physical representation.
func (m *Matrix) Format() Format { return m.format }

// IsVector reports whether the matrix has a single row or column.
func (m *Matrix) IsVector() bool { return m.rows == 1 || m.cols == 1 }

// IsScalar reports whether the matrix is 1×1.
func (m *Matrix) IsScalar() bool { return m.rows == 1 && m.cols == 1 }

// ScalarValue returns the single element of a 1×1 matrix.
func (m *Matrix) ScalarValue() float64 {
	if !m.IsScalar() {
		panic(fmt.Sprintf("matrix: ScalarValue on %dx%d matrix", m.rows, m.cols))
	}
	return m.At(0, 0)
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	if m.format == Dense {
		return m.data[i*m.cols+j]
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	// Binary search the row's column indices.
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.colIdx[mid] == j:
			return m.vals[mid]
		case m.colIdx[mid] < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Set stores v at (i, j). The matrix must be dense; sparse matrices are
// immutable once built (as in SystemDS block semantics).
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	if m.format != Dense {
		panic("matrix: Set on sparse matrix")
	}
	m.data[i*m.cols+j] = v
	m.invalidate()
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// NNZ returns the number of structurally stored nonzero elements. For dense
// matrices it counts exact nonzero values — once: kernel outputs arrive with
// the count filled in, anything else is scanned on first use.
func (m *Matrix) NNZ() int {
	if m.format == CSR {
		return len(m.vals)
	}
	if c := m.nnz.Load(); c != 0 {
		return int(c - 1)
	}
	n := countNonzero(m.data)
	m.setNNZ(n)
	return n
}

func countNonzero(vals []float64) int {
	n := 0
	for _, v := range vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns NNZ / (rows*cols).
func (m *Matrix) Sparsity() float64 {
	return float64(m.NNZ()) / (float64(m.rows) * float64(m.cols))
}

// Clone returns a deep copy. Carried metadata comes along (the count
// vectors and the transpose are immutable, so the copy shares them).
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, format: m.format}
	c.nnz.Store(m.nnz.Load())
	c.counts.Store(m.counts.Load())
	c.blocks.Store(m.blocks.Load())
	c.summary.Store(m.summary.Load())
	c.transposed.Store(m.transposed.Load())
	if m.format == Dense {
		c.data = append([]float64(nil), m.data...)
		return c
	}
	c.rowPtr = append([]int(nil), m.rowPtr...)
	c.colIdx = append([]int(nil), m.colIdx...)
	c.vals = append([]float64(nil), m.vals...)
	return c
}

// FlipValueBit returns a copy of the matrix with the given bit XOR-ed into
// the float64 payload of its (k mod n)-th numerically nonzero stored value,
// counting in row-major order over the n such values. The receiver is never
// mutated (sparse matrices are immutable, and blocks are shared). ok is
// false — and the receiver is returned unchanged — when the matrix stores no
// nonzero value. Counting only nonzero *values* (CSR blocks may store
// explicit zeros) keeps the choice of victim independent of the physical
// format, like the integrity digest.
func (m *Matrix) FlipValueBit(k, bit int) (flipped *Matrix, ok bool) {
	n := m.NNZ()
	if m.format == CSR {
		n = countNonzero(m.vals)
	}
	if n == 0 {
		return m, false
	}
	if k < 0 {
		k = -k
	}
	k %= n
	c := m.Clone()
	flip := func(vals []float64) {
		for i, v := range vals {
			if v == 0 {
				continue
			}
			if k == 0 {
				vals[i] = math.Float64frombits(math.Float64bits(v) ^ (1 << uint(bit)))
				return
			}
			k--
		}
	}
	if c.format == Dense {
		flip(c.data)
	} else {
		flip(c.vals)
	}
	// The flipped value may have become zero (bit 62 of 2.0), so the
	// metadata Clone carried over is not the copy's.
	c.invalidate()
	return c, true
}

// Equal reports exact element-wise equality.
func (m *Matrix) Equal(other *Matrix) bool {
	return m.ApproxEqual(other, 0)
}

// ApproxEqual reports element-wise equality within tol (absolute or relative,
// whichever is looser).
func (m *Matrix) ApproxEqual(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			a, b := m.At(i, j), other.At(i, j)
			if a == b {
				continue
			}
			diff := math.Abs(a - b)
			scale := math.Max(math.Abs(a), math.Abs(b))
			if diff > tol && diff > tol*scale {
				return false
			}
		}
	}
	return true
}

// String renders small matrices fully and large ones as a summary.
func (m *Matrix) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d %s nnz=%d)", m.rows, m.cols, m.format, m.NNZ())
	}
	s := fmt.Sprintf("Matrix(%dx%d %s)[", m.rows, m.cols, m.format)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", m.At(i, j))
		}
	}
	return s + "]"
}
