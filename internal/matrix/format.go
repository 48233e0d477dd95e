package matrix

// This file implements format conversion and the physical size model used by
// the cost model's transmission terms (§4.2: size(V) = α·S_V + β for CSR).

// ToDense returns a dense copy of the matrix (or the matrix itself when it
// is already dense).
func (m *Matrix) ToDense() *Matrix {
	if m.format == Dense {
		return m
	}
	d := NewDense(m.rows, m.cols)
	nnz := 0
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.vals[p]
			d.data[i*m.cols+m.colIdx[p]] = v
			if v != 0 { // CSR may store explicit zeros
				nnz++
			}
		}
	}
	d.setNNZ(nnz)
	return d
}

// ToCSR returns a CSR copy of the matrix (or the matrix itself when it is
// already CSR). Zero dense entries are dropped.
func (m *Matrix) ToCSR() *Matrix {
	if m.format == CSR {
		return m
	}
	nnz := m.NNZ()
	rowPtr := make([]int, m.rows+1)
	colIdx := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			if v := m.data[base+j]; v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = len(vals)
	}
	return NewCSR(m.rows, m.cols, rowPtr, colIdx, vals)
}

// Compact returns the matrix in the format SystemDS would choose for its
// sparsity: dense above DenseThreshold, CSR otherwise. The receiver may be
// returned unchanged.
func (m *Matrix) Compact() *Matrix {
	if m.Sparsity() > DenseThreshold {
		return m.ToDense()
	}
	return m.ToCSR()
}

// Size-model constants. A dense cell is one float64; a CSR entry stores a
// value plus a column index; a CSR row adds one row-pointer. These drive the
// D_pr byte volumes of the transmission cost (§4.2).
const (
	bytesPerValue  = 8
	bytesPerColIdx = 4
	bytesPerRowPtr = 8
	headerBytes    = 64 // block metadata fields (dims, nnz, format tag)
)

// SizeBytes returns the serialized size of the matrix in its current format.
func (m *Matrix) SizeBytes() int64 {
	return SizeBytesFor(m.rows, m.cols, m.Sparsity())
}

// SizeBytesFor returns the modelled serialized size for a rows×cols matrix
// of the given sparsity, choosing the format the runtime would choose. This
// is the α·S+β linear model of §4.2: for CSR, α·S is the values+indexes
// array and β the row pointers and metadata.
func SizeBytesFor(rows, cols int, sparsity float64) int64 {
	cells := float64(rows) * float64(cols)
	if sparsity > DenseThreshold {
		return int64(cells*bytesPerValue) + headerBytes
	}
	nnz := cells * sparsity
	alpha := nnz * (bytesPerValue + bytesPerColIdx)
	beta := float64(rows)*bytesPerRowPtr + headerBytes
	return int64(alpha + beta)
}

// DenseRow returns the i-th row as a dense slice (a copy for CSR, a view
// into the backing array for dense matrices — callers must not mutate it).
func (m *Matrix) DenseRow(i int) []float64 {
	if m.format == Dense {
		return m.data[i*m.cols : (i+1)*m.cols]
	}
	row := make([]float64, m.cols)
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		row[m.colIdx[p]] = m.vals[p]
	}
	return row
}

// StoredRow returns row i as it is stored, views the caller must not write:
// every cell of a dense row (cols nil: the index is the column), or the
// column indices and values a CSR row holds, explicit zeros included.
func (m *Matrix) StoredRow(i int) (cols []int, vals []float64) {
	if m.format == Dense {
		return nil, m.data[i*m.cols : (i+1)*m.cols]
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// StoredBefore returns how many cells rows [0, i) store: i·cols for a dense
// matrix, the row pointer for a CSR one (explicit zeros included).
func (m *Matrix) StoredBefore(i int) int {
	if m.format == Dense {
		return i * m.cols
	}
	return m.rowPtr[i]
}

// NNZCounts returns what form makes of the matrix's per-row and per-column
// nonzero counts (the MNC sparsity estimator's sketch). form is handed the
// vectors the matrix carries, which nothing may write, and its result is
// carried beside them: built by the first call after the counts are taken
// and returned to every later call asking for the same type, until a cell
// changes and both are dropped.
func NNZCounts[T any](m *Matrix, form func(row, col []int) *T) *T {
	c := m.nnzCounts()
	if p := c.form.Load(); p != nil {
		if f, ok := (*p).(*T); ok {
			return f
		}
	}
	f := form(c.row, c.col)
	var carried any = f
	c.form.Store(&carried)
	return f
}

// nnzCounts returns the carried count vectors, computing them — in one pass
// over the payload, which for a dense matrix also settles NNZ — the first
// time they are asked for.
func (m *Matrix) nnzCounts() *nnzCounts {
	if c := m.counts.Load(); c != nil {
		return c
	}
	c := &nnzCounts{row: make([]int, m.rows), col: make([]int, m.cols)}
	if m.format == CSR {
		for i := range c.row {
			c.row[i] = m.rowPtr[i+1] - m.rowPtr[i]
		}
		for _, j := range m.colIdx {
			c.col[j]++
		}
	} else {
		nnz := 0
		for i := range c.row {
			n := 0
			for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
				if v != 0 {
					c.col[j]++
					n++
				}
			}
			c.row[i] = n
			nnz += n
		}
		m.setNNZ(nnz)
	}
	m.counts.Store(c)
	return c
}

// BlockNNZ cuts the matrix into a grid of at most grid×grid equal blocks
// (fewer along a side shorter than grid) and returns the number of
// structurally nonzero elements in each, row-major, with the number of blocks
// across. The counts are computed on first call and carried by the matrix;
// the caller must not write them.
func (m *Matrix) BlockNNZ(grid int) (counts []int, across int) {
	if b := m.blocks.Load(); b != nil && b.grid == grid {
		return b.counts, b.cols
	}
	gr, gc := min(grid, m.rows), min(grid, m.cols)
	cellRows := (m.rows + gr - 1) / gr
	cellCols := (m.cols + gc - 1) / gc
	counts = make([]int, gr*gc)
	for i := 0; i < m.rows; i++ {
		row := counts[(i/cellRows)*gc:][:gc]
		if m.format == CSR {
			for _, j := range m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]] {
				row[j/cellCols]++
			}
			continue
		}
		cells := m.data[i*m.cols : (i+1)*m.cols]
		for b, lo := 0, 0; lo < m.cols; b, lo = b+1, lo+cellCols {
			row[b] += countNonzero(cells[lo:min(lo+cellCols, m.cols)])
		}
	}
	m.blocks.Store(&blockNNZ{grid: grid, cols: gc, counts: counts})
	return counts, gc
}

// ForEachNonzero calls fn for every structurally nonzero element in row
// order. For dense matrices, zero values are skipped.
func (m *Matrix) ForEachNonzero(fn func(i, j int, v float64)) {
	if m.format == CSR {
		for i := 0; i < m.rows; i++ {
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				fn(i, m.colIdx[p], m.vals[p])
			}
		}
		return
	}
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			if v := m.data[base+j]; v != 0 {
				fn(i, j, v)
			}
		}
	}
}
