package matrix

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements matrix multiplication for every format pairing. The
// kernels parallelize over row stripes (dense×dense over columns when there
// are too few rows); sparse kernels walk CSR structure directly so FLOP
// tracks nnz, matching the FLOP model the cost model charges
// (3·R·C·C'·S_U·S_V, §4.2). Dense outputs leave with their nonzero count
// set, so the Compact that ends Mul does not scan them again.

// Mul returns m · other. Panics if the inner dimensions disagree. The result
// is compacted to the format its sparsity warrants.
func (m *Matrix) Mul(other *Matrix) *Matrix { return m.MulInto(nil, other) }

// MulInto is Mul into a destination (see denseOver), which must not be an
// operand's buffer: a product reads cells it has already written over.
func (m *Matrix) MulInto(dst []float64, other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	var out *Matrix
	switch {
	case m.format == Dense && other.format == Dense:
		out = mulDenseDense(dst, m, other)
	case m.format == CSR && other.format == Dense:
		out = mulCSRDense(dst, m, other)
	case m.format == Dense && other.format == CSR:
		out = mulDenseCSR(dst, m, other)
	default:
		out = mulCSRCSR(m, other)
	}
	return out.Compact()
}

// MulFLOP returns the floating-point operation count the multiplication
// m·other performs under the paper's model: 3·R_U·C_U·C_V·S_U·S_V (two for
// multiply-adds, one for the additions; §4.2).
func MulFLOP(rowsU, colsU, colsV int, sU, sV float64) float64 {
	return 3 * float64(rowsU) * float64(colsU) * float64(colsV) * sU * sV
}

// MinStripeCells is the least work worth a stripe of its own: a goroutine
// hand-off costs about as much as a pass over this many cells. Work is
// counted in cells a kernel touches — multiply-adds for a product, stored
// cells for a pass over a matrix.
const MinStripeCells = 1 << 14

// Stripes cuts [0, n) into contiguous ranges of equal work and runs body on
// each concurrently, the first on the calling goroutine, and returns the sum
// of what the bodies return. work(i) is the work of items [0, i): zero at 0,
// nondecreasing. There are min(GOMAXPROCS, n, work(n)/MinStripeCells)
// ranges; below two, body(0, n) runs on the caller alone. A range ends at the
// first item whose prefix reaches its share of the total, so it carries at
// most that share plus one item. The Go scheduler places the stripes.
func Stripes(n int, work func(i int) int, body func(lo, hi int) int) int {
	total := work(n)
	ranges := min(runtime.GOMAXPROCS(0), n, total/MinStripeCells)
	if ranges < 2 {
		return body(0, n)
	}
	// start(r) is where range r begins; the last ends at start(ranges) = n.
	start := func(r int) int {
		if r == ranges {
			return n
		}
		return sort.Search(n, func(i int) bool { return work(i) >= total*r/ranges })
	}
	var sum atomic.Int64
	var wg sync.WaitGroup
	wg.Add(ranges - 1)
	for r := 1; r < ranges; r++ {
		go func() {
			defer wg.Done()
			sum.Add(int64(body(start(r), start(r+1))))
		}()
	}
	sum.Add(int64(body(0, start(1))))
	wg.Wait()
	return int(sum.Load())
}

// mulDenseDense computes a·b for dense operands. Every path below builds
// each output cell the same way — start from +0, then for k ascending add
// a[i,k]·b[k,j] unless a[i,k] == 0 — so the result does not depend on the
// path, the striping or the unrolling, bit for bit. The paths differ in what
// they keep in registers: the shapes the workloads run are rank-one updates
// (k = 1), matrix·vector (p = 1), vector·matrix (one row) and tall-skinny
// products over operands about half zero, not squares. They also differ in
// what a dirty destination asks of them: the mat-vec writes every cell, the
// outer product zero-fills the rows it skips, the few-row path copies every
// cell out of its tile, and the row path clears each row as it reaches it —
// inside the stripe, while the row is about to be in cache anyway.
func mulDenseDense(dst []float64, a, b *Matrix) *Matrix {
	out, dirty := denseOver(dst, a.rows, b.cols)
	n, k, p := a.rows, a.cols, b.cols
	ad, bd, od := a.data, b.data, out.data
	var nnz int
	switch {
	case p == 1:
		nnz = Stripes(n, func(i int) int { return i * k }, func(lo, hi int) int {
			return mulMatVec(od[lo:hi], ad[lo*k:hi*k], bd, vectorLoops)
		})
	case k == 1:
		nnz = Stripes(n, func(i int) int { return i * p }, func(lo, hi int) int {
			return mulOuter(od[lo*p:hi*p], ad[lo:hi], bd, dirty)
		})
	case n < 64:
		// A shape test, not a stripe size: a few rows (a vector·matrix, most
		// often) share out worse than their columns, so stripe the columns.
		// A stripe accumulates its columns a chunk at a time in a private
		// tile, k-block by k-block so that the block of b stays in cache
		// while every row passes over it, and copies the chunk out at the
		// end: no two stripes write the same cache line while they add.
		full := a.NNZ() == n*k // no step to skip: every k, rows in pairs
		nnz = Stripes(p, func(j int) int { return j * n * k }, func(lo, hi int) int {
			var tile [tileCells]float64
			var idx [kBlock]int32
			c := 0
			for c0 := lo; c0 < hi; c0 += tileCells / n {
				w := min(tileCells/n, hi-c0)
				t := tile[:n*w]
				clear(t)
				for k0 := 0; k0 < k; k0 += kBlock {
					k1 := min(k0+kBlock, k)
					i := 0
					for ; full && i+2 <= n; i += 2 {
						a0, a1 := ad[i*k+k0:i*k+k1], ad[(i+1)*k+k0:(i+1)*k+k1]
						mulRowPair(t[i*w:(i+1)*w], t[(i+1)*w:(i+2)*w], a0, a1, bd[k0*p+c0:], p, vectorLoops)
					}
					for ; i < n; i++ {
						blk := ad[i*k+k0 : i*k+k1]
						mulRow(t[i*w:(i+1)*w], blk, nonzeroK(&idx, blk), bd[k0*p+c0:], p, vectorLoops)
					}
				}
				for i := 0; i < n; i++ {
					o := od[i*p+c0:][:w]
					copy(o, t[i*w:])
					c += countNonzero(o)
				}
			}
			return c
		})
	default:
		full := a.NNZ() == n*k
		nnz = Stripes(n, func(i int) int { return i * k * p }, func(lo, hi int) int {
			var idx [kBlock]int32
			c, i := 0, lo
			for ; full && i+2 <= hi; i += 2 {
				o := od[i*p : (i+2)*p]
				if dirty {
					clear(o)
				}
				mulRowPair(o[:p], o[p:], ad[i*k:(i+1)*k], ad[(i+1)*k:(i+2)*k], bd, p, vectorLoops)
				c += countNonzero(o)
			}
			for ; i < hi; i++ {
				o := od[i*p : (i+1)*p]
				if dirty {
					clear(o)
				}
				for k0 := 0; k0 < k; k0 += kBlock {
					blk := ad[i*k+k0 : i*k+min(k0+kBlock, k)]
					mulRow(o, blk, nonzeroK(&idx, blk), bd[k0*p:], p, vectorLoops)
				}
				c += countNonzero(o)
			}
			return c
		})
	}
	out.setNNZ(nnz)
	return out
}

// mulOuter writes the rank-one product x·yᵀ (one pass, nothing read back)
// and returns its nonzero count. Rows of a zero x[i] are skipped, which in a
// dirty o means zero-filled.
func mulOuter(o, x, y []float64, dirty bool) int {
	p, nnz := len(y), 0
	for i, xv := range x {
		if xv == 0 {
			if dirty {
				clear(o[i*p : (i+1)*p])
			}
			continue
		}
		orow := o[i*p : (i+1)*p]
		for j, yv := range y {
			v := 0 + float64(xv*yv) // a −0 product lands as +0, as it would accumulating
			orow[j] = v
			if v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

// mulMatVec computes o = a·x for len(o) rows of a. Each cell is the
// reference's one chain: from +0, for k ascending, add a[i,k]·x[k] unless
// a[i,k] == 0. The zero skip matters only against a non-finite x[k]: against
// a finite one the step it skips adds a ±0 product, and ±0 added to a sum
// that started at +0 — which no addition turns into −0 — leaves the sum's
// bits as they were.
//
// vector (vectorLoops, but for the test that holds the two paths equal):
// mulMatVecAVX2 runs the rows in groups of eight, one row to a lane, and the
// Go loop runs the last len(o)%8. The vector loop skips a step by masking its
// product to +0, which by the same argument serves finite and non-finite x
// alike. The Go loop runs four rows at a time, so four chains are in flight,
// and drops the test when x is finite.
func mulMatVec(o, a, x []float64, vector bool) int {
	k := len(x)
	i := 0
	if vector {
		i = len(o) &^ 7
		mulMatVecAVX2(o[:i], a[:i*k], x)
	}
	if i == len(o) {
		return countNonzero(o)
	}
	_, _, finite := nonzeroStats(x)
	for ; i+4 <= len(o); i += 4 {
		r0 := a[i*k:][:k]
		r1 := a[(i+1)*k:][:k]
		r2 := a[(i+2)*k:][:k]
		r3 := a[(i+3)*k:][:k]
		var s0, s1, s2, s3 float64
		if finite {
			for kk, xv := range x {
				s0 += float64(r0[kk] * xv)
				s1 += float64(r1[kk] * xv)
				s2 += float64(r2[kk] * xv)
				s3 += float64(r3[kk] * xv)
			}
		} else {
			for kk, xv := range x {
				if av := r0[kk]; av != 0 {
					s0 += float64(av * xv)
				}
				if av := r1[kk]; av != 0 {
					s1 += float64(av * xv)
				}
				if av := r2[kk]; av != 0 {
					s2 += float64(av * xv)
				}
				if av := r3[kk]; av != 0 {
					s3 += float64(av * xv)
				}
			}
		}
		o[i], o[i+1], o[i+2], o[i+3] = s0, s1, s2, s3
	}
	for ; i < len(o); i++ {
		var s float64
		for kk, av := range a[i*k : (i+1)*k] {
			if av != 0 {
				s += float64(av * x[kk])
			}
		}
		o[i] = s
	}
	return countNonzero(o)
}

// kBlock is the most k one index list covers (1 KiB of int32) and the depth
// of the few-row path's k-blocks. Such a block of b spans the chunk's
// columns, 2 KiB a column: 94 KiB over the 47 of a 10×4000·4000×47 on one
// processor, 1.7 MiB over a vector·matrix stripe of 870. That is L2 (2 MiB
// a core on the Xeon measured), not L1. The depth was picked by measurement:
// 64 to 1024 ran BenchmarkMulDenseDense's skinny shapes within run-to-run
// spread, and 256 keeps the index list at 1 KiB.
const kBlock = 256

// tileCells bounds the few-row path's private accumulator: 16 KiB of stack,
// a third of that core's L1d, and a chunk of tileCells/n ≥ 32 columns.
const tileCells = 2048

// nonzeroK lists the positions of a's nonzero entries (len(a) ≤ kBlock) in
// idx. The count moves by a flag, not a branch: rows about half zero would
// mispredict every other k. ±0 are the cells whose bits, less the sign, are
// all zero.
func nonzeroK(idx *[kBlock]int32, a []float64) []int32 {
	m := 0
	for k, av := range a {
		idx[m&(kBlock-1)] = int32(k)
		one := 0
		if math.Float64bits(av)<<1 != 0 {
			one = 1
		}
		m += one
	}
	return idx[:m]
}

// mulRow accumulates one block of k into an output row (or a column range
// of it): o[j] += a[k]·b[k*stride+j] for the k in nz, ascending. They run
// four at a time, adjacent or not, sharing one load and store of o[j]; the
// last one to three run alone. Each cell's sequence of additions is the
// reference's, which skips exactly the k that nz leaves out.
//
// vector (vectorLoops, but for the test that holds the two paths equal): the
// groups of four run over the longest prefix of o whose length is a multiple
// of 4 in mulRowAVX2, lane by lane through the same statements (the cells of
// a row do not depend on one another), and in the Go loop over the rest. No
// width needs the Go loop alone: mulRowAVX2 runs every group of the block in
// one call, and BenchmarkMulDenseDense's narrowest rows — 5 and 10 columns:
// WtW at -cpu 2 and 1, tall, VHt — ran 1.1–2.0× faster with it than without
// (median of 12 alternating pairs at each of -cpu 1 and 2, 2-core Xeon).
func mulRow(o, a []float64, nz []int32, b []float64, stride int, vector bool) {
	j0 := 0
	if n4 := len(nz) &^ 3; vector && n4 > 0 && len(o) >= 4 {
		j0 = len(o) &^ 3
		last := int(nz[n4-1]) // nz ascends: the last k bounds what is read
		mulRowAVX2(o[:j0], a[:last+1], nz[:n4], b[:last*stride+j0], stride)
		if j0 == len(o) {
			nz = nz[n4:]
		}
	}
	r := o[j0:] // the cells the Go loop accumulates
	for ; len(nz) >= 4; nz = nz[4:] {
		k0, k1, k2, k3 := int(nz[0]), int(nz[1]), int(nz[2]), int(nz[3])
		a0, a1, a2, a3 := a[k0], a[k1], a[k2], a[k3]
		b0 := b[k0*stride+j0:][:len(r)]
		b1 := b[k1*stride+j0:][:len(r)]
		b2 := b[k2*stride+j0:][:len(r)]
		b3 := b[k3*stride+j0:][:len(r)]
		for j := range r {
			v := r[j]
			v += float64(a0 * b0[j])
			v += float64(a1 * b1[j])
			v += float64(a2 * b2[j])
			v += float64(a3 * b3[j])
			r[j] = v
		}
	}
	for _, kk := range nz {
		av, brow := a[kk], b[int(kk)*stride:][:len(o)]
		for j := range o {
			o[j] += float64(av * brow[j])
		}
	}
}

// mulRowPair is mulRow for two rows of an operand with no zero, over every
// k in order: the rows share each load of b. vector as for mulRow, with
// mulRowPairAVX2.
func mulRowPair(o0, o1, a0, a1, b []float64, stride int, vector bool) {
	o1, a1 = o1[:len(o0)], a1[:len(a0)]
	j0, kk := 0, 0
	if k4 := len(a0) &^ 3; vector && k4 > 0 && len(o0) >= 4 {
		j0 = len(o0) &^ 3
		mulRowPairAVX2(o0[:j0], o1[:j0], a0[:k4], a1[:k4], b[:(k4-1)*stride+j0], stride)
		if j0 == len(o0) {
			kk = k4
		}
	}
	r0, r1 := o0[j0:], o1[j0:] // the cells the Go loop accumulates
	for ; kk+4 <= len(a0); kk += 4 {
		x0, x1, x2, x3 := a0[kk], a0[kk+1], a0[kk+2], a0[kk+3]
		y0, y1, y2, y3 := a1[kk], a1[kk+1], a1[kk+2], a1[kk+3]
		b0 := b[kk*stride+j0:][:len(r0)]
		b1 := b[(kk+1)*stride+j0:][:len(r0)]
		b2 := b[(kk+2)*stride+j0:][:len(r0)]
		b3 := b[(kk+3)*stride+j0:][:len(r0)]
		for j := range r0 {
			c0, c1, c2, c3 := b0[j], b1[j], b2[j], b3[j]
			v, u := r0[j], r1[j]
			v += float64(x0 * c0)
			u += float64(y0 * c0)
			v += float64(x1 * c1)
			u += float64(y1 * c1)
			v += float64(x2 * c2)
			u += float64(y2 * c2)
			v += float64(x3 * c3)
			u += float64(y3 * c3)
			r0[j], r1[j] = v, u
		}
	}
	for ; kk < len(a0); kk++ {
		x, y, brow := a0[kk], a1[kk], b[kk*stride:][:len(o0)]
		for j, c := range brow {
			o0[j] += float64(x * c)
			o1[j] += float64(y * c)
		}
	}
}

func mulCSRDense(dst []float64, a, b *Matrix) *Matrix {
	out, dirty := denseOver(dst, a.rows, b.cols)
	p := b.cols
	// A row costs p per stored entry, and p to clear and count.
	work := func(i int) int { return (a.rowPtr[i] + i) * p }
	if p == 1 {
		// One column: each row is one chain held in a register and written
		// once, dirty destination or not — the cell the loop below builds.
		x := b.data
		out.setNNZ(Stripes(a.rows, work, func(lo, hi int) int {
			nnz := 0
			for i := lo; i < hi; i++ {
				var s float64
				for q := a.rowPtr[i]; q < a.rowPtr[i+1]; q++ {
					s += float64(a.vals[q] * x[a.colIdx[q]])
				}
				out.data[i] = s
				if s != 0 {
					nnz++
				}
			}
			return nnz
		}))
		return out
	}
	out.setNNZ(Stripes(a.rows, work, func(lo, hi int) int {
		nnz := 0
		for i := lo; i < hi; i++ {
			orow := out.data[i*p : (i+1)*p]
			if dirty {
				clear(orow)
			}
			if a.rowPtr[i] == a.rowPtr[i+1] {
				continue
			}
			for q := a.rowPtr[i]; q < a.rowPtr[i+1]; q++ {
				av := a.vals[q]
				brow := b.data[a.colIdx[q]*p : (a.colIdx[q]+1)*p]
				for j := 0; j < p; j++ {
					orow[j] += float64(av * brow[j])
				}
			}
			nnz += countNonzero(orow)
		}
		return nnz
	}))
	return out
}

func mulDenseCSR(dst []float64, a, b *Matrix) *Matrix {
	out, dirty := denseOver(dst, a.rows, b.cols)
	k, p := a.cols, b.cols
	// A row costs at most every stored entry of b, and p to clear and count.
	out.setNNZ(Stripes(a.rows, func(i int) int { return i * (p + len(b.vals)) }, func(lo, hi int) int {
		nnz := 0
		for i := lo; i < hi; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := out.data[i*p : (i+1)*p]
			if dirty {
				clear(orow)
			}
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				for q := b.rowPtr[kk]; q < b.rowPtr[kk+1]; q++ {
					orow[b.colIdx[q]] += float64(av * b.vals[q])
				}
			}
			nnz += countNonzero(orow)
		}
		return nnz
	}))
	return out
}

func mulCSRCSR(a, b *Matrix) *Matrix {
	// Gustavson's algorithm with a dense accumulator per output row,
	// parallel over row stripes.
	p := b.cols
	type rowResult struct {
		cols []int
		vals []float64
	}
	results := make([]rowResult, a.rows)
	total := Stripes(a.rows, func(i int) int { return a.rowPtr[i] + i }, func(lo, hi int) int {
		acc := make([]float64, p)
		stored := 0
		marked := make([]int, 0, 64)
		for i := lo; i < hi; i++ {
			marked = marked[:0]
			for q := a.rowPtr[i]; q < a.rowPtr[i+1]; q++ {
				av := a.vals[q]
				kk := a.colIdx[q]
				for r := b.rowPtr[kk]; r < b.rowPtr[kk+1]; r++ {
					j := b.colIdx[r]
					if acc[j] == 0 {
						marked = append(marked, j)
					}
					acc[j] += float64(av * b.vals[r])
				}
			}
			if len(marked) == 0 {
				continue
			}
			// Collect in column order by scanning: marked may be unsorted,
			// so sort small sets insertion-style.
			insertionSortInts(marked)
			cols := make([]int, 0, len(marked))
			vals := make([]float64, 0, len(marked))
			for _, j := range marked {
				if acc[j] != 0 {
					cols = append(cols, j)
					vals = append(vals, acc[j])
				}
				acc[j] = 0
			}
			results[i] = rowResult{cols, vals}
			stored += len(vals)
		}
		return stored
	})
	rowPtr := make([]int, a.rows+1)
	colIdx := make([]int, 0, total)
	vals := make([]float64, 0, total)
	for i, r := range results {
		colIdx = append(colIdx, r.cols...)
		vals = append(vals, r.vals...)
		rowPtr[i+1] = len(vals)
	}
	return NewCSR(a.rows, b.cols, rowPtr, colIdx, vals)
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
