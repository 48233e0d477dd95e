package matrix

import (
	"math"
	"sync"
)

// This file is the deferred form of the tail every quasi-Newton iteration
// ends in, H ± (u·vᵀ)·c ± …: an Expr records a rank-one product and the
// scale, +, − and transpose operators applied on top of it, and Eval produces
// the cells in one pass over the rows, a chunk of columns at a time, so that
// only the leaves are read and only the result is written — none of the n×n
// values between them exists.
//
// The operators stay the single implementation of their arithmetic: per node
// the evaluator applies the scalar statement the eager kernel applies to a
// cell (0 + x[i]·y[j] with the rows of a zero x[i] written as +0, v·s, a+b,
// a−b), in the order the operators were called, so every cell goes through
// the same roundings. A statement is not always a pass: a + or − applies the
// scales directly under it, and a product under those, to each cell as it reads
// the operand (operand), and the ± shapes the update tails end in run loops
// written for them, chosen when the expression is compiled (kernels). What
// the eager operators do besides arithmetic is pick a format: a product, a
// sum or a difference at or under DenseThreshold leaves as CSR, and CSR
// operands take other kernels, whose results differ from the dense ones in
// the sign of zero cells. Eval therefore counts the nonzeros of every such
// node and, if one of them would have compacted, discards what it wrote and
// runs the operators themselves (eager). Nothing is ever written over a
// leaf, so the leaves are intact for that second run.

type exprOp uint8

const (
	exLeaf exprOp = iota
	exOuter
	exOuterT // compiled form only: a transposed exOuter
	exTranspose
	exScale
	exAdd
	exSub
)

// maxExprNodes bounds the operator applications of one expression (a shared
// subexpression counts once per use, as it is evaluated). The update tails
// hold 6 (DFP) and 9 (BFGS); beyond the bound the constructors decline and
// the caller materialises.
const maxExprNodes = 64

// exprChunk is the most columns of a row a node is evaluated over at a time:
// a few nodes' worth of scratch at that width stays in L1/L2.
const exprChunk = 1024

// Expr is an immutable deferred matrix expression. Leaves are dense matrices
// and rank-one products of two dense vectors; interior nodes are transpose,
// scale, + and −.
type Expr struct {
	op         exprOp
	rows, cols int
	m, y       *Matrix // exLeaf: m; exOuter: the column vector m times the row vector y
	s          float64 // exScale
	a, b       *Expr
	nodes      int
	leafy      bool // a matrix leaf below: no transpose can be pushed through
}

// Rows returns the number of rows of the value e stands for.
func (e *Expr) Rows() int { return e.rows }

// Cols returns the number of columns of the value e stands for.
func (e *Expr) Cols() int { return e.cols }

// Outer returns the deferred product x·y of a dense column vector and a dense
// row vector of more than one column — what Mul computes with mulOuter — and
// nil for any other operands.
func Outer(x, y *Matrix) *Expr {
	if x.format != Dense || y.format != Dense || x.cols != 1 || y.rows != 1 || y.cols == 1 {
		return nil
	}
	return &Expr{op: exOuter, rows: x.rows, cols: y.cols, m: x, y: y, nodes: 1}
}

// Leaf returns m as an operand of Add and Sub, nil unless m is dense. A leaf
// is not a value of its own: Eval needs a product somewhere.
func Leaf(m *Matrix) *Expr {
	if m.format != Dense {
		return nil
	}
	return &Expr{op: exLeaf, rows: m.rows, cols: m.cols, m: m, nodes: 1, leafy: true}
}

// Scale returns s·e, or nil for a factor the dense and CSR kernels disagree
// about (0 empties the result; 0·±Inf and 0·NaN are NaN in a dense cell and
// nothing in a CSR one).
func (e *Expr) Scale(s float64) *Expr {
	if s == 0 || math.IsInf(s, 0) || math.IsNaN(s) || e.nodes >= maxExprNodes {
		return nil
	}
	return &Expr{op: exScale, rows: e.rows, cols: e.cols, s: s, a: e, nodes: e.nodes + 1, leafy: e.leafy}
}

// Transpose returns eᵀ, or nil when e reads a matrix leaf: a transpose is
// evaluated by swapping the roles of a product's two vectors, and a matrix
// read by columns would be a strided pass.
func (e *Expr) Transpose() *Expr {
	if e.leafy || e.nodes >= maxExprNodes {
		return nil
	}
	return &Expr{op: exTranspose, rows: e.cols, cols: e.rows, a: e, nodes: e.nodes + 1}
}

// Add returns e + o, nil when either is nil, the shapes differ (the eager
// operator reports that) or the expression would grow past maxExprNodes.
func (e *Expr) Add(o *Expr) *Expr { return e.zip(exAdd, o) }

// Sub returns e − o under the conditions of Add.
func (e *Expr) Sub(o *Expr) *Expr { return e.zip(exSub, o) }

func (e *Expr) zip(op exprOp, o *Expr) *Expr {
	if e == nil || o == nil || e.rows != o.rows || e.cols != o.cols || e.nodes+o.nodes >= maxExprNodes {
		return nil
	}
	return &Expr{op: op, rows: e.rows, cols: e.cols, a: e, b: o, nodes: e.nodes + o.nodes + 1, leafy: e.leafy || o.leafy}
}

// Leaves calls visit on every matrix e reads: its matrix leaves and the two
// vectors of each product (a shared one once per use).
func (e *Expr) Leaves(visit func(*Matrix)) {
	switch e.op {
	case exLeaf:
		visit(e.m)
	case exOuter:
		visit(e.m)
		visit(e.y)
	default:
		e.a.Leaves(visit)
		if e.b != nil {
			e.b.Leaves(visit)
		}
	}
}

// eager computes e with the operators it defers, one materialised value per
// node, the last of them into dst: the reference the striped evaluation
// equals bit for bit, and what Eval falls back on when a node compacts.
func (e *Expr) eager(dst []float64) *Matrix {
	switch e.op {
	case exLeaf:
		return e.m
	case exOuter:
		return e.m.MulInto(dst, e.y)
	case exTranspose:
		return e.a.eager(nil).TransposeInto(dst)
	case exScale:
		return e.a.eager(nil).ScaleInto(dst, e.s)
	case exAdd:
		return e.a.eager(nil).AddInto(dst, e.b.eager(nil))
	default:
		return e.a.eager(nil).SubInto(dst, e.b.eager(nil))
	}
}

// Eval materialises e into a destination (see denseOver), which must not be
// the buffer of a leaf. The result is the one the eager operators arrive at:
// cells, format and nonzero count; a CSR result leaves dst behind as scratch
// (Buffer tells).
func (e *Expr) Eval(dst []float64) *Matrix {
	if e.op == exLeaf {
		panic("matrix: Eval of a bare leaf")
	}
	p := &program{rows: e.rows, cols: e.cols}
	p.root, p.depth = p.compile(e, false)
	if !p.root.check {
		p.root.count = true // no format rides on it, but the result carries its count
	}

	cells := float64(e.rows) * float64(e.cols)
	compacts := func(n *evalNode) bool { return n.check && !(float64(n.nnz)/cells > DenseThreshold) }
	for _, n := range p.nodes {
		if !n.count && compacts(n) { // known from the vectors: no need to evaluate first
			return e.eager(dst)
		}
	}
	out, _ := denseOver(dst, e.rows, e.cols)
	counts := p.run(out.data)
	for _, n := range p.nodes {
		if n.count {
			n.nnz = counts[n.id]
		}
		if compacts(n) {
			return e.eager(dst)
		}
	}
	out.setNNZ(p.root.nnz)
	return out
}

// program is an expression compiled for evaluation: transposes pushed down
// to the products, every node numbered.
type program struct {
	rows, cols int
	root       *evalNode
	nodes      []*evalNode
	// depth is how many chunk-wide scratch rows evaluation needs: a binary
	// node builds its left operand where its own result goes and its right
	// operand one scratch row further down.
	depth int
}

type evalNode struct {
	op    exprOp
	cells []float64 // exLeaf
	x, y  []float64 // exOuter, exOuterT
	s     float64   // exScale
	a     *evalNode // exScale
	l, r  operand   // exAdd, exSub
	// zip or fused: the loop written for the ± (kernels); neither: zipSides.
	zip   func(out []float64, a, b side) int
	fused fusedKernel
	id    int
	// check: the eager operator ends in Compact, so the node's nonzero count
	// nnz decides a format. count: nnz is summed while evaluating; otherwise
	// it is known beforehand (or, for a node that is neither checked nor the
	// root, not needed).
	check, count bool
	nnz          int
}

// operand is one side of a + or −: the cells of n times up to two scale
// factors that stood between n and the ±. The ± applies them to each cell as
// it reads it — v·s₁, then ·s₂: the statements of the scale passes, in their
// order — so those scales are neither passes nor nodes. term: n is a product
// whose nonzero count is known from its vectors; nothing about it is left to
// count, so it is no pass either: the ± computes 0 + x[i]·y[j] where it would
// have read the cell.
type operand struct {
	n      *evalNode
	s1, s2 float64 // 1 where there was no scale: v·1 is v, bit for bit, for every v
	term   bool
}

func (p *program) compile(e *Expr, transposed bool) (n *evalNode, depth int) {
	if e.op == exTranspose {
		return p.compile(e.a, !transposed)
	}
	n = &evalNode{op: e.op, id: len(p.nodes)}
	p.nodes = append(p.nodes, n)
	switch e.op {
	case exLeaf:
		n.cells = e.m.data // never transposed: Transpose declines over a leaf
	case exOuter:
		n.x, n.y = e.m.data, e.y.data
		if transposed {
			n.op = exOuterT
		}
		n.check = true
		var known bool
		n.nnz, known = outerNNZ(n.x, n.y)
		n.count = !known
	case exScale:
		n.s = e.s
		n.a, depth = p.compile(e.a, transposed)
	default:
		var left, right int
		n.l, left = p.operand(e.a, transposed)
		n.r, right = p.operand(e.b, transposed)
		// The left operand is built where the result goes and the right one a
		// scratch row further down; a term is built nowhere, and next to one
		// the other operand has the result's row to itself.
		switch {
		case n.l.term:
			depth = right
		case n.r.term:
			depth = left
		default:
			depth = max(left, right+1)
		}
		n.check, n.count = true, true
		n.zip, n.fused = kernels(n)
	}
	return n, depth
}

// operand compiles e as one side of a ±. Scales beyond the two outermost stay
// nodes, under n.
func (p *program) operand(e *Expr, transposed bool) (o operand, depth int) {
	o.s1, o.s2 = 1, 1
	for scales := 0; (e.op == exScale && scales < 2) || e.op == exTranspose; e = e.a {
		if e.op == exTranspose {
			transposed = !transposed
			continue
		}
		o.s1, o.s2 = e.s, o.s1 // met outermost first
		scales++
	}
	o.n, depth = p.compile(e, transposed)
	o.term = (o.n.op == exOuter || o.n.op == exOuterT) && !o.n.count
	return o, depth
}

// outerNNZ returns the nonzero count of x·yᵀ without forming it, when it can
// be told from the vectors: nnz(x)·nnz(y), provided every entry is finite
// (else a 0·Inf cell is a nonzero NaN) and the smallest product does not
// underflow (rounding is monotonic, so then no product does).
func outerNNZ(x, y []float64) (nnz int, ok bool) {
	nx, minX, ok := nonzeroStats(x)
	if !ok {
		return 0, false
	}
	ny, minY, ok := nonzeroStats(y)
	if !ok {
		return 0, false
	}
	if nx == 0 || ny == 0 {
		return 0, true
	}
	return nx * ny, minX*minY != 0
}

// nonzeroStats returns the number and the least magnitude of v's nonzero
// entries, or !finite if one is NaN or ±Inf.
func nonzeroStats(v []float64) (nnz int, least float64, finite bool) {
	least = math.MaxFloat64
	for _, c := range v {
		a := math.Abs(c)
		if !(a <= math.MaxFloat64) {
			return 0, 0, false
		}
		if a != 0 {
			nnz++
			least = min(least, a)
		}
	}
	return nnz, least, true
}

// run evaluates the program into od, striped over rows, and returns the
// nonzero count of every counted node.
func (p *program) run(od []float64) []int {
	rows, cols := p.rows, p.cols
	chunks := (cols + exprChunk - 1) / exprChunk
	width := (cols + chunks - 1) / chunks
	total := make([]int, len(p.nodes))
	var mu sync.Mutex
	Stripes(rows, func(i int) int { return i * cols }, func(lo, hi int) int {
		counts := make([]int, len(p.nodes))
		scratch := make([]float64, p.depth*width)
		for i := lo; i < hi; i++ {
			for c0 := 0; c0 < cols; c0 += width {
				out := od[i*cols+c0 : i*cols+min(c0+width, cols)]
				p.root.eval(i, c0, cols, out, scratch, counts)
			}
		}
		mu.Lock()
		for id, c := range counts {
			total[id] += c
		}
		mu.Unlock()
		return 0
	})
	return total
}

// eval computes cells (i, c0) … (i, c0+len(out)−1) of n and returns them: in
// out, or where they already are for a leaf. scratch is free for operands.
func (n *evalNode) eval(i, c0, cols int, out, scratch []float64, counts []int) []float64 {
	w := len(out)
	switch n.op {
	case exLeaf:
		return n.cells[i*cols+c0:][:w]
	case exOuter: // mulOuter's statement; a zero x[i] skips the row
		if xv := n.x[i]; xv == 0 {
			clear(out)
		} else {
			for j, yv := range n.y[c0:][:w] {
				out[j] = 0 + xv*yv
			}
		}
	case exOuterT: // the same cells read by columns: (i, j) is x[j]·y[i]
		yv := n.y[i]
		for j, xv := range n.x[c0:][:w] {
			if xv == 0 {
				out[j] = 0
			} else {
				out[j] = 0 + xv*yv
			}
		}
	case exScale:
		s := n.s
		for j, v := range n.a.eval(i, c0, cols, out, scratch, counts)[:w] {
			out[j] = v * s
		}
	default: // zipDense's statements, counting included: a sum always decides a format
		l := &n.l
		if n.fused != nil { // the left ± is not built, its right operand is: where it would have gone
			l = &n.l.n.r
		}
		a := l.side(i, c0, cols, out, scratch, counts)
		var b side
		if n.l.term || n.r.term { // a term takes no room: out is still free, or not asked for
			b = n.r.side(i, c0, cols, out, scratch, counts)
		} else {
			b = n.r.side(i, c0, cols, scratch[:w], scratch[w:], counts)
		}
		switch m := n.l.n; {
		case n.fused != nil:
			inner, nnz := n.fused(out, m.l.n.cells[i*cols+c0:][:w], a, b)
			counts[m.id] += inner
			counts[n.id] += nnz
		case n.zip != nil:
			counts[n.id] += n.zip(out, a, b)
		default:
			counts[n.id] += zipSides(n.op == exSub, out, a, b)
		}
		return out
	}
	if n.count {
		counts[n.id] += countNonzero(out)
	}
	return out
}

// side is an operand on one row: cell j is v[j]·s1·s2 or, for a term, v the
// vector that runs along the row and c the other vector's entry for the row,
// (0 + c·v[j])·s1·s2 (cell).
type side struct {
	v      []float64
	c      float64
	term   bool
	s1, s2 float64
}

// side evaluates the operand for cells (i, c0) … (i, c0+len(out)−1), into out
// unless it is a term, which needs no room.
func (o *operand) side(i, c0, cols int, out, scratch []float64, counts []int) side {
	switch {
	case !o.term:
		return side{v: o.n.eval(i, c0, cols, out, scratch, counts), s1: o.s1, s2: o.s2}
	case o.n.op == exOuter:
		return side{v: o.n.y[c0:], c: o.n.x[i], term: true, s1: o.s1, s2: o.s2}
	default:
		return side{v: o.n.x[c0:], c: o.n.y[i], term: true, s1: o.s1, s2: o.s2}
	}
}

// cell is cell j of an operand on one row (side, unpacked: the loops keep
// arguments in registers, fields they reload). A term's vectors are finite —
// its count was known — so the row or column of a zero entry is no case of its
// own: 0 + 0·y is the +0 mulOuter writes there, and x·y is y·x. The
// conversions keep a compiler that fuses multiply-adds from skipping a
// rounding the passes made. Small enough to be inlined.
func cell(v []float64, j int, term bool, c, s1, s2 float64) float64 {
	x := v[j]
	if term {
		x = 0 + c*x
	}
	return float64(float64(x*s1) * s2)
}

// zipSides writes a ± b over out, which may be where either operand's cells
// are, and returns the nonzero count: the loop of every ± shape that has none
// of its own (kernels).
func zipSides(sub bool, out []float64, a, b side) (nnz int) {
	av, bv := a.v[:len(out)], b.v[:len(out)]
	aTerm, aC, aS1, aS2 := a.term, a.c, a.s1, a.s2
	bTerm, bC, bS1, bS2 := b.term, b.c, b.s1, b.s2
	if sub {
		for j := range out {
			v := cell(av, j, aTerm, aC, aS1, aS2) - cell(bv, j, bTerm, bC, bS1, bS2)
			out[j] = v
			if v != 0 {
				nnz++
			}
		}
		return nnz
	}
	for j := range out {
		v := cell(av, j, aTerm, aC, aS1, aS2) + cell(bv, j, bTerm, bC, bS1, bS2)
		out[j] = v
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// class is what a ± takes from an operand for a cell: its cells, or a term's
// 0 + c·v[j], under no, one or two scales (a factor of 1 is no scale).
type class uint8

const (
	cells0 class = iota
	cells1
	cells2
	term0
	term1
	term2
)

func (o *operand) class() class {
	c := cells0
	if o.term {
		c = term0
	}
	switch {
	case o.s2 != 1:
		return c + 2
	case o.s1 != 1:
		return c + 1
	}
	return c
}

// fusedKernel applies a ± whose left operand is a plain ± over a leaf, (h ± x)
// ± y, to a row's cells at once: h holds the leaf's, out may hold x's. It
// writes the outer ± over out and returns the inner one's nonzero count and
// its own — each decides a format.
type fusedKernel func(out, h []float64, x, y side) (inner, nnz int)

// kernels returns the loops written for the ± shapes the update tails end in —
// DFP's (H − t·c) + t′·c′ and BFGS's (H + t·c·c′) − (S + Sᵀ)·c″, one fused
// loop each, and the S + Sᵀ (S + S′ where nothing was shared) under the
// latter — or neither, for zipSides. They run its statements in its order,
// rounding points included, without the branches on operand classes and the
// multiplications by 1 that cost it as much as the arithmetic.
func kernels(n *evalNode) (zip func(out []float64, a, b side) int, fused fusedKernel) {
	l, r := n.l.class(), n.r.class()
	if m := n.l.n; l == cells0 && (m.op == exAdd || m.op == exSub) && m.l.class() == cells0 && m.l.n.op == exLeaf {
		switch x := m.r.class(); {
		case m.op == exSub && x == term1 && n.op == exAdd && r == term1:
			return nil, dfpTail
		case m.op == exAdd && x == term2 && n.op == exSub && r == cells1:
			return nil, bfgsTail
		}
	}
	if n.op == exAdd && l == term0 && r == term0 {
		return addTerms, nil
	}
	return nil, nil
}

// addTerms is a + b for two terms under no scale. Its cells, like those of
// the two tails below, do not depend on one another: where the AVX2 loops run
// (vectorLoops) they take the longest prefix of a multiple of 4 cells, lane by
// lane through the same statements, and the Go loop takes the rest.
func addTerms(out []float64, a, b side) (nnz int) {
	av, bv, ac, bc := a.v[:len(out)], b.v[:len(out)], a.c, b.c
	j := 0
	if vectorLoops {
		j = len(out) &^ 3
		nnz = addTermsAVX2(out[:j], av[:j], bv[:j], ac, bc)
	}
	return nnz + addTermsGo(out[j:], av[j:], bv[j:], ac, bc)
}

func addTermsGo(out, av, bv []float64, ac, bc float64) (nnz int) {
	av, bv = av[:len(out)], bv[:len(out)]
	for j := range out {
		v := (0 + ac*av[j]) + (0 + bc*bv[j])
		out[j] = v
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// dfpTail is (h − x·c) + y·c′ for two terms x and y.
func dfpTail(out, h []float64, x, y side) (inner, nnz int) {
	h, xv, yv := h[:len(out)], x.v[:len(out)], y.v[:len(out)]
	xc, xs, yc, ys := x.c, x.s1, y.c, y.s1
	j := 0
	if vectorLoops {
		j = len(out) &^ 3
		inner, nnz = dfpTailAVX2(out[:j], h[:j], xv[:j], yv[:j], xc, xs, yc, ys)
	}
	i, n := dfpTailGo(out[j:], h[j:], xv[j:], yv[j:], xc, xs, yc, ys)
	return inner + i, nnz + n
}

func dfpTailGo(out, h, xv, yv []float64, xc, xs, yc, ys float64) (inner, nnz int) {
	h, xv, yv = h[:len(out)], xv[:len(out)], yv[:len(out)]
	for j := range out {
		v := h[j] - float64((0+xc*xv[j])*xs)
		w := v + float64((0+yc*yv[j])*ys)
		out[j] = w
		if v != 0 {
			inner++
		}
		if w != 0 {
			nnz++
		}
	}
	return inner, nnz
}

// bfgsTail is (h + x·c·c′) − y·c″ for a term x and the cells y.
func bfgsTail(out, h []float64, x, y side) (inner, nnz int) {
	h, xv, yv := h[:len(out)], x.v[:len(out)], y.v[:len(out)]
	xc, xs1, xs2, ys := x.c, x.s1, x.s2, y.s1
	j := 0
	if vectorLoops {
		j = len(out) &^ 3
		inner, nnz = bfgsTailAVX2(out[:j], h[:j], xv[:j], yv[:j], xc, xs1, xs2, ys)
	}
	i, n := bfgsTailGo(out[j:], h[j:], xv[j:], yv[j:], xc, xs1, xs2, ys)
	return inner + i, nnz + n
}

func bfgsTailGo(out, h, xv, yv []float64, xc, xs1, xs2, ys float64) (inner, nnz int) {
	h, xv, yv = h[:len(out)], xv[:len(out)], yv[:len(out)]
	for j := range out {
		v := h[j] + float64(float64((0+xc*xv[j])*xs1)*xs2)
		w := v - float64(yv[j]*ys)
		out[j] = w
		if v != 0 {
			inner++
		}
		if w != 0 {
			nnz++
		}
	}
	return inner, nnz
}
