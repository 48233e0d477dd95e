package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// "Bit-identical by construction", made executable: random expressions over
// {leaf, x·yᵀ, transpose, scale, +, −} are evaluated by Eval and, node by
// node, by the eager operators the expression defers; cells (by bits),
// format and nonzero count must agree.

// deferredFactors are scale factors Scale accepts, the extremes included.
var deferredFactors = []float64{2, -1, -0.5, 1e-300, -1e300, math.SmallestNonzeroFloat64, 1e-160, -3}

// exprGen builds an expression and, in step, the value the eager operators
// give for it.
type exprGen struct {
	rng  *rand.Rand
	kind int // fill kind of the leaves and vectors
	// sparseX: the column vector of every product keeps this share of zeros,
	// so that products at or under DenseThreshold occur.
	sparseX float64
	// nonFinite: some products get an infinite vector entry, so their count
	// cannot be told from the vectors.
	nonFinite bool
	// csr: some node's eager value was CSR, so Eval takes the eager path too
	// and a dense result may come from a CSR kernel, in a buffer of its own.
	csr bool
}

// saw notes the format of one node's eager value and returns the value.
func (g *exprGen) saw(v *Matrix) *Matrix {
	g.csr = g.csr || v.Format() == CSR
	return v
}

func (g *exprGen) vector(n int, zeros float64) []float64 {
	v := genDense(g.rng, 1, n, g.kind).data
	for i := range v {
		if g.rng.Float64() < zeros {
			v[i] = specials[g.rng.Intn(2)] // ±0
		}
	}
	return v
}

func (g *exprGen) outer(rows, cols int) (*Expr, *Matrix) {
	x := NewDenseData(rows, 1, g.vector(rows, g.sparseX))
	y := NewDenseData(1, cols, g.vector(cols, 0.1))
	if g.nonFinite && g.rng.Intn(3) == 0 {
		y.data[g.rng.Intn(cols)] = math.Inf(1 - 2*g.rng.Intn(2))
	}
	return Outer(x, y), g.saw(x.Mul(y))
}

// gen returns a rows×cols expression of the given depth; leafless ones can
// be transposed.
func (g *exprGen) gen(rows, cols, depth int, leafless bool) (*Expr, *Matrix) {
	if depth == 0 {
		return g.outer(rows, cols)
	}
	switch op := g.rng.Intn(6); {
	case op == 0:
		e, v := g.gen(rows, cols, depth-1, leafless)
		s := deferredFactors[g.rng.Intn(len(deferredFactors))]
		return e.Scale(s), g.saw(v.Scale(s))
	case op == 1 && rows > 1: // a one-column product is a matrix·vector, not deferred
		e, v := g.gen(cols, rows, depth-1, true)
		return e.Transpose(), g.saw(v.Transpose())
	case op == 2 && !leafless:
		// A matrix leaf on either side of ±.
		e, v := g.gen(rows, cols, depth-1, false)
		m := genDense(g.rng, rows, cols, g.kind)
		switch g.rng.Intn(4) {
		case 0:
			return e.Add(Leaf(m)), g.saw(v.Add(m))
		case 1:
			return Leaf(m).Add(e), g.saw(m.Add(v))
		case 2:
			return e.Sub(Leaf(m)), g.saw(v.Sub(m))
		default:
			return Leaf(m).Sub(e), g.saw(m.Sub(v))
		}
	case op == 3:
		// One subtree used twice, once transposed when it can be: BFGS's
		// H·y·sᵀ + (H·y·sᵀ)ᵀ.
		if rows == cols {
			e, v := g.gen(rows, cols, depth-1, true)
			return e.Add(e.Transpose()), g.saw(v.Add(g.saw(v.Transpose())))
		}
		e, v := g.gen(rows, cols, depth-1, leafless)
		return e.Add(e.Scale(-3)), g.saw(v.Add(g.saw(v.Scale(-3))))
	default:
		a, av := g.gen(rows, cols, depth-1, leafless)
		b, bv := g.gen(rows, cols, g.rng.Intn(depth), leafless)
		if op == 4 {
			return a.Add(b), g.saw(av.Add(bv))
		}
		return a.Sub(b), g.saw(av.Sub(bv))
	}
}

// requireSameAsEager fails unless got is, bit for bit, the value the eager
// operators produced; a dense result must stand on the destination it was
// given (dst nil: unless a CSR kernel produced it).
func requireSameAsEager(t *testing.T, ctx string, got, want *Matrix, dst []float64) {
	t.Helper()
	if got.Format() != want.Format() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %v nnz %d, want %v nnz %d", ctx, got.Format(), got.NNZ(), want.Format(), want.NNZ())
	}
	requireSameBits(t, ctx, got, want)
	if got.Format() == Dense {
		if dst != nil && &got.data[0] != &dst[0] {
			t.Fatalf("%s: dense result not built on its destination", ctx)
		}
		requireFreshCounts(t, ctx, got)
	}
}

func TestDeferredMatchesEagerOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Rows around the striping threshold; widths of one chunk, of two equal
	// ones and around the boundary between the two.
	fellBack, trees := 0, 0
	shapes := [][2]int{{1, 7}, {63, 300}, {64, 1024}, {65, 1025}, {130, 2049}, {130, 130}, {70, 70}, {1500, 2}}
	for _, sh := range shapes {
		for kind := fillPlain; kind <= fillSpecial; kind++ {
			for _, sparseX := range []float64{0, 0.3, 0.7} {
				for trial := 0; trial < 3; trial++ {
					trees++
					g := &exprGen{rng: rng, kind: kind, sparseX: sparseX}
					e, want := g.gen(sh[0], sh[1], 1+rng.Intn(3), false)
					ctx := fmt.Sprintf("%dx%d kind %d zeros %.1f trial %d (%d nodes)", sh[0], sh[1], kind, sparseX, trial, e.nodes)
					dst := dirty(sh[0] * sh[1])
					on := dst
					if g.csr {
						on = nil
						fellBack++
					}
					requireSameAsEager(t, ctx, e.Eval(dst), want, on)
					if trial == 0 { // an expression is reusable
						requireSameAsEager(t, ctx+" again", e.Eval(dst), want, on)
					}
				}
			}
		}
	}
	if fellBack < trees/5 || trees-fellBack < trees/5 {
		t.Fatalf("%d of %d trees had a CSR node: both paths must be well covered", fellBack, trees)
	}
}

// term returns a rank-one product under the given number of scales, now and
// then a transposed one, with transposes between the scales: what a ± takes
// as an operand without evaluating it, when its count is known.
func (g *exprGen) term(rows, cols, scales int) (*Expr, *Matrix) {
	var e *Expr
	var v *Matrix
	if rows > 1 && g.rng.Intn(3) == 0 {
		e, v = g.outer(cols, rows)
		e, v = e.Transpose(), g.saw(v.Transpose())
	} else {
		e, v = g.outer(rows, cols)
	}
	for ; scales > 0; scales-- {
		s := deferredFactors[g.rng.Intn(len(deferredFactors))]
		e, v = e.Scale(s), g.saw(v.Scale(s))
		if rows == cols && g.rng.Intn(4) == 0 {
			e, v = e.Transpose(), g.saw(v.Transpose())
		}
	}
	return e, v
}

// tail grows an update tail to about the given number of nodes: an
// accumulator that takes, on its left or on its right, by + or −, a term
// under 0–3 scales, a matrix leaf, the operand it took last once more, or a
// scaled tail of its own.
func (g *exprGen) tail(rows, cols, nodes int) (*Expr, *Matrix) {
	acc, accV := g.term(rows, cols, g.rng.Intn(4))
	var last *Expr
	var lastV *Matrix
	for acc.nodes < nodes {
		var o *Expr
		var ov *Matrix
		switch pick := g.rng.Intn(8); {
		case pick == 0:
			ov = genDense(g.rng, rows, cols, g.kind)
			o = Leaf(ov)
		case pick == 1 && last != nil:
			o, ov = last, lastV
		case pick == 2 && nodes-acc.nodes > 8:
			o, ov = g.tail(rows, cols, 2+g.rng.Intn(5))
			for k := g.rng.Intn(4); k > 0 && o != nil; k-- {
				s := deferredFactors[g.rng.Intn(len(deferredFactors))]
				if scaled := o.Scale(s); scaled != nil {
					o, ov = scaled, g.saw(ov.Scale(s))
				}
			}
		default:
			o, ov = g.term(rows, cols, g.rng.Intn(4))
		}
		var next *Expr
		var nextV func() *Matrix
		switch g.rng.Intn(4) {
		case 0:
			next, nextV = acc.Add(o), func() *Matrix { return accV.Add(ov) }
		case 1:
			next, nextV = o.Add(acc), func() *Matrix { return ov.Add(accV) }
		case 2:
			next, nextV = acc.Sub(o), func() *Matrix { return accV.Sub(ov) }
		default:
			next, nextV = o.Sub(acc), func() *Matrix { return ov.Sub(accV) }
		}
		if next == nil { // maxExprNodes
			break
		}
		acc, accV = next, g.saw(nextV())
		last, lastV = o, ov
	}
	return acc, accV
}

// update returns the tail of a quasi-Newton iteration as the engine builds
// it, over the generator's vectors and factors: DFP's H − (u·vᵀ)·c + (d·dᵀ)·c′
// or BFGS's H + (s·sᵀ)·c·c′ − (S + Sᵀ)·c″ — off the square S + S′, the form it
// takes where the planner shared no product. Now and then H is mostly ±0, so
// that H ± t·c compacts where the whole does not.
func (g *exprGen) update(rows, cols int, bfgs bool) (*Expr, *Matrix) {
	factor := func() float64 { return deferredFactors[g.rng.Intn(len(deferredFactors))] }
	h := genDense(g.rng, rows, cols, g.kind)
	if g.rng.Intn(3) == 0 {
		for i := range h.data {
			if g.rng.Intn(5) != 0 {
				h.data[i] = specials[g.rng.Intn(2)]
			}
		}
	}
	t, tv := g.outer(rows, cols)
	c, c2 := factor(), factor()
	if !bfgs {
		t2, t2v := g.outer(rows, cols)
		return Leaf(h).Sub(t.Scale(c)).Add(t2.Scale(c2)), g.saw(g.saw(h.Sub(g.saw(tv.Scale(c)))).Add(g.saw(t2v.Scale(c2))))
	}
	acc, accV := Leaf(h).Add(t.Scale(c).Scale(c2)), g.saw(h.Add(g.saw(g.saw(tv.Scale(c)).Scale(c2))))
	s, sv := g.outer(rows, cols)
	s2, s2v := g.outer(rows, cols)
	if rows == cols {
		s2, s2v = s.Transpose(), g.saw(sv.Transpose())
	}
	c3 := factor()
	return acc.Sub(s.Add(s2).Scale(c3)), g.saw(accV.Sub(g.saw(g.saw(sv.Add(s2v)).Scale(c3))))
}

// fusedShapes counts, over the ± nodes of e as Eval compiles it, the operands
// by what the ± does with them, and the ± that run a fused loop.
type fusedShapes struct {
	leftTerms, rightTerms, transposedTerms, twoScaleTerms int
	scaledCells, countedProducts, fused                   int
}

func (f *fusedShapes) add(e *Expr) {
	p := &program{rows: e.rows, cols: e.cols}
	p.root, p.depth = p.compile(e, false)
	for _, n := range p.nodes {
		if n.op != exAdd && n.op != exSub {
			continue
		}
		if n.fused != nil {
			f.fused++
		}
		for side, o := range []operand{n.l, n.r} {
			product := o.n.op == exOuter || o.n.op == exOuterT
			switch {
			case o.term && side == 0:
				f.leftTerms++
			case o.term:
				f.rightTerms++
			case product:
				f.countedProducts++
			case o.s1 != 1:
				f.scaledCells++
			}
			if o.term && o.n.op == exOuterT {
				f.transposedTerms++
			}
			if o.term && o.s2 != 1 {
				f.twoScaleTerms++
			}
		}
	}
}

// TestDeferredFusedTermsMatchEager: random update tails, up to maxExprNodes
// long, of the shapes a ± computes without a pass per node — terms on either
// side and on both, under up to three scales (negative, subnormal-producing),
// transposed, used twice, with zero rows and zero columns, and DFP's and
// BFGS's own, which run fused loops — and of the shapes it must leave alone:
// a non-finite vector entry (count unknown) and results on both sides of
// DenseThreshold. Cells, format and count are those of the eager operators,
// into clean, NaN-filled and recycled destinations, on rows one and two
// chunks wide.
func TestDeferredFusedTermsMatchEager(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var shapes fusedShapes
	fellBack, trees, longest := 0, 0, 0
	for _, sh := range [][2]int{{1, 9}, {7, 7}, {40, 40}, {66, 70}, {70, 33}, {3, 1100}, {5, 2100}} {
		cells := sh[0] * sh[1]
		recycled := make([]float64, cells)
		for _, kind := range []int{fillPlain, fillZeros} {
			for _, sparseX := range []float64{0, 0.4, 0.7} {
				for trial := 0; trial < 10; trial++ {
					trees++
					g := &exprGen{rng: rng, kind: kind, sparseX: sparseX, nonFinite: trial%4 == 3}
					nodes := 3 + rng.Intn(12)
					if trial == 0 {
						nodes = maxExprNodes
					}
					var e *Expr
					var want *Matrix
					if trial >= 8 {
						e, want = g.update(sh[0], sh[1], trial == 9)
					} else {
						e, want = g.tail(sh[0], sh[1], nodes)
					}
					longest = max(longest, e.nodes)
					shapes.add(e)
					if g.csr {
						fellBack++
					}
					ctx := fmt.Sprintf("%dx%d kind %d zeros %.1f trial %d (%d nodes)", sh[0], sh[1], kind, sparseX, trial, e.nodes)
					for name, dst := range map[string][]float64{"clean": make([]float64, cells), "NaN-filled": dirty(cells), "recycled": recycled} {
						on := dst
						if g.csr {
							on = nil
						}
						requireSameAsEager(t, ctx+" into a "+name+" destination", e.Eval(dst), want, on)
					}
				}
			}
		}
	}
	if shapes.leftTerms == 0 || shapes.rightTerms == 0 || shapes.transposedTerms == 0 || shapes.twoScaleTerms == 0 ||
		shapes.scaledCells == 0 || shapes.countedProducts == 0 || shapes.fused == 0 {
		t.Fatalf("operand shapes %+v: every one must occur", shapes)
	}
	if fellBack < trees/5 || trees-fellBack < trees/5 || longest < maxExprNodes-8 {
		t.Fatalf("%d of %d trees had a CSR node, the longest had %d nodes: both paths and the bound must be covered", fellBack, trees, longest)
	}
}

// TestUpdateTailsTakeFusedKernels: the DFP and BFGS tails, built as
// BenchmarkDeferredUpdate builds them, compile to the loops written for them
// — the top ± fused with the accumulator under it, every other ± a loop of
// its own — so that no cell of theirs goes through zipSides, with its
// per-cell operand tests and multiplications by 1.
func TestUpdateTailsTakeFusedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const n = 40
	h := genDense(rng, n, n, fillPlain)
	vector := func() *Matrix { return genDense(rng, n, 1, fillPlain) }
	u, d, hy := vector(), vector(), vector()
	v, dT := vector().Transpose(), d.Transpose()
	s := Outer(hy, dT)
	for name, e := range map[string]*Expr{
		"dfp":  Leaf(h).Sub(Outer(u, v).Scale(0.5)).Add(Outer(d, dT).Scale(0.25)),
		"bfgs": Leaf(h).Add(Outer(d, dT).Scale(1.5).Scale(0.25)).Sub(s.Add(s.Transpose()).Scale(0.5)),
	} {
		p := &program{rows: n, cols: n}
		p.root, p.depth = p.compile(e, false)
		if p.root.fused == nil {
			t.Fatalf("%s: the top ± does not run a fused loop", name)
		}
		for _, nd := range p.nodes {
			sum := nd.op == exAdd || nd.op == exSub
			if nd.op == exScale || (sum && nd != p.root.l.n && nd.zip == nil && nd.fused == nil) {
				t.Errorf("%s: node %d (op %d) is a pass of its own or runs zipSides", name, nd.id, nd.op)
			}
		}
		dst := dirty(n * n)
		requireSameAsEager(t, name, e.Eval(dst), e.eager(nil), dst)
	}
}

// FuzzDeferredTail: an update tail of any shape the generator grows, or
// DFP's or BFGS's (form 1, 2), over any fill, share of zero vector entries and
// non-finite entry, evaluates to what the eager operators give: cells bit for
// bit, format and count.
func FuzzDeferredTail(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, cols uint16, kind, zeros uint8, nonFinite bool, form uint8) {
		r, c := 1+int(rows)%70, 2+int(cols)%2199 // one column would be a mat-vec, which Outer declines
		r = min(r, max(1, 1<<14/c))
		g := &exprGen{rng: rand.New(rand.NewSource(seed)), kind: int(kind) % 3, sparseX: float64(zeros%8) / 8, nonFinite: nonFinite}
		var e *Expr
		var want *Matrix
		switch form % 8 {
		case 1, 2:
			e, want = g.update(r, c, form%8 == 2)
		default:
			e, want = g.tail(r, c, 2+int(form)%maxExprNodes)
		}
		dst := dirty(r * c)
		on := dst
		if g.csr {
			on = nil
		}
		requireSameAsEager(t, fmt.Sprintf("%dx%d (%d nodes)", r, c, e.nodes), e.Eval(dst), want, on)
	})
}

// TestDeferredFallsBackWhereEagerCompacts: an interior node at or under
// DenseThreshold is CSR on the eager path, and what the CSR kernels make of
// it differs from the dense statements in the sign of zero cells. Eval must
// notice and take the eager path, for a product as well as for a sum.
func TestDeferredFallsBackWhereEagerCompacts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 96
	h := genDense(rng, n, n, fillPlain)
	for i := 0; i < n*n; i += 3 {
		h.data[i] = math.Copysign(0, -1)
	}
	xs := make([]float64, n)
	for i := 0; i < n; i += 4 { // a quarter of the rows: the product is CSR
		xs[i] = 1 + rng.Float64()
	}
	x, y := NewDenseData(n, 1, xs), genDense(rng, 1, n, fillPlain)

	// (a) A sparse product, scaled by a negative factor, under a dense sum:
	// the dense statements would give −0 + −0 = −0 where the CSR ones give
	// −0 + 0 = +0.
	e := Leaf(h).Add(Outer(x, y).Scale(-2))
	want := h.Add(x.Mul(y).Scale(-2))
	if x.Mul(y).Format() != CSR || want.Format() != Dense {
		t.Fatalf("setup: product %v, sum %v", x.Mul(y).Format(), want.Format())
	}
	dst := dirty(n * n)
	requireSameAsEager(t, "sparse product", e.Eval(dst), want, dst)
	if countSign(want, -1) == countSign(denseStatements(h, xs, y.data, -2), -1) {
		t.Fatal("setup: the CSR and dense paths agree here; the case checks nothing")
	}

	// (b) Dense products whose difference is sparse, transposed and scaled
	// on: the sum is the node that compacts (counted, not known beforehand).
	full := genDense(rng, n, 1, fillPlain)
	p := Outer(full, y)
	e = Leaf(h).Add(p.Sub(p).Scale(-1))
	pv := full.Mul(y)
	want = h.Add(pv.Sub(pv).Scale(-1))
	if pv.Sub(pv).Format() != CSR || want.Format() != Dense {
		t.Fatalf("setup: V − V is %v, the sum %v", pv.Sub(pv).Format(), want.Format())
	}
	requireSameAsEager(t, "sparse difference", e.Eval(dst), want, dst)
	if countSign(h, -1) == 0 || countSign(want, -1) != 0 {
		t.Fatal("setup: expected the CSR path to turn every −0 of h into +0")
	}

	// (c) A sparse root leaves as CSR and the destination stays behind.
	got := p.Sub(p).Eval(dst)
	if got.Format() != CSR || got.NNZ() != 0 {
		t.Fatalf("V − V = %v", got)
	}
}

// TestFusedTailsFallBackWhereTheAccumulatorCompacts: a fused loop counts the
// accumulator H ± t·c under it as well as the whole, and that count decides a
// format too. Here H cancels t·c cell for cell, holding −0 where t·c is zero,
// so H ± t·c is nothing but zeros, −0 among them, and CSR on the eager path,
// where the −0 the dense statements would pass on to the whole is +0.
func TestFusedTailsFallBackWhereTheAccumulatorCompacts(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const n = 96
	column := func() *Matrix { // a zero every fourth row: dense products with zero rows
		x := genDense(rng, n, 1, fillPlain)
		for i := 0; i < n; i += 4 {
			x.data[i] = 0
		}
		return x
	}
	minusZeros := func(m *Matrix) *Matrix {
		for i, v := range m.data {
			if v == 0 {
				m.data[i] = math.Copysign(0, -1)
			}
		}
		return m
	}
	x, x2, x3, y := column(), column(), column(), genDense(rng, 1, n, fillPlain)
	dfpH := minusZeros(x.Mul(y).Scale(2))
	bfgsH := minusZeros(x.Mul(y).Scale(-2).Scale(0.5).Scale(-1))
	for name, c := range map[string]struct {
		e           *Expr
		inner, want *Matrix
	}{
		"dfp": {
			Leaf(dfpH).Sub(Outer(x, y).Scale(2)).Add(Outer(x2, y).Scale(-1)),
			dfpH.Sub(x.Mul(y).Scale(2)),
			dfpH.Sub(x.Mul(y).Scale(2)).Add(x2.Mul(y).Scale(-1)),
		},
		"bfgs": {
			Leaf(bfgsH).Add(Outer(x, y).Scale(-2).Scale(0.5)).Sub(Outer(x2, y).Add(Outer(x3, y)).Scale(0.5)),
			bfgsH.Add(x.Mul(y).Scale(-2).Scale(0.5)),
			bfgsH.Add(x.Mul(y).Scale(-2).Scale(0.5)).Sub(x2.Mul(y).Add(x3.Mul(y)).Scale(0.5)),
		},
	} {
		p := &program{rows: n, cols: n}
		if p.root, _ = p.compile(c.e, false); p.root.fused == nil || c.inner.Format() != CSR || c.want.Format() != Dense {
			t.Fatalf("%s setup: fused %v, accumulator %v, whole %v", name, p.root.fused != nil, c.inner.Format(), c.want.Format())
		}
		dst := dirty(n * n)
		requireSameAsEager(t, name, c.e.Eval(dst), c.want, dst)
	}
}

// denseStatements is what evaluating h + (x·y)·s without the format test
// would give.
func denseStatements(h *Matrix, x, y []float64, s float64) *Matrix {
	out := NewDense(h.rows, h.cols)
	for i, xv := range x {
		for j, yv := range y {
			p := 0.0
			if xv != 0 {
				p = 0 + xv*yv
			}
			out.data[i*h.cols+j] = h.data[i*h.cols+j] + p*s
		}
	}
	return out
}

// countSign counts the zero cells of m with the given sign.
func countSign(m *Matrix, sign float64) int {
	n := 0
	for _, v := range m.ToDense().data {
		if v == 0 && math.Signbit(v) == (sign < 0) {
			n++
		}
	}
	return n
}

func TestDeferredConstructorsDecline(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	col, row := genDense(rng, 5, 1, fillPlain), genDense(rng, 1, 4, fillPlain)
	e := Outer(col, row)
	if e == nil || e.Rows() != 5 || e.Cols() != 4 {
		t.Fatalf("Outer(5×1, 1×4) = %+v", e)
	}
	for what, got := range map[string]*Expr{
		"matrix·vector (p = 1)": Outer(col, genDense(rng, 1, 1, fillPlain)),
		"k = 2":                 Outer(genDense(rng, 5, 2, fillPlain), genDense(rng, 2, 4, fillPlain)),
		"CSR column":            Outer(col.ToCSR(), row),
		"CSR row":               Outer(col, row.ToCSR()),
		"CSR leaf":              Leaf(RandSparse(rng, 5, 4, 0.2)),
		"scale by 0":            e.Scale(0),
		"scale by +Inf":         e.Scale(math.Inf(1)),
		"scale by −Inf":         e.Scale(math.Inf(-1)),
		"scale by NaN":          e.Scale(math.NaN()),
		"transpose over a leaf": e.Add(Leaf(genDense(rng, 5, 4, fillPlain))).Transpose(),
		"shape mismatch":        e.Add(Outer(row.Transpose(), col.Transpose())),
		"nil operand":           e.Sub(nil),
	} {
		if got != nil {
			t.Errorf("%s: deferred", what)
		}
	}
	// Growth stops at maxExprNodes, whichever constructor is asked.
	for e.Add(e) != nil {
		e = e.Add(e)
	}
	if e.nodes >= maxExprNodes || 2*e.nodes+1 < maxExprNodes {
		t.Fatalf("doubling stopped at %d nodes", e.nodes)
	}
	for e.Scale(2) != nil {
		e = e.Scale(2)
	}
	if e.nodes != maxExprNodes || e.Transpose() != nil {
		t.Fatalf("growth by one stopped at %d nodes (transpose declined: %v)", e.nodes, e.Transpose() == nil)
	}
	dst := dirty(20)
	if got := e.Eval(dst); got.Format() != Dense || &got.data[0] != &dst[0] {
		t.Fatal("the largest expression does not evaluate")
	}
}

// TestDeferredOuterNNZ: the count taken from the vectors is the count of
// the cells, or is not offered.
func TestDeferredOuterNNZ(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		name string
		x, y []float64
		ok   bool
	}{
		{"plain", []float64{1, 0, -2, 3}, []float64{0, 5, math.Copysign(0, -1), 7, 1}, true},
		{"all zero x", []float64{0, 0}, []float64{1, 2, 3}, true},
		{"underflow", []float64{1, tiny}, []float64{0.25, 3}, false},
		{"subnormal, no underflow", []float64{4, tiny}, []float64{1, 3}, true},
		{"inf", []float64{1, math.Inf(1)}, []float64{0, 3}, false},
		{"nan", []float64{1, 2}, []float64{math.NaN(), 3}, false},
		{"overflow", []float64{1e200, 2}, []float64{1e200, 3}, true},
	} {
		nnz, ok := outerNNZ(c.x, c.y)
		if ok != c.ok {
			t.Errorf("%s: known = %v, want %v", c.name, ok, c.ok)
		}
		x, y := NewDenseData(len(c.x), 1, c.x), NewDenseData(1, len(c.y), c.y)
		if want, _, _ := scanCounts(refMulDenseDense(x, y)); ok && nnz != want {
			t.Errorf("%s: %d nonzeros from the vectors, %d in the cells", c.name, nnz, want)
		}
	}
}
