package distmat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"remac/internal/cluster"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/trace"
)

// The rules of deferred.go, made executable: what defers and what never
// does, that every way out of the deferred set materialises, and that a
// deferred value's leaves are recycled once, after the evaluation that read
// them, and never while another expression can still reach them.

// updateOperands are the operands of one quasi-Newton tail: a bound H and
// the vectors its rank-one updates are made of, with the plain matrices the
// references are computed from.
type updateOperands struct {
	h, u, vT, d, dT     *DistMatrix
	hm, um, vm, dm, dTm *matrix.Matrix
}

func newUpdateOperands(c *Context, seed int64, n int) updateOperands {
	rng := rand.New(rand.NewSource(seed))
	o := updateOperands{hm: matrix.RandDense(rng, n, n), um: matrix.RandVector(rng, n),
		vm: matrix.RandVector(rng, n).Transpose(), dm: matrix.RandVector(rng, n)}
	o.dTm = o.dm.Transpose()
	o.h, o.u, o.vT = New(c, o.hm, 0, 0), New(c, o.um, 0, 0), New(c, o.vm, 0, 0)
	o.d, o.dT = New(c, o.dm, 0, 0), New(c, o.dTm, 0, 0)
	return o
}

// poisonIdle overwrites every buffer on the free list: a live value that can
// still reach one of them will not compute what the reference computes.
func poisonIdle(c *Context) {
	for _, buf := range c.Idle() {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
}

func idleHolds(c *Context, buf []float64) int {
	n := 0
	for _, b := range c.Idle() {
		if sameBuffer(b, buf) {
			n++
		}
	}
	return n
}

// TestDeferredChainIsOnePassAndRecyclesItsLeavesOnce walks DFP's tail, H −
// (u·vᵀ)·c + (d·dᵀ)·c', through the deferring operators: each consumes its
// temporaries at once, none of their buffers is free before the evaluation,
// each is free exactly once after it, and the cells are the eager ones.
func TestDeferredChainIsOnePassAndRecyclesItsLeavesOnce(t *testing.T) {
	c := ctx()
	const n = 48
	o := newUpdateOperands(c, 50, n)
	// Temporary vectors (H·g and the like), so the products own leaves.
	u := o.u.Scale(2).Temp()
	d := o.d.Scale(3).Temp()
	uBuf, dBuf := u.data.Buffer(), d.data.Buffer()

	p1 := u.Mul(o.vT).Temp()
	if !p1.Deferred() || u.data != nil {
		t.Fatalf("rank-one product: deferred %v, temporary operand emptied %v", p1.Deferred(), u.data == nil)
	}
	requireConsumed(t, "a vector a deferred product took over", func() { u.Data() })
	s1 := p1.Scale(0.5).Temp()
	requireConsumed(t, "a deferred value a deferred scale took over", func() { p1.Scale(2) })
	diff := o.h.Sub(s1).Temp()
	p2 := d.Mul(o.dT).Temp()
	s2 := p2.Scale(0.25).Temp()
	sum := diff.Add(s2).Temp()
	for what, v := range map[string]*DistMatrix{"scale": s1, "H − …": diff, "second product": p2, "… + …": sum} {
		if what != "… + …" && (v.data != nil || v.expr != nil) {
			t.Fatalf("%s: not emptied by its consumer", what)
		}
	}
	if !sum.Deferred() || len(c.Idle()) != 0 {
		t.Fatalf("before evaluation: deferred %v, %d idle buffers (want none: the leaves are in use)", sum.Deferred(), len(c.Idle()))
	}
	if rows, cols := sum.Dims(); rows != n || cols != n || sum.IsScalar() {
		t.Fatalf("Dims of a deferred value = %d×%d", rows, cols)
	}
	if len(sum.owned) != 2 {
		t.Fatalf("the chain owns %d buffers, want the two temporary vectors", len(sum.owned))
	}

	got := sum.Data()
	if sum.Deferred() || sum.owned != nil {
		t.Fatal("Data left the value deferred")
	}
	want := o.hm.Sub(o.um.Scale(2).Mul(o.vm).Scale(0.5)).Add(o.dm.Scale(3).Mul(o.dTm).Scale(0.25))
	requireCells(t, "chain", got, cellsOf(want))
	if got.NNZ() != want.NNZ() || got.Format() != want.Format() {
		t.Fatalf("chain: %v nnz %d, want %v nnz %d", got.Format(), got.NNZ(), want.Format(), want.NNZ())
	}
	if idleHolds(c, uBuf) != 1 || idleHolds(c, dBuf) != 1 || len(c.Idle()) != 2 {
		t.Fatalf("after evaluation: u's buffer free %d×, d's %d×, %d idle in all (want 1, 1, 2)",
			idleHolds(c, uBuf), idleHolds(c, dBuf), len(c.Idle()))
	}
	poisonIdle(c)
	requireCells(t, "chain after its leaves were reused", sum.Data(), cellsOf(want))
	requireCells(t, "H", o.h.Data(), cellsOf(o.hm))
}

// TestDeferredSharedValueLendsItsLeaves is BFGS's shape: S = (H·y)·sᵀ sits in
// a CSE reuse slot (retained, still deferred) and is read by two consumers, one
// of them its own transpose. Whichever expression is evaluated first, the
// other must still find the leaves, so the temporary S took over is never
// recycled — and certainly not twice.
func TestDeferredSharedValueLendsItsLeaves(t *testing.T) {
	for _, forceSharedFirst := range []bool{false, true} {
		c := ctx()
		const n = 40
		o := newUpdateOperands(c, 51, n)
		hy := o.h.Mul(o.d).Temp() // a true multiply: materialised
		if hy.Deferred() {
			t.Fatal("matrix·vector deferred")
		}
		hyBuf := hy.data.Buffer()
		s := hy.Mul(o.dT).Temp().Retain()
		if !s.Deferred() || len(s.owned) != 1 {
			t.Fatalf("S: deferred %v, owns %d buffers", s.Deferred(), len(s.owned))
		}
		sT := s.Transpose().Temp()
		if !sT.Deferred() || !s.Deferred() || s.owned != nil {
			t.Fatalf("Sᵀ deferred %v; S still deferred %v and owning %d", sT.Deferred(), s.Deferred(), len(s.owned))
		}
		sym := s.Add(sT).Temp()
		upd := o.h.Sub(sym.Scale(0.5).Temp()).Temp()
		if !upd.Deferred() || len(upd.owned) != 0 {
			t.Fatalf("update: deferred %v, owns %d buffers (S lent its leaves, it did not give them)", upd.Deferred(), len(upd.owned))
		}
		hym := o.hm.Mul(o.dm)
		sm := hym.Mul(o.dTm)
		want := o.hm.Sub(sm.Add(sm.Transpose()).Scale(0.5))
		check := func(first, second *DistMatrix, wantFirst, wantSecond *matrix.Matrix) {
			requireCells(t, "first evaluated", first.Data(), cellsOf(wantFirst))
			if idleHolds(c, hyBuf) != 0 {
				t.Fatal("a leaf of a shared expression was recycled")
			}
			poisonIdle(c)
			requireCells(t, "second evaluated", second.Data(), cellsOf(wantSecond))
			if idleHolds(c, hyBuf) != 0 {
				t.Fatal("a leaf of a shared expression was recycled")
			}
		}
		if forceSharedFirst {
			check(s, upd, sm, want)
		} else {
			check(upd, s, want, sm)
		}
		seen := map[*float64]bool{}
		for _, buf := range c.Idle() {
			if seen[&buf[0]] {
				t.Fatal("a buffer is on the free list twice")
			}
			seen[&buf[0]] = true
		}
	}
}

// TestDeferredLoansKeepALenderFromRetiring: a named value read as a leaf by an
// expression still to be evaluated is on loan. The evaluation returns the
// loan; a temporary borrower that is consumed passes its loans on; a retained
// borrower that lends its expression has them copied, one to return for each
// expression; and a borrower nobody evaluates keeps its lender for good.
func TestDeferredLoansKeepALenderFromRetiring(t *testing.T) {
	c := ctx()
	const n = 32
	o := newUpdateOperands(c, 57, n)
	named := func() (*DistMatrix, []float64) {
		h := o.h.Scale(2).Temp().Pin()
		return h, cellsOf(h.Data())
	}
	kept := func(what string, h *DistMatrix, cells []float64, loans int) {
		t.Helper()
		if h.loans != loans {
			t.Fatalf("%s: %d loans out, want %d", what, h.loans, loans)
		}
		if h.Retire() != nil {
			t.Fatalf("%s: a lender was retired", what)
		}
		requireCells(t, what, h.Data(), cells)
	}
	retires := func(what string, h *DistMatrix) {
		t.Helper()
		if h.loans != 0 || h.Retire() == nil {
			t.Fatalf("%s: %d loans out, or not retired", what, h.loans)
		}
		poisonIdle(c)
	}
	hm := o.hm.Scale(2)
	pm := o.um.Mul(o.vm)

	// Returned by the evaluation.
	h, cells := named()
	upd := h.Sub(o.u.Mul(o.vT).Temp()).Temp()
	kept("read by a deferred difference", h, cells, 1)
	want := cellsOf(hm.Sub(pm))
	requireCells(t, "the difference", upd.Data(), want)
	retires("after the evaluation", h)
	requireCells(t, "the difference, its lender retired", upd.Data(), want)

	// Moved with a consumed temporary.
	h, cells = named()
	scaled := h.Sub(o.u.Mul(o.vT).Temp()).Temp().Scale(3).Temp()
	kept("read by a scale of a difference", h, cells, 1)
	requireCells(t, "the scaled difference", scaled.Data(), cellsOf(hm.Sub(pm).Scale(3)))
	retires("after the evaluation of the consumer", h)

	// Copied when a retained value lends its expression; the vectors of a
	// product are loans like a matrix leaf.
	h, cells = named()
	uNamed := o.u.Scale(1).Temp().Pin()
	uCells := cellsOf(uNamed.Data())
	shared := h.Add(uNamed.Mul(o.vT).Temp()).Temp().Retain()
	kept("read by a cached sum", h, cells, 1)
	twice := shared.Scale(2).Temp()
	kept("read by a cached sum and by its consumer", h, cells, 2)
	kept("a product's vector, likewise", uNamed, uCells, 2)
	requireCells(t, "the consumer", twice.Data(), cellsOf(hm.Add(pm).Scale(2)))
	kept("the cached sum is still to be evaluated", h, cells, 1)
	requireCells(t, "the cached sum", shared.Data(), cellsOf(hm.Add(pm)))
	retires("both evaluated", h)
	retires("both evaluated: the vector", uNamed)

	// Never returned by a borrower nobody evaluates.
	h, cells = named()
	h.Add(o.u.Mul(o.vT).Temp()) // dropped
	kept("read by an expression that was dropped", h, cells, 1)
}

// TestDeferredSameTemporaryOnBothSides: V + V over a deferred temporary takes
// it over once.
func TestDeferredSameTemporaryOnBothSides(t *testing.T) {
	c := ctx()
	o := newUpdateOperands(c, 52, 30)
	u := o.u.Scale(2).Temp()
	uBuf := u.data.Buffer()
	p := u.Mul(o.vT).Temp()
	twice := p.Add(p).Temp()
	if !twice.Deferred() || len(twice.owned) != 1 || p.expr != nil {
		t.Fatalf("V + V: deferred %v, owns %d, operand emptied %v", twice.Deferred(), len(twice.owned), p.expr == nil)
	}
	pm := o.um.Scale(2).Mul(o.vm)
	requireCells(t, "V + V", twice.Data(), cellsOf(pm.Add(pm)))
	if idleHolds(c, uBuf) != 1 {
		t.Fatalf("the leaf is on the free list %d times", idleHolds(c, uBuf))
	}
	// V − V is empty: the evaluation falls back on the eager operators, the
	// result is CSR and its destination goes back where it came from.
	q := o.u.Mul(o.vT).Temp()
	zero := q.Sub(q)
	idle := len(c.Idle())
	if m := zero.Data(); m.Format() != matrix.CSR || m.NNZ() != 0 {
		t.Fatalf("V − V = %v", m)
	}
	if len(c.Idle()) != idle {
		t.Fatalf("free list went from %d to %d buffers over an evaluation that kept none", idle, len(c.Idle()))
	}
}

// TestDeferredForcePoints: everything that needs cells materialises the
// value, with the cells of the eager run.
func TestDeferredForcePoints(t *testing.T) {
	const n = 24
	ref := newUpdateOperands(ctx(), 53, n)
	want := ref.um.Mul(ref.vm).Scale(3)
	for what, use := range map[string]func(v *DistMatrix, o updateOperands){
		"Data":           func(v *DistMatrix, _ updateOperands) { v.Data() },
		"Pin":            func(v *DistMatrix, _ updateOperands) { v.Pin() },
		"Checkpoint":     func(v *DistMatrix, _ updateOperands) { v.Checkpoint() },
		"GuardValue":     func(v *DistMatrix, _ updateOperands) { v.GuardValue("H") },
		"Sum":            func(v *DistMatrix, _ updateOperands) { v.Sum() },
		"AddScalar":      func(v *DistMatrix, _ updateOperands) { v.AddScalar(1) },
		"TransposeFused": func(v *DistMatrix, _ updateOperands) { v.TransposeFused() },
		"ElemMul":        func(v *DistMatrix, o updateOperands) { v.ElemMul(o.h) },
		"ElemDiv right":  func(v *DistMatrix, o updateOperands) { o.h.ElemDiv(v) },
		"Mul left":       func(v *DistMatrix, o updateOperands) { v.Mul(o.d) },
		"Mul right":      func(v *DistMatrix, o updateOperands) { o.dT.Mul(v) },
		"Scale by 0":     func(v *DistMatrix, _ updateOperands) { v.Scale(0) },
		"Scale by +Inf":  func(v *DistMatrix, _ updateOperands) { v.Scale(math.Inf(1)) },
		"Scale by −Inf":  func(v *DistMatrix, _ updateOperands) { v.Scale(math.Inf(-1)) },
		"Scale by NaN":   func(v *DistMatrix, _ updateOperands) { v.Scale(math.NaN()) },
		"+ a CSR value": func(v *DistMatrix, o updateOperands) {
			v.Add(New(o.h.ctx, matrix.RandSparse(rand.New(rand.NewSource(1)), n, n, 0.1), 0, 0))
		},
	} {
		c := ctx()
		o := newUpdateOperands(c, 53, n)
		v := o.u.Mul(o.vT).Scale(3)
		if !v.Deferred() {
			t.Fatalf("%s: setup did not defer", what)
		}
		use(v, o)
		if v.Deferred() {
			t.Errorf("%s left the value deferred", what)
			continue
		}
		requireCells(t, what, v.Data(), cellsOf(want))
	}
	// A transpose cannot be pushed through a matrix leaf: the operand is
	// materialised and transposed by the kernel.
	c := ctx()
	o := newUpdateOperands(c, 53, n)
	sum := o.u.Mul(o.vT).Add(o.h)
	if !sum.Deferred() {
		t.Fatal("V + H did not defer")
	}
	tr := sum.Transpose()
	if sum.Deferred() || tr.Deferred() {
		t.Fatalf("transpose over a matrix leaf: operand deferred %v, result deferred %v", sum.Deferred(), tr.Deferred())
	}
	requireCells(t, "(V + H)ᵀ", tr.Data(), cellsOf(o.um.Mul(o.vm).Add(o.hm).Transpose()))
}

// TestDeferredOnlyWhereNothingObservesThePayload: CSR or distributed
// operands, distributed results and a per-operator guard keep every operator
// on the eager path, by what the operator can see and not by a switch.
func TestDeferredOnlyWhereNothingObservesThePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const n = 30
	col, row := matrix.RandVector(rng, n), matrix.RandVector(rng, n).Transpose()

	c := ctx()
	if v := New(c, col, 0, 0).Mul(New(c, row, 0, 0)); !v.Deferred() {
		t.Fatal("a dense driver-local rank-one product did not defer")
	}
	for what, v := range map[string]*DistMatrix{
		"CSR column":     New(c, col.ToCSR(), 0, 0).Mul(New(c, row, 0, 0)),
		"CSR row":        New(c, col, 0, 0).Mul(New(c, row.ToCSR(), 0, 0)),
		"k = 2":          New(c, matrix.RandDense(rng, n, 2), 0, 0).Mul(New(c, matrix.RandDense(rng, 2, n), 0, 0)),
		"matrix·vector":  New(c, matrix.RandDense(rng, n, n), 0, 0).Mul(New(c, col, 0, 0)),
		"scalar product": New(c, row, 0, 0).Mul(New(c, col, 0, 0)),
		"dense + dense":  New(c, matrix.RandDense(rng, n, n), 0, 0).Add(New(c, matrix.RandDense(rng, n, n), 0, 0)),
		"scale of dense": New(c, matrix.RandDense(rng, n, n), 0, 0).Scale(2),
		// 50M × 50M virtual cells: the product is not driver-local.
		"distributed result": New(c, col, 50_000_000, 1).Mul(New(c, row, 1, 50_000_000)),
	} {
		if v.Deferred() {
			t.Errorf("%s: deferred", what)
		}
	}
	guarded := ctx()
	guarded.NaNGuard = integrity.GuardPerOp
	if v := New(guarded, col, 0, 0).Mul(New(guarded, row, 0, 0)); v.Deferred() {
		t.Error("deferred under a per-operator guard, which scans every result")
	}
	perIter := ctx()
	perIter.NaNGuard = integrity.GuardPerIteration
	perIter.Verify = integrity.VerifyABFT
	if v := New(perIter, col, 0, 0).Mul(New(perIter, row, 0, 0)); !v.Deferred() {
		t.Error("a per-iteration guard and ABFT look at bound and distributed values only, yet the product did not defer")
	}
}

// TestDeferredOperatorsChargeAndRecordAsEager: the simulated cluster and the
// trace cannot tell a deferred chain from an eager one (wall time aside).
func TestDeferredOperatorsChargeAndRecordAsEager(t *testing.T) {
	run := func(guard integrity.GuardMode) (cluster.Stats, []trace.Span, *matrix.Matrix) {
		c := ctx()
		c.Recorder = trace.New()
		c.NaNGuard = guard
		o := newUpdateOperands(c, 55, 36)
		s := o.h.Mul(o.d).Temp().Mul(o.dT).Temp().Retain()
		upd := o.h.Add(o.u.Mul(o.vT).Temp().Scale(0.5).Temp()).Temp().Sub(s.Add(s.Transpose().Temp()).Temp().Scale(2).Temp())
		return c.Cluster.Stats(), c.Recorder.Spans(), upd.Data()
	}
	dStats, dSpans, dOut := run(integrity.GuardOff)
	eStats, eSpans, eOut := run(integrity.GuardPerOp) // eager by the observer rule
	requireCells(t, "deferred against eager", dOut, cellsOf(eOut))
	// The guarded run additionally charges one scan per operator; everything
	// else must agree, operator by operator.
	var ops []trace.Span
	for _, s := range eSpans {
		if s.Label != "integrity/nan-scan" {
			ops = append(ops, s)
		}
	}
	if len(ops) != len(dSpans) {
		t.Fatalf("%d operator spans deferred, %d eager", len(dSpans), len(ops))
	}
	for i := range ops {
		a, b := dSpans[i], ops[i]
		aOut, bOut := *a.Out, *b.Out
		a.ID, b.ID, a.WallNS, b.WallNS, a.Out, b.Out = 0, 0, 0, 0, nil, nil
		if !reflect.DeepEqual(a, b) || aOut != bOut {
			t.Fatalf("span %d differs:\n%+v → %+v\n%+v → %+v", i, a, aOut, b, bOut)
		}
	}
	if dStats.FLOP != eStats.FLOP || dStats.Ops != eStats.Ops-len(eSpans)+len(ops) {
		t.Fatalf("stats differ: deferred %+v\neager %+v", dStats, eStats)
	}
}

// TestWorkerSharesMatchTheRescanningForm: the block histogram carried by the
// matrix gives, bit for bit, the shares a scan of every nonzero gives.
func TestWorkerSharesMatchTheRescanningForm(t *testing.T) {
	rescan := func(c *cluster.Cluster, m *matrix.Matrix) []float64 {
		const gridTarget = 48
		gr, gc := min(gridTarget, m.Rows()), min(gridTarget, m.Cols())
		weights := make([]float64, c.Config().Workers())
		cellRows, cellCols := (m.Rows()+gr-1)/gr, (m.Cols()+gc-1)/gc
		counts := make([]float64, gr*gc)
		m.ForEachNonzero(func(i, j int, _ float64) { counts[(i/cellRows)*gc+j/cellCols]++ })
		total := 0.0
		for idx, n := range counts {
			if n != 0 {
				weights[c.PartitionOf(idx/gc, idx%gc)] += n
				total += n
			}
		}
		for i := range weights {
			if total == 0 {
				weights[i] = 1 / float64(len(weights))
			} else {
				weights[i] /= total
			}
		}
		return weights
	}
	rng := rand.New(rand.NewSource(56))
	c := ctx().Cluster
	withZeros := matrix.RandDense(rng, 100, 50)
	for i := 0; i < 100; i += 3 {
		withZeros.Set(i, i%50, 0)
	}
	for what, m := range map[string]*matrix.Matrix{
		"csr":            matrix.RandSparse(rng, 2000, 200, 0.02),
		"zipf":           matrix.ZipfSparse(rng, 1000, 300, 0.02, 2.1),
		"dense":          matrix.RandDense(rng, 130, 97),
		"dense, zeros":   withZeros,
		"narrow":         matrix.RandDense(rng, 300, 7),
		"short":          matrix.RandSparse(rng, 5, 400, 0.3),
		"grid remainder": matrix.RandDense(rng, 50, 50), // 48 blocks of 2 cover 50 with blocks to spare
		"empty":          matrix.NewDense(60, 60),
		"explicit zeros": matrix.RandSparse(rng, 200, 100, 0.1).Scale(math.SmallestNonzeroFloat64).Scale(0.1),
	} {
		for round := 0; round < 2; round++ { // the second call reads the carried histogram
			got, want := WorkerShares(c, m), rescan(c, m)
			for w := range want {
				if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
					t.Fatalf("%s round %d: worker %d share %v, rescanning %v", what, round, w, got[w], want[w])
				}
			}
		}
	}
	// A write drops the carried histogram.
	m := matrix.RandDense(rng, 64, 64)
	before := WorkerShares(c, m)
	for j := 0; j < 64; j++ {
		m.Set(0, j, 0)
		m.Set(1, j, 0)
	}
	after, want := WorkerShares(c, m), rescan(c, m)
	same := true
	for w := range want {
		if math.Float64bits(after[w]) != math.Float64bits(want[w]) {
			t.Fatalf("after Set: worker %d share %v, rescanning %v", w, after[w], want[w])
		}
		same = same && after[w] == before[w]
	}
	if same {
		t.Fatal("setup: the write did not move the shares")
	}
}
