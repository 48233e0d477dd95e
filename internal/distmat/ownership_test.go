package distmat

import (
	"math"
	"math/rand"
	"testing"

	"remac/internal/fault"
	"remac/internal/matrix"
)

func cellsOf(m *matrix.Matrix) []float64 {
	return append([]float64(nil), m.ToDense().Buffer()...)
}

func requireCells(t *testing.T, what string, got *matrix.Matrix, want []float64) {
	t.Helper()
	g := got.ToDense().Buffer()
	if len(g) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(g), len(want))
	}
	for i := range want {
		if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v, want %v", what, i, g[i], want[i])
		}
	}
}

func first(d *DistMatrix) *float64 { return &d.data.Buffer()[0] }

// requireConsumed fails unless using d panics.
func requireConsumed(t *testing.T, what string, use func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	use()
}

// TestOwnershipTemporariesAreOverwrittenOrRecycled walks one expression
// through every way a dead temporary's buffer is reused and checks the
// values against the plain kernels on untouched operands.
func TestOwnershipTemporariesAreOverwrittenOrRecycled(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(40))
	const n = 40
	am, bm := matrix.RandDense(rng, n, n), matrix.RandDense(rng, n, n)
	aCells, bCells := cellsOf(am), cellsOf(bm)
	a, b := New(c, am, 0, 0), New(c, bm, 0, 0)

	sum := a.Add(b) // operands are not temporaries: a fresh buffer
	buf := first(sum)
	scaled := sum.Scale(2) // in place
	if first(scaled) != buf {
		t.Fatal("scale of a temporary did not run in place")
	}
	requireConsumed(t, "Data of a consumed temporary", func() { sum.Data() })
	diff := a.Sub(scaled) // in place over the right operand
	if first(diff) != buf {
		t.Fatal("a − temporary did not run in place")
	}
	if len(c.Idle()) != 0 {
		t.Fatalf("%d buffers idle while every one is in use", len(c.Idle()))
	}
	tr := diff.Transpose() // cannot alias: fresh buffer, operand recycled
	if idle := c.Idle(); first(tr) == buf || len(idle) != 1 || &idle[0][0] != buf {
		t.Fatalf("transpose of a temporary: result on operand's buffer %v, idle %d", first(tr) == buf, len(idle))
	}
	prod := a.Mul(tr) // destination from the free list; tr recycled after
	if first(prod) != buf || len(c.Idle()) != 1 {
		t.Fatalf("product: on the recycled buffer %v, idle %d (want 1: the transpose's)", first(prod) == buf, len(c.Idle()))
	}
	sq := prod.ElemMul(prod) // the same temporary on both sides
	if first(sq) != buf || len(c.Idle()) != 1 {
		t.Fatalf("V ⊙ V: in place %v, idle %d", first(sq) == buf, len(c.Idle()))
	}
	want := am.Mul(am.Sub(am.Add(bm).Scale(2)).Transpose())
	want = want.ElemMul(want)
	requireCells(t, "result", sq.Data(), cellsOf(want))
	if sq.Data().NNZ() != want.NNZ() {
		t.Fatalf("result carries NNZ %d, want %d", sq.Data().NNZ(), want.NNZ())
	}
	if got := sq.Sum(); got != want.Sum() {
		t.Fatalf("sum %v, want %v", got, want.Sum())
	}
	if len(c.Idle()) != 2 {
		t.Fatalf("after the sum consumed the last temporary: %d idle buffers, want 2", len(c.Idle()))
	}
	for _, dead := range []*DistMatrix{sum, scaled, diff, tr, prod, sq} {
		if dead.data != nil {
			t.Fatal("a consumed temporary still holds its matrix")
		}
	}
	requireCells(t, "a", a.Data(), aCells)
	requireCells(t, "b", b.Data(), bCells)
}

// TestOwnershipInputsAndGivenValuesAreNeverTemporaries: what New and Read
// wrap, and a value over cells it was given, is no temporary — every operator
// reads it and writes elsewhere, and its buffer never reaches the free list —
// while what an operator makes is one.
func TestOwnershipInputsAndGivenValuesAreNeverTemporaries(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(41))
	a, b := New(c, matrix.RandDense(rng, 30, 30), 0, 0), Read(c, matrix.RandDense(rng, 30, 30), 0, 0)
	src := a.Scale(3).Retain() // a repeat slot holds it
	c.Give(src)
	g := a.Scale(3)
	values := map[string]*DistMatrix{"New": a, "Read": b, "given": g}
	cells := map[string][]float64{}
	for what, v := range values {
		if v.temp {
			t.Fatalf("%s: a temporary", what)
		}
		cells[what] = cellsOf(v.Data())
	}
	for what, v := range values {
		for _, out := range []*DistMatrix{v.Add(b), a.Sub(v), v.Scale(2), v.AddScalar(1), v.Transpose(), v.Mul(a)} {
			if over := sameBuffer(out.Data().Buffer(), v.Data().Buffer()); !out.temp || over {
				t.Fatalf("%s: the result is a temporary %v, over the operand %v", what, out.temp, over)
			}
		}
		v.Sum()
		for _, buf := range c.Idle() {
			if sameBuffer(buf, v.Data().Buffer()) {
				t.Fatalf("%s: on the free list", what)
			}
		}
		poisonIdle(c)
		requireCells(t, what+" after use", v.Data(), cells[what])
	}
}

// TestOwnershipScratchOfACSRResultIsRecycledOnce: when the result compacts
// to CSR (or never needed a dense pass) the destination goes back to the
// free list — once, also when the temporary stands on both sides.
func TestOwnershipScratchOfACSRResultIsRecycledOnce(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(42))
	a := New(c, matrix.RandDense(rng, 30, 30), 0, 0)
	tmp := a.Scale(2)
	buf := first(tmp)
	zero := tmp.Sub(tmp)
	if zero.Data().Format() != matrix.CSR || zero.Data().NNZ() != 0 {
		t.Fatalf("V − V = %v", zero.Data())
	}
	if idle := c.Idle(); len(idle) != 1 || &idle[0][0] != buf {
		t.Fatalf("%d idle buffers after V − V, want the one scratch", len(idle))
	}
	tmp = a.Scale(2) // takes the idle buffer
	if first(tmp) != buf {
		t.Fatal("the idle buffer was not taken")
	}
	if tmp.Scale(0).Data().Format() != matrix.CSR || len(c.Idle()) != 1 {
		t.Fatalf("scale by zero: %d idle buffers, want 1", len(c.Idle()))
	}
	// A CSR temporary has no buffer to give.
	sp := New(c, matrix.RandSparse(rng, 30, 30, 0.1), 0, 0).Scale(2)
	sp.Transpose()
	if len(c.Idle()) != 1 {
		t.Fatalf("a CSR temporary changed the free list: %d idle", len(c.Idle()))
	}
	requireConsumed(t, "a consumed CSR temporary", func() { sp.Sum() })
}

// TestOwnershipUndetectedCorruptionLeavesTheCleanBufferBehind: with
// verification off, a corruption landing on an operator's payload swaps a
// damaged copy in; the clean cells the kernel wrote — in place, over a
// temporary — are not the result's any more and are recycled.
func TestOwnershipUndetectedCorruptionLeavesTheCleanBufferBehind(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(43))
	// Distributed operands: the element-wise pass shuffles, so the payload
	// is in flight and the flip lands.
	am, bm := matrix.RandDense(rng, 60, 50), matrix.RandDense(rng, 60, 50)
	a, b := New(c, am, 50_000_000, 8000), New(c, bm, 50_000_000, 8000)
	tmp := a.Scale(2)
	buf := first(tmp)
	c.pending = append(c.pending, fault.Event{Kind: fault.Corruption, Bits: 0x1234567})
	out := tmp.Add(b)
	if c.Cluster.Stats().CorruptionsInjected != 1 {
		t.Fatal("the corruption did not land on this operator's payload")
	}
	clean := am.Scale(2).Add(bm)
	if first(out) == buf || out.Data().Equal(clean) {
		t.Fatal("the damaged copy was not swapped in")
	}
	idle := c.Idle()
	if len(idle) != 1 || &idle[0][0] != buf {
		t.Fatalf("%d idle buffers, want the clean one", len(idle))
	}
	requireCells(t, "the recycled buffer", matrix.NewDenseData(60, 50, idle[0]), cellsOf(clean))
}

// TestOwnershipConsumedTemporaryPanics: a consumed temporary is empty, and
// every way of using it says so instead of reading cells that belong to
// another value by now.
func TestOwnershipConsumedTemporaryPanics(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(44))
	a := New(c, matrix.RandDense(rng, 20, 20), 0, 0)
	dead := a.Scale(2)
	live := dead.AddScalar(1)
	for what, use := range map[string]func(){
		"Data":       func() { dead.Data() },
		"Scale":      func() { dead.Scale(2) },
		"AddScalar":  func() { dead.AddScalar(2) },
		"Transpose":  func() { dead.Transpose() },
		"fused":      func() { dead.TransposeFused() },
		"Sum":        func() { dead.Sum() },
		"Mul left":   func() { dead.Mul(a) },
		"Mul right":  func() { a.Mul(dead) },
		"Add right":  func() { a.Add(dead) },
		"GuardValue": func() { dead.GuardValue("x") },
	} {
		requireConsumed(t, what, use)
	}
	requireCells(t, "the value that consumed it", live.Data(), cellsOf(a.Data().Scale(2).AddScalar(1)))
}

// TestOwnershipRetireRecyclesOnlyWhatTheRunMadeAndOnlyNamesHeld: a temporary
// that was given a name comes back when the name lets go; an input, a cache
// hit, anything a cache retained before or after it was named, and anything
// handed to the source, never do.
func TestOwnershipRetireRecyclesOnlyWhatTheRunMadeAndOnlyNamesHeld(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(45))
	am := matrix.RandDense(rng, 30, 30)
	a := New(c, am, 0, 0)

	made := a.Scale(2).Pin()
	buf := first(made)
	next := made.Scale(3) // a named value is not a temporary: not overwritten
	if first(next) == buf {
		t.Fatal("a named value was overwritten in place")
	}
	if got := made.Retire(); len(got) == 0 || &got[0] != buf {
		t.Fatal("a named temporary was not retired")
	}
	if idle := c.Idle(); len(idle) != 1 || &idle[0][0] != buf {
		t.Fatalf("%d idle buffers after a retirement, want the value's one", len(idle))
	}
	requireConsumed(t, "a retired value", func() { made.Data() })
	if made.Retire() != nil || len(c.Idle()) != 1 {
		t.Fatal("a value retired twice")
	}

	published := func(v *DistMatrix) *DistMatrix {
		v.Publish()
		return v
	}
	for what, v := range map[string]*DistMatrix{
		"an input or cache hit":            New(c, matrix.RandDense(rng, 30, 30), 0, 0).Pin(),
		"a named value, handed out":        published(a.Scale(2).Pin()),
		"a cached value, named later":      a.Scale(2).Retain().Pin(),
		"a named value, cached later":      a.Scale(2).Pin().Retain(),
		"a temporary that was never named": a.Scale(2),
	} {
		cells := cellsOf(v.Data())
		idle := len(c.Idle())
		if v.Retire() != nil || len(c.Idle()) != idle {
			t.Errorf("%s was retired", what)
		}
		poisonIdle(c)
		requireCells(t, what, v.Data(), cells)
	}

	// A CSR value has no buffer to give, but is as dead.
	sp := New(c, matrix.RandSparse(rng, 30, 30, 0.1), 0, 0).Scale(2).Pin()
	idle := len(c.Idle())
	if sp.Retire() != nil || len(c.Idle()) != idle {
		t.Fatal("a CSR value changed the free list")
	}
	requireConsumed(t, "a retired CSR value", func() { sp.Sum() })
}

// TestOwnershipRetireIgnoresRecoveryState: a checkpoint and coded parity say
// how a value's lost blocks are rebuilt when it is next used. Nothing uses a
// retired value, and neither holds its buffer: it is retired like any other.
func TestOwnershipRetireIgnoresRecoveryState(t *testing.T) {
	c := codedCtx(4, 6)
	rng := rand.New(rand.NewSource(46))
	a := New(c, matrix.RandDense(rng, 64, 50), 50_000_000, 8000) // distributed
	v := a.Scale(2)
	if v.parity == nil {
		t.Fatal("setup: the value carries no parity")
	}
	v.Checkpoint()
	v.Pin()
	buf := first(v)
	if !v.Checkpointed() {
		t.Fatal("setup: not checkpointed")
	}
	if got := v.Retire(); len(got) == 0 || &got[0] != buf {
		t.Fatal("a checkpointed, parity-carrying named temporary was not retired")
	}
	if len(c.Idle()) != 1 {
		t.Fatalf("%d idle buffers, want the value's one", len(c.Idle()))
	}
}

// TestOwnershipHandOverServesLaterRunsAndEmptiesTheFreeList: what is idle
// when a run ends is what a later context's first destination of that size
// is, once; small buffers are not kept, and the ended context keeps nothing.
func TestOwnershipHandOverServesLaterRunsAndEmptiesTheFreeList(t *testing.T) {
	const n = 160 // n² ≥ handOverCells > n
	rng := rand.New(rand.NewSource(47))
	am := matrix.RandDense(rng, n, n)
	var got []float64
	// sync.Pool may drop what it is given (under -race it does, one time in
	// four), so a miss proves nothing and is tried again with a new buffer.
	for attempt := 0; attempt < 50 && got == nil; attempt++ {
		c := ctx()
		New(c, am, 0, 0).Scale(2).Sum() // consumed: its buffer is idle
		New(c, matrix.RandVector(rng, n), 0, 0).Scale(2).Sum()
		if len(c.Idle()) != 2 {
			t.Fatalf("setup: %d idle buffers, want an n×n one and a vector", len(c.Idle()))
		}
		c.HandOver()
		if len(c.Idle()) != 0 {
			t.Fatal("the free list outlived the run")
		}
		later := ctx()
		if got = later.dest(n * n); got == nil {
			continue
		}
		if len(got) != n*n {
			t.Fatalf("asked for %d cells, received %d", n*n, len(got))
		}
		if sameBuffer(later.dest(n*n), got) {
			t.Fatal("a buffer was handed over twice")
		}
		if later.dest(n) != nil {
			t.Fatal("a vector-sized buffer was kept past its run")
		}
	}
	if got == nil {
		t.Fatal("no later context ever received a handed-over buffer")
	}
	// The receiving run copes with whatever the buffer holds.
	for i := range got {
		got[i] = math.NaN()
	}
	later := ctx()
	later.free = map[int][][]float64{n * n: {got}}
	b := New(later, am, 0, 0)
	prod := b.Mul(b)
	if first(prod) != &got[0] {
		t.Fatal("the product was not built on the received buffer")
	}
	requireCells(t, "a product on a received buffer", prod.Data(), cellsOf(am.Mul(am)))
}
