package distmat

import (
	"math"
	"math/rand"
	"testing"

	"remac/internal/cluster"
	"remac/internal/matrix"
	"remac/internal/trace"
)

func tracedCtx() *Context {
	c := ctx()
	c.Recorder = trace.New()
	return c
}

// TestSumChargesThroughBreakdown checks the Sum bugfix: the charge routes
// through a cost.Breakdown and apply, so the trace sees it and its collect
// bytes match the cluster's.
func TestSumChargesThroughBreakdown(t *testing.T) {
	c := tracedCtx()
	rng := rand.New(rand.NewSource(20))
	a := scaledDataset(c, rng)
	c.Cluster.Reset()
	c.Recorder = trace.New()
	a.Sum()

	spans := c.Recorder.Spans()
	if len(spans) != 1 || spans[0].Kind != "sum" {
		t.Fatalf("Sum must emit exactly one sum span, got %+v", spans)
	}
	s := c.Cluster.Stats()
	if s.Ops != 1 {
		t.Fatalf("Ops = %d, want 1", s.Ops)
	}
	sp := spans[0]
	if sp.ComputeSec != s.ComputeTime || sp.TransmitSec != s.TransmitTime {
		t.Errorf("span seconds %g/%g != stats %g/%g", sp.ComputeSec, sp.TransmitSec, s.ComputeTime, s.TransmitTime)
	}
	collect := s.BytesFor(cluster.Collect)
	if collect <= 0 {
		t.Fatal("distributed Sum should collect partials")
	}
	if sp.Bytes["collect"] != collect {
		t.Errorf("span collect bytes %g != stats %g", sp.Bytes["collect"], collect)
	}
	if sp.Out == nil || sp.Out.Rows != 1 || sp.Out.Cols != 1 {
		t.Errorf("sum output shape wrong: %+v", sp.Out)
	}
}

// TestSelfSubtractionCancels checks the aliased-ewise bugfix: V − V yields
// empty output sparsity instead of the union estimate.
func TestSelfSubtractionCancels(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(21))
	v := scaledDataset(c, rng)

	diff := v.Sub(v)
	if diff.Meta().Sparsity != 0 {
		t.Fatalf("V - V sparsity = %g, want 0", diff.Meta().Sparsity)
	}
	if nnz := diff.Data().NNZ(); nnz != 0 {
		t.Fatalf("kernel result has %d nonzeros", nnz)
	}

	// Distinct operands with the same values must keep the union estimate —
	// the estimator cannot prove cancellation there.
	w := Read(c, v.Data().Clone(), 50_000_000, 8000)
	diff2 := v.Sub(w)
	if diff2.Meta().Sparsity < v.Meta().Sparsity {
		t.Errorf("distinct-operand Sub sparsity %g dropped below operand %g",
			diff2.Meta().Sparsity, v.Meta().Sparsity)
	}
}

// TestSelfMulKeepsSparsity guards the aliased fast path the self-sub fix
// shares: V ⊙ V keeps the operand's sparsity.
func TestSelfMulKeepsSparsity(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(22))
	v := scaledDataset(c, rng)
	if got := v.ElemMul(v).Meta().Sparsity; got != v.Meta().Sparsity {
		t.Fatalf("V*V sparsity = %g, want %g", got, v.Meta().Sparsity)
	}
}

// TestAddScalarPricesDensifiedOutput checks the AddScalar bugfix: the pass
// is priced on the densified result, not the sparse input.
func TestAddScalarPricesDensifiedOutput(t *testing.T) {
	c := tracedCtx()
	rng := rand.New(rand.NewSource(23))
	m := matrix.RandSparse(rng, 100, 100, 0.01)
	d := New(c, m, 0, 0)
	if !d.Local() {
		t.Fatal("test expects a local input")
	}
	out := d.AddScalar(1)
	if out.Meta().Sparsity != 1 {
		t.Fatalf("scalar addition must densify, got sparsity %g", out.Meta().Sparsity)
	}
	spans := c.Recorder.Spans()
	if len(spans) != 1 || spans[0].Kind != "add-scalar" {
		t.Fatalf("AddScalar must emit one span, got %+v", spans)
	}
	if want := 100.0 * 100.0; spans[0].FLOP != want {
		t.Fatalf("AddScalar FLOP = %g, want %g (rows*cols of the densified output)", spans[0].FLOP, want)
	}
}

// TestSpanTotalsMatchClusterStats is the stats-equals-spans invariant at
// the operator level: a mixed sequence of charged operators leaves the
// recorder and the cluster in exact agreement.
func TestSpanTotalsMatchClusterStats(t *testing.T) {
	c := tracedCtx()
	rng := rand.New(rand.NewSource(24))
	a := scaledDataset(c, rng)
	h := New(c, matrix.RandDense(rng, 200, 200), 8000, 8000)
	x := New(c, matrix.RandDense(rng, 200, 1), 8000, 1)

	ax := a.Mul(x)
	g := a.Transpose().Mul(ax)
	g = g.Scale(0.5).Add(h.Mul(x)).Retain()
	g.AddScalar(1)
	g.Sum()

	sum := c.Recorder.Summary()
	s := c.Cluster.Stats()
	if sum.Ops != s.Ops {
		t.Fatalf("span ops %d != cluster ops %d", sum.Ops, s.Ops)
	}
	const tol = 1e-9
	if math.Abs(sum.ComputeSec-s.ComputeTime) > tol {
		t.Errorf("compute: spans %g vs stats %g", sum.ComputeSec, s.ComputeTime)
	}
	if math.Abs(sum.TransmitSec-s.TransmitTime) > tol {
		t.Errorf("transmit: spans %g vs stats %g", sum.TransmitSec, s.TransmitTime)
	}
	if math.Abs(sum.FLOP-s.FLOP) > tol {
		t.Errorf("flop: spans %g vs stats %g", sum.FLOP, s.FLOP)
	}
	for _, p := range cluster.Primitives {
		if math.Abs(sum.Bytes[p.String()]-s.BytesFor(p)) > tol {
			t.Errorf("%v bytes: spans %g vs stats %g", p, sum.Bytes[p.String()], s.BytesFor(p))
		}
	}
}

// TestUntracedContextStillCharges checks that a nil recorder (the engine's
// untraced path) does not disturb accounting.
func TestUntracedContextStillCharges(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(25))
	a := scaledDataset(c, rng)
	a.Sum()
	if c.Cluster.Stats().Ops < 2 {
		t.Fatal("charges must still reach the cluster without a recorder")
	}
}
