package sparsity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"remac/internal/matrix"
)

func TestMetaOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := matrix.RandSparse(rng, 40, 30, 0.1)
	meta := MetaOf(m)
	if meta.Rows != 40 || meta.Cols != 30 {
		t.Fatalf("dims %dx%d", meta.Rows, meta.Cols)
	}
	if math.Abs(meta.Sparsity-m.Sparsity()) > 1e-12 {
		t.Fatal("sparsity mismatch")
	}
	if meta.RowCounts.Len() != 40 || meta.ColCounts.Len() != 30 {
		t.Fatal("count vectors missing")
	}
	if int(meta.NNZ()) != m.NNZ() {
		t.Fatalf("NNZ() = %g, want %d", meta.NNZ(), m.NNZ())
	}
}

func TestMetaValid(t *testing.T) {
	if err := MetaDims(10, 10, 0.5).Valid(); err != nil {
		t.Errorf("valid meta rejected: %v", err)
	}
	if err := (Meta{Rows: 0, Cols: 10, Sparsity: 0.5}).Valid(); err == nil {
		t.Error("zero rows accepted")
	}
	if err := (Meta{Rows: 10, Cols: 10, Sparsity: 1.5}).Valid(); err == nil {
		t.Error("sparsity > 1 accepted")
	}
}

func TestWithVirtualDims(t *testing.T) {
	m := MetaDims(10, 20, 0.3)
	v := m.WithVirtualDims(10000, 20000)
	if v.Rows != 10000 || v.Cols != 20000 || v.Sparsity != 0.3 {
		t.Fatalf("virtual redim wrong: %+v", v)
	}
}

func TestMetadataMulDense(t *testing.T) {
	// Dense × dense stays dense.
	a := MetaDims(100, 50, 1)
	b := MetaDims(50, 70, 1)
	out := Metadata{}.Mul(a, b)
	if out.Rows != 100 || out.Cols != 70 {
		t.Fatalf("dims %dx%d", out.Rows, out.Cols)
	}
	if out.Sparsity < 0.999 {
		t.Fatalf("dense·dense sparsity = %g", out.Sparsity)
	}
}

func TestMetadataMulVerySparse(t *testing.T) {
	a := MetaDims(1000, 1000, 1e-4)
	b := MetaDims(1000, 1000, 1e-4)
	out := Metadata{}.Mul(a, b)
	// ~ K·sA·sB = 1000·1e-8 = 1e-5.
	if out.Sparsity < 5e-6 || out.Sparsity > 2e-5 {
		t.Fatalf("sparse·sparse sparsity = %g, want ~1e-5", out.Sparsity)
	}
}

func TestMetadataMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Metadata{}.Mul(MetaDims(2, 3, 1), MetaDims(4, 5, 1))
}

func TestMetadataAddElemMul(t *testing.T) {
	a := MetaDims(10, 10, 0.2)
	b := MetaDims(10, 10, 0.3)
	add := Metadata{}.Add(a, b)
	want := 0.2 + 0.3 - 0.06
	if math.Abs(add.Sparsity-want) > 1e-12 {
		t.Errorf("Add sparsity = %g, want %g", add.Sparsity, want)
	}
	em := Metadata{}.ElemMul(a, b)
	if math.Abs(em.Sparsity-0.06) > 1e-12 {
		t.Errorf("ElemMul sparsity = %g, want 0.06", em.Sparsity)
	}
}

func TestTransposeSwapsDims(t *testing.T) {
	for _, e := range []Estimator{Metadata{}, MNC{}} {
		out := e.Transpose(MetaDims(3, 7, 0.5))
		if out.Rows != 7 || out.Cols != 3 {
			t.Errorf("%s: transpose dims %dx%d", e.Name(), out.Rows, out.Cols)
		}
	}
}

// estimateVsActual multiplies two materialized matrices and returns the
// estimated and actual output sparsities.
func estimateVsActual(t *testing.T, e Estimator, a, b *matrix.Matrix) (est, actual float64) {
	t.Helper()
	out := e.Mul(MetaOf(a), MetaOf(b))
	return out.Sparsity, a.Mul(b).Sparsity()
}

func TestMNCMatchesMDOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := matrix.RandSparse(rng, 300, 200, 0.05)
	b := matrix.RandSparse(rng, 200, 250, 0.05)
	mncEst, actual := estimateVsActual(t, MNC{}, a, b)
	mdEst, _ := estimateVsActual(t, Metadata{}, a, b)
	if relErr(mncEst, actual) > 0.2 {
		t.Errorf("MNC est %g vs actual %g on uniform data", mncEst, actual)
	}
	if relErr(mdEst, actual) > 0.2 {
		t.Errorf("MD est %g vs actual %g on uniform data", mdEst, actual)
	}
}

func TestMNCBeatsMDOnSkew(t *testing.T) {
	// On zipf-skewed data the uniform assumption overestimates fill-in
	// badly; the count-vector estimate must be closer. This asymmetry is
	// what drives the paper's DP-MD vs DP-MNC gap (Fig 10).
	rng := rand.New(rand.NewSource(3))
	a := matrix.ZipfSparse(rng, 300, 300, 0.02, 2.0)
	b := matrix.ZipfSparse(rng, 300, 300, 0.02, 2.0)
	mncEst, actual := estimateVsActual(t, MNC{}, a, b)
	mdEst, _ := estimateVsActual(t, Metadata{}, a, b)
	if relErr(mncEst, actual) >= relErr(mdEst, actual) {
		t.Errorf("MNC (%g) should beat MD (%g) against actual %g on skewed data", mncEst, mdEst, actual)
	}
}

func relErr(est, actual float64) float64 {
	if actual == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-actual) / actual
}

func TestMNCFallsBackWithoutCounts(t *testing.T) {
	a := MetaDims(100, 100, 0.1) // no count vectors
	b := MetaDims(100, 100, 0.1)
	mnc := MNC{}.Mul(a, b)
	md := Metadata{}.Mul(a, b)
	if mnc.Sparsity != md.Sparsity {
		t.Fatalf("MNC without sketches should equal MD: %g vs %g", mnc.Sparsity, md.Sparsity)
	}
}

func TestMNCPropagatesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.RandSparse(rng, 50, 40, 0.2)
	b := matrix.RandSparse(rng, 40, 30, 0.2)
	out := MNC{}.Mul(MetaOf(a), MetaOf(b))
	if out.RowCounts == nil || out.ColCounts == nil {
		t.Fatal("MNC must propagate count vectors for chained estimation")
	}
	if out.RowCounts.Len() != 50 || out.ColCounts.Len() != 30 {
		t.Fatalf("propagated vector lengths %d/%d", out.RowCounts.Len(), out.ColCounts.Len())
	}
}

func TestMNCAddDerivesFromCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := matrix.RandSparse(rng, 60, 60, 0.1)
	b := matrix.RandSparse(rng, 60, 60, 0.1)
	est := MNC{}.Add(MetaOf(a), MetaOf(b)).Sparsity
	actual := a.Add(b).Sparsity()
	if relErr(est, actual) > 0.15 {
		t.Fatalf("MNC Add est %g vs actual %g", est, actual)
	}
}

func TestPropEstimatesInUnitRange(t *testing.T) {
	ests := []Estimator{Metadata{}, MNC{}}
	f := func(seed int64, r1, c1, c2 uint8, s1, s2 float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, p := int(r1%20)+2, int(c1%20)+2, int(c2%20)+2
		sa, sb := math.Abs(s1), math.Abs(s2)
		for sa > 1 {
			sa /= 2
		}
		for sb > 1 {
			sb /= 2
		}
		a := matrix.RandSparse(rng, n, k, sa)
		b := matrix.RandSparse(rng, k, p, sb)
		for _, e := range ests {
			out := e.Mul(MetaOf(a), MetaOf(b))
			if out.Sparsity < 0 || out.Sparsity > 1 || math.IsNaN(out.Sparsity) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEstimatorNames(t *testing.T) {
	if (Metadata{}).Name() != "MD" || (MNC{}).Name() != "MNC" {
		t.Fatal("estimator names changed — experiment output depends on them")
	}
}
