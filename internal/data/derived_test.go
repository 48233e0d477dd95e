package data

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"remac/internal/matrix"
)

// The per-cell At/Set loops the generators used before they became one pass
// over a slice, kept as the reference for draw order and values.

func setLoopDenseWithSparsity(rng *rand.Rand, rows, cols int, s float64) *matrix.Matrix {
	m := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < s {
				m.Set(i, j, 2*rng.Float64()-1)
			}
		}
	}
	return m
}

func setLoopAbsAll(m *matrix.Matrix) *matrix.Matrix {
	out := m.Clone()
	for i := 0; i < out.Rows(); i++ {
		for j := 0; j < out.Cols(); j++ {
			if v := out.At(i, j); v < 0 {
				out.Set(i, j, -v)
			}
		}
	}
	return out
}

func requireSameCells(t *testing.T, what string, got, want *matrix.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.Format() != want.Format() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	for i := 0; i < want.Rows(); i++ {
		g, w := got.DenseRow(i), want.DenseRow(i)
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, i, j, g[j], w[j])
			}
		}
	}
}

func TestGeneratorsMatchTheSetLoops(t *testing.T) {
	for _, name := range []string{"cri1", "red1"} {
		spec := Specs[name]
		got := Generate(spec).A
		want := setLoopDenseWithSparsity(rand.New(rand.NewSource(seedFor(name))), spec.ScaleRows, int(spec.VCols), spec.Sparsity)
		requireSameCells(t, name+" design matrix", got, want)
	}
	ds := MustLoad("red2")
	for _, k := range []int{1, 10} {
		w, h := ds.GNMFFactors(k)
		rng := rand.New(rand.NewSource(seedFor(ds.Name + "/gnmf")))
		wantW := setLoopAbsAll(matrix.RandDense(rng, ds.A.Rows(), k))
		wantH := setLoopAbsAll(matrix.RandDense(rng, k, ds.A.Cols()))
		requireSameCells(t, "W0", w, wantW)
		requireSameCells(t, "H0", h, wantH)
	}
}

// TestDerivedInputsAreBuiltOnce asks for every derived input from several
// goroutines at once (run under -race) and checks that each is one shared
// value with the cells a fresh dataset derives.
func TestDerivedInputsAreBuiltOnce(t *testing.T) {
	ds, fresh := MustLoad("cri2"), MustLoad("cri2")
	type inputs struct{ b, x0, h0, w, h, w3 *matrix.Matrix }
	got := make([]inputs, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(in *inputs) {
			defer wg.Done()
			in.b, in.x0, in.h0 = ds.Label(), ds.InitialX(), ds.InitialH()
			in.w, in.h = ds.GNMFFactors(10)
			in.w3, _ = ds.GNMFFactors(3)
		}(&got[g])
	}
	wg.Wait()
	for _, in := range got[1:] {
		if in != got[0] {
			t.Fatalf("derived inputs differ between callers: %+v vs %+v", in, got[0])
		}
	}
	if got[0].w == got[0].w3 || got[0].w3.Cols() != 3 {
		t.Fatal("GNMF factors of different ranks must be distinct values")
	}
	fw, fh := fresh.GNMFFactors(10)
	requireSameCells(t, "b", got[0].b, fresh.Label())
	requireSameCells(t, "x0", got[0].x0, fresh.InitialX())
	requireSameCells(t, "H0", got[0].h0, matrix.Identity(ds.A.Cols()))
	requireSameCells(t, "W0", got[0].w, fw)
	requireSameCells(t, "gnmf H0", got[0].h, fh)
}
