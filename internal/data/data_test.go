package data

import (
	"math"
	"testing"

	"remac/internal/matrix"
)

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("Table 2 has %d rows, want 6", len(rows))
	}
	want := map[string][3]float64{ // rows, cols, sparsity
		"cri1": {116_800_000, 47, 0.6},
		"cri2": {58_400_000, 8_700, 4.5e-3},
		"cri3": {58_400_000, 15_000, 2.6e-3},
		"red1": {120_000_000, 34, 0.51},
		"red2": {104_500_000, 5_000, 3.9e-3},
		"red3": {104_500_000, 20_000, 9.6e-4},
	}
	for _, r := range rows {
		w, ok := want[r.Dataset]
		if !ok {
			t.Errorf("unexpected dataset %q", r.Dataset)
			continue
		}
		if float64(r.Rows) != w[0] || float64(r.Cols) != w[1] || r.Sparsity != w[2] {
			t.Errorf("%s: got (%d, %d, %g), want %v", r.Dataset, r.Rows, r.Cols, r.Sparsity, w)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad("cri2")
	b := MustLoad("cri2")
	if !a.A.Equal(b.A) {
		t.Fatal("dataset generation not deterministic")
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSparsityNearNominal(t *testing.T) {
	for _, name := range Names {
		ds := MustLoad(name)
		got := ds.A.Sparsity()
		if rel := math.Abs(got-ds.Sparsity) / ds.Sparsity; rel > 0.25 {
			t.Errorf("%s: materialized sparsity %g vs nominal %g", name, got, ds.Sparsity)
		}
	}
}

func TestDenseClassMatchesTable(t *testing.T) {
	for _, name := range Names {
		ds := MustLoad(name)
		if ds.Dense != (ds.Sparsity > matrix.DenseThreshold) {
			t.Errorf("%s: Dense flag inconsistent", name)
		}
		if ds.Dense && ds.A.Format() != matrix.Dense {
			t.Errorf("%s should be dense-formatted", name)
		}
		if !ds.Dense && ds.A.Format() != matrix.CSR {
			t.Errorf("%s should be CSR", name)
		}
	}
}

func TestZipfSeriesIncreasinglySkewed(t *testing.T) {
	prevTop := 0.0
	for _, name := range ZipfNames {
		ds := MustLoad(name)
		counts := *matrix.NNZCounts(ds.A, func(row, _ []int) *[]int {
			return &row
		})
		counts = append([]int(nil), counts...)
		// Fraction of nonzeros in the top 5% of rows.
		sortDesc(counts)
		top := 0
		for i := 0; i < len(counts)/20; i++ {
			top += counts[i]
		}
		frac := float64(top) / float64(ds.A.NNZ())
		if frac+0.02 < prevTop {
			t.Errorf("%s: skew fraction %.3f decreased from previous %.3f", name, frac, prevTop)
		}
		prevTop = frac
	}
	// Per-row quotas are capped at cols/10, so the row-axis concentration
	// tops out slightly below the paper's joint row+column 95% figure.
	if prevTop < 0.85 {
		t.Errorf("zipf-2.8 top-5%% rows hold %.2f of nonzeros, want > 0.85", prevTop)
	}
}

func sortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func TestDerivedInputs(t *testing.T) {
	ds := MustLoad("cri1")
	if ds.Label().Rows() != ds.A.Rows() || ds.Label().Cols() != 1 {
		t.Error("label shape wrong")
	}
	if ds.InitialX().Rows() != ds.A.Cols() {
		t.Error("x0 shape wrong")
	}
	h := ds.InitialH()
	if h.Rows() != ds.A.Cols() || !h.IsSymmetric(0) {
		t.Error("H0 must be a symmetric cols×cols matrix")
	}
	w, hf := ds.GNMFFactors(8)
	if w.Rows() != ds.A.Rows() || w.Cols() != 8 || hf.Rows() != 8 || hf.Cols() != ds.A.Cols() {
		t.Error("GNMF factor shapes wrong")
	}
	// Non-negative factors.
	w.ForEachNonzero(func(_, _ int, v float64) {
		if v < 0 {
			t.Error("W0 has negative entries")
		}
	})
}

func TestZipfKeepsCri2Shape(t *testing.T) {
	z := MustLoad("zipf-1.4")
	c := MustLoad("cri2")
	if z.VRows != c.VRows || z.VCols != c.VCols || z.Sparsity != c.Sparsity {
		t.Fatal("zipf datasets must mirror cri2's shape and sparsity (§6.5)")
	}
}
