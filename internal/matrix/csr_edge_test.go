// External test package: the digest-stability cases import
// internal/integrity, which imports matrix — an in-package test would cycle.
package matrix_test

import (
	"math"
	"testing"

	"remac/internal/integrity"
	"remac/internal/matrix"
)

// TestZeroDimensionConstructionPanics pins the shape contract: 0×n and n×0
// matrices are rejected at construction, in both formats, so downstream
// kernels never see an empty axis.
func TestZeroDimensionConstructionPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"dense 0xN", func() { matrix.NewDense(0, 5) }},
		{"dense Nx0", func() { matrix.NewDense(5, 0) }},
		{"dense 0x0", func() { matrix.NewDense(0, 0) }},
		{"csr 0xN", func() { matrix.NewCSR(0, 5, []int{0}, nil, nil) }},
		{"csr Nx0", func() { matrix.NewCSR(5, 0, []int{0, 0, 0, 0, 0, 0}, nil, nil) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: construction must panic", c.name)
				}
			}()
			c.f()
		})
	}
}

// TestCSRAllEmptyRows exercises a CSR matrix with zero stored entries: every
// accessor must behave as an all-zero matrix and conversions must round-trip.
func TestCSRAllEmptyRows(t *testing.T) {
	m := matrix.NewCSR(3, 4, []int{0, 0, 0, 0}, nil, nil)
	if got := m.NNZ(); got != 0 {
		t.Fatalf("NNZ = %d, want 0", got)
	}
	if got := m.Sparsity(); got != 0 {
		t.Fatalf("Sparsity = %g, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if got := m.StoredBefore(i + 1); got != 0 {
			t.Fatalf("StoredBefore(%d) = %d, want 0", i+1, got)
		}
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) != 0", i, j)
			}
		}
	}
	m.ForEachNonzero(func(i, j int, v float64) {
		t.Fatalf("ForEachNonzero visited (%d,%d)=%g on an empty matrix", i, j, v)
	})
	d := m.ToDense()
	if !d.Equal(matrix.NewDense(3, 4)) {
		t.Fatal("empty CSR does not convert to the zero dense matrix")
	}
	if !d.ToCSR().Equal(m) {
		t.Fatal("empty CSR does not survive a dense round-trip")
	}
	if _, ok := m.FlipValueBit(0, 62); ok {
		t.Fatal("FlipValueBit reported success on an empty matrix")
	}
}

// TestCompactFormatBoundary pins the 0.4 sparsity format switch: Compact
// stays CSR at the threshold and goes dense strictly above it.
func TestCompactFormatBoundary(t *testing.T) {
	// 10×10 with 40 nonzeros is exactly DenseThreshold sparsity; 41 crosses it.
	build := func(nnz int) *matrix.Matrix {
		m := matrix.NewDense(10, 10)
		for k := 0; k < nnz; k++ {
			m.Set(k/10, k%10, float64(k+1))
		}
		return m
	}
	if got := build(40).Compact().Format(); got != matrix.CSR {
		t.Fatalf("Compact at sparsity %g = %v, want CSR (threshold is exclusive)", 0.40, got)
	}
	if got := build(41).Compact().Format(); got != matrix.Dense {
		t.Fatalf("Compact at sparsity %g = %v, want Dense", 0.41, got)
	}
}

// TestDigestFormatIndependence asserts the integrity digest sees values, not
// storage: the same logical matrix digests identically in dense and CSR form,
// and a CSR matrix carrying an explicit stored zero digests like one without.
func TestDigestFormatIndependence(t *testing.T) {
	d := matrix.NewDense(3, 5)
	d.Set(0, 1, 2.5)
	d.Set(1, 4, -7)
	d.Set(2, 0, 1e-300)
	c := d.ToCSR()
	if hd, hc := integrity.Digest(d), integrity.Digest(c); hd != hc {
		t.Fatalf("Digest(dense)=%x != Digest(csr)=%x for equal values", hd, hc)
	}
	// Explicit stored zero: same logical values, extra CSR entry.
	z := matrix.NewCSR(3, 5,
		[]int{0, 2, 3, 4},
		[]int{1, 3, 4, 0},
		[]float64{2.5, 0, -7, 1e-300})
	if hz, hc := integrity.Digest(z), integrity.Digest(c); hz != hc {
		t.Fatalf("Digest ignores storage: explicit zero changed %x -> %x", hc, hz)
	}
	// Different shape, same value list, must differ.
	d2 := matrix.NewDense(5, 3)
	d2.Set(1, 0, 2.5)
	d2.Set(4, 1, -7)
	d2.Set(0, 2, 1e-300)
	if integrity.Digest(d2) == integrity.Digest(d) {
		t.Fatal("Digest collides across shapes")
	}
}

// TestFlipValueBit pins the corruption primitive: the flip lands on a stored
// nonzero, changes exactly that value's bits, and never mutates the receiver.
func TestFlipValueBit(t *testing.T) {
	for _, format := range []string{"dense", "csr"} {
		m := matrix.NewDense(2, 3)
		m.Set(0, 0, 1)
		m.Set(1, 2, 4)
		if format == "csr" {
			m = m.ToCSR()
		}
		orig := m.Clone()
		got, ok := m.FlipValueBit(7, 62) // 7 % 2 nonzeros = index 1
		if !ok {
			t.Fatalf("%s: flip failed", format)
		}
		if !m.Equal(orig) {
			t.Fatalf("%s: FlipValueBit mutated the receiver", format)
		}
		if got.At(0, 0) != 1 {
			t.Fatalf("%s: flip damaged the wrong value", format)
		}
		want := math.Float64frombits(math.Float64bits(4) ^ (1 << 62))
		if got.At(1, 2) != want {
			t.Fatalf("%s: At(1,2) = %g, want %g", format, got.At(1, 2), want)
		}
		if integrity.Digest(got) == integrity.Digest(orig) {
			t.Fatalf("%s: digest unchanged by flip", format)
		}
	}
}
