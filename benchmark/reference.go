package main

import (
	"fmt"
	"math"

	"remac/internal/algorithms"
	"remac/internal/engine"
	"remac/internal/matrix"
)

// The reference implementations below are the benchmark's own statement of
// what GD, DFP, BFGS and GNMF compute. They work on plain slices in
// matrix-vector order and call none of the program's kernels, so a wrong
// kernel, plan or cache cannot make the reference wrong in the same way.

// defaultAlpha is the step size the built-in scripts use.
const defaultAlpha = 0.0001

// relTol is the agreement required between the program and the reference,
// relative to the largest reference magnitude.
const relTol = 1e-6

// coo is a matrix as coordinate triplets.
type coo struct {
	rows, cols int
	i, j       []int
	v          []float64
}

func cooOf(m *matrix.Matrix) coo {
	a := coo{rows: m.Rows(), cols: m.Cols()}
	m.ForEachNonzero(func(i, j int, v float64) {
		a.i = append(a.i, i)
		a.j = append(a.j, j)
		a.v = append(a.v, v)
	})
	return a
}

// mulVec returns A·x.
func (a coo) mulVec(x []float64) []float64 {
	y := make([]float64, a.rows)
	for k, v := range a.v {
		y[a.i[k]] += v * x[a.j[k]]
	}
	return y
}

// tMulVec returns Aᵀ·y.
func (a coo) tMulVec(y []float64) []float64 {
	x := make([]float64, a.cols)
	for k, v := range a.v {
		x[a.j[k]] += v * y[a.i[k]]
	}
	return x
}

// flat copies a matrix into a row-major slice.
func flat(m *matrix.Matrix) []float64 {
	out := make([]float64, m.Rows()*m.Cols())
	m.ForEachNonzero(func(i, j int, v float64) { out[i*m.Cols()+j] = v })
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// axpy returns x + s·y.
func axpy(x []float64, s float64, y []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + s*y[i]
	}
	return out
}

// denseMulVec returns H·x for a row-major n×n H; denseTMulVec returns Hᵀ·x.
func denseMulVec(h []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = dot(h[i*n:(i+1)*n], x)
	}
	return y
}

func denseTMulVec(h []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j, v := range h[i*n : (i+1)*n] {
			y[j] += v * x[i]
		}
	}
	return y
}

// gradient returns Aᵀ(Ax − b).
func gradient(a coo, b, x []float64) []float64 { return a.tMulVec(sub(a.mulVec(x), b)) }

func refGD(a coo, b, x []float64, alpha float64, iters int) []float64 {
	atb := a.tMulVec(b)
	for it := 0; it < iters; it++ {
		g := sub(a.tMulVec(a.mulVec(x)), atb)
		x = axpy(x, -alpha, g)
	}
	return x
}

func refDFP(a coo, b, h, x []float64, alpha float64, iters int) []float64 {
	n := a.cols
	h = append([]float64(nil), h...)
	for it := 0; it < iters; it++ {
		d := denseMulVec(h, n, gradient(a, b, x))
		u := a.tMulVec(a.mulVec(d)) // AᵀA·d
		hu := denseMulVec(h, n, u)  // H·AᵀA·d
		uh := denseTMulVec(h, n, u) // (dᵀAᵀA·H)ᵀ
		den1 := dot(u, hu)
		den2 := 2 * dot(d, u)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				h[i*n+j] += -hu[i]*uh[j]/den1 + d[i]*d[j]/den2
			}
		}
		x = axpy(x, -alpha, d)
	}
	return x
}

func refBFGS(a coo, b, h, x []float64, alpha float64, iters int) []float64 {
	n := a.cols
	h = append([]float64(nil), h...)
	for it := 0; it < iters; it++ {
		g := gradient(a, b, x)
		hg := denseMulVec(h, n, g)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0 - alpha*hg[i]
		}
		x = axpy(x, 1, s)
		y := sub(gradient(a, b, x), g)
		sy := dot(s, y)
		hy := denseMulVec(h, n, y)
		yh := denseTMulVec(h, n, y)
		c := (sy + dot(y, hy)) / (sy * sy)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				h[i*n+j] += c*s[i]*s[j] - (hy[i]*s[j]+s[i]*yh[j])/sy
			}
		}
	}
	return x
}

// refGNMF returns the factors W (m×k) and H (k×n), row-major, after the
// multiplicative updates of the built-in script.
func refGNMF(v coo, w, h []float64, k, iters int) ([]float64, []float64) {
	m, n := v.rows, v.cols
	w = append([]float64(nil), w...)
	h = append([]float64(nil), h...)
	for it := 0; it < iters; it++ {
		wtv := make([]float64, k*n) // WᵀV
		for e, val := range v.v {
			for r := 0; r < k; r++ {
				wtv[r*n+v.j[e]] += w[v.i[e]*k+r] * val
			}
		}
		wtw := make([]float64, k*k) // WᵀW
		for i := 0; i < m; i++ {
			for r := 0; r < k; r++ {
				for s := 0; s < k; s++ {
					wtw[r*k+s] += w[i*k+r] * w[i*k+s]
				}
			}
		}
		for r := 0; r < k; r++ { // H = H * WᵀV / (WᵀW·H), from the old H
			for j := 0; j < n; j++ {
				den := 0.0
				for s := 0; s < k; s++ {
					den += wtw[r*k+s] * h[s*n+j]
				}
				wtv[r*n+j] = h[r*n+j] * wtv[r*n+j] / den
			}
		}
		h = wtv
		vht := make([]float64, m*k) // V·Hᵀ
		for e, val := range v.v {
			for r := 0; r < k; r++ {
				vht[v.i[e]*k+r] += val * h[r*n+v.j[e]]
			}
		}
		hht := make([]float64, k*k) // H·Hᵀ
		for r := 0; r < k; r++ {
			for s := 0; s < k; s++ {
				hht[r*k+s] = dot(h[r*n:(r+1)*n], h[s*n:(s+1)*n])
			}
		}
		for i := 0; i < m; i++ { // W = W * V·Hᵀ / (W·H·Hᵀ)
			row := make([]float64, k)
			for r := 0; r < k; r++ {
				den := 0.0
				for s := 0; s < k; s++ {
					den += w[i*k+s] * hht[s*k+r]
				}
				row[r] = w[i*k+r] * vht[i*k+r] / den
			}
			copy(w[i*k:(i+1)*k], row)
		}
	}
	return w, h
}

// reference computes the checked result variables of one query from its
// bound inputs.
func reference(alg algorithms.Name, in map[string]engine.Input, alpha float64, iters int) (map[string][]float64, error) {
	switch alg {
	case algorithms.GNMF:
		w, h := refGNMF(cooOf(in["V"].Data), flat(in["W0"].Data), flat(in["H0"].Data), in["W0"].Data.Cols(), iters)
		return map[string][]float64{"W": w, "H": h}, nil
	case algorithms.GD:
		return map[string][]float64{"x": refGD(cooOf(in["A"].Data), flat(in["b"].Data), flat(in["x0"].Data), alpha, iters)}, nil
	case algorithms.DFP:
		return map[string][]float64{"x": refDFP(cooOf(in["A"].Data), flat(in["b"].Data), flat(in["H0"].Data), flat(in["x0"].Data), alpha, iters)}, nil
	case algorithms.BFGS:
		return map[string][]float64{"x": refBFGS(cooOf(in["A"].Data), flat(in["b"].Data), flat(in["H0"].Data), flat(in["x0"].Data), alpha, iters)}, nil
	}
	return nil, fmt.Errorf("no reference for %q", alg)
}

// checkAnswer reports whether the program's values agree with the reference
// within relTol of the largest reference magnitude, for every checked
// variable.
func checkAnswer(ref map[string][]float64, got map[string]*matrix.Matrix) error {
	for name, want := range ref {
		m := got[name]
		if m == nil {
			return fmt.Errorf("result has no variable %q", name)
		}
		if m.Rows()*m.Cols() != len(want) {
			return fmt.Errorf("%s: %dx%d result against %d reference cells", name, m.Rows(), m.Cols(), len(want))
		}
		have := flat(m)
		scale, worst := 0.0, 0.0
		for i, w := range want {
			// GNMF on the sparse shapes divides 0 by 0 where a row of V is
			// empty (IEEE semantics, in the program and here alike): such a
			// cell must be NaN on both sides.
			if math.IsNaN(w) != math.IsNaN(have[i]) {
				return fmt.Errorf("%s: cell %d is %g, the reference has %g", name, i, have[i], w)
			}
			if math.IsNaN(w) {
				continue
			}
			scale = math.Max(scale, math.Abs(w))
			worst = math.Max(worst, math.Abs(have[i]-w))
		}
		if worst > relTol*scale {
			return fmt.Errorf("%s: differs from the reference by %.3g (largest reference magnitude %.3g)", name, worst, scale)
		}
	}
	return nil
}

// bitwiseEqual reports whether two matrices have the same shape and the same
// bit pattern in every cell (so NaN equals NaN, which Matrix.Equal does not
// decide).
func bitwiseEqual(a, b *matrix.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	fa, fb := flat(a), flat(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}
