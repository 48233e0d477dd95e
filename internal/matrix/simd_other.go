//go:build !amd64

package matrix

// Off amd64 there are no vector loops: the Go loops run every cell, and the
// declarations below only keep their callers compiling.

const vectorLoops = false

func dfpTailAVX2(out, h, xv, yv []float64, xc, xs, yc, ys float64) (inner, nnz int) {
	panic("matrix: no vector loops")
}

func bfgsTailAVX2(out, h, xv, yv []float64, xc, xs1, xs2, ys float64) (inner, nnz int) {
	panic("matrix: no vector loops")
}

func addTermsAVX2(out, av, bv []float64, ac, bc float64) (nnz int) {
	panic("matrix: no vector loops")
}

func mulRowAVX2(o, a []float64, nz []int32, b []float64, stride int) {
	panic("matrix: no vector loops")
}

func mulRowPairAVX2(o0, o1, a0, a1, b []float64, stride int) {
	panic("matrix: no vector loops")
}

func mulMatVecAVX2(o, a, x []float64) {
	panic("matrix: no vector loops")
}
