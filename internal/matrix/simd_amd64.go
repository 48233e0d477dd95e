package matrix

// The AVX2 loops of simd_amd64.s: the update tails' (deferred.go) and the
// groups of four k of the row accumulates (mul.go). Each runs the first
// len(out)&^3 cells of its output row; the caller runs the rest with the Go
// loop, which stays the reference, and slices every operand to what the
// loop reads, so that an index out of range panics in Go before it is read.

// vectorLoops is whether the AVX2 loops may run: decided once, from CPUID —
// the processor has AVX2 (leaf 7, EBX bit 5) and AVX with OSXSAVE (leaf 1,
// ECX bits 28 and 27), and the operating system saves the XMM and YMM state
// (XCR0 bits 1 and 2).
var vectorLoops = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

//go:noescape
func dfpTailAVX2(out, h, xv, yv []float64, xc, xs, yc, ys float64) (inner, nnz int)

//go:noescape
func bfgsTailAVX2(out, h, xv, yv []float64, xc, xs1, xs2, ys float64) (inner, nnz int)

//go:noescape
func addTermsAVX2(out, av, bv []float64, ac, bc float64) (nnz int)

//go:noescape
func mulRowAVX2(o, a []float64, nz []int32, b []float64, stride int)

//go:noescape
func mulRowPairAVX2(o0, o1, a0, a1, b []float64, stride int)
