#include "textflag.h"

// AVX2 forms of the loops whose cells are independent along a row (see
// simd_amd64.go). Each runs the first len(out)&^3 cells, four to a YMM
// register, and applies to every lane the statements of its Go loop in their
// order: VMULPD, VADDPD and VSUBPD round a lane as MULSD, ADDSD and SUBSD
// round a scalar, no multiply-add is fused, and 0 + x·y keeps its addition
// of +0. A nonzero count adds the lanes VCMPPD marks NEQ_UQ against +0 —
// true for NaN and false for ±0, as Go's v != 0 — by subtracting the
// all-ones mask from a per-lane counter.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// SUMQ adds the four int64 lanes of Y into R, clobbering X7.
#define SUMQ(Y, X, R) \
	VEXTRACTI128 $1, Y, X7 \
	VPADDQ       X7, X, X  \
	VPSHUFD      $0x4e, X, X7 \
	VPADDQ       X7, X, X  \
	VMOVQ        X, R

// func dfpTailAVX2(out, h, xv, yv []float64, xc, xs, yc, ys float64) (inner, nnz int)
TEXT ·dfpTailAVX2(SB), NOSPLIT, $0-144
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         h_base+24(FP), SI
	MOVQ         xv_base+48(FP), R8
	MOVQ         yv_base+72(FP), R9
	VBROADCASTSD xc+96(FP), Y1
	VBROADCASTSD xs+104(FP), Y2
	VBROADCASTSD yc+112(FP), Y3
	VBROADCASTSD ys+120(FP), Y4
	VXORPD       Y0, Y0, Y0
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           dfpdone

dfploop:
	VMULPD  (R8)(AX*1), Y1, Y7 // xc·xv[j]
	VADDPD  Y0, Y7, Y7         // 0 + …
	VMULPD  Y2, Y7, Y7         // … ·xs
	VMOVUPD (SI)(AX*1), Y8
	VSUBPD  Y7, Y8, Y8         // v = h[j] − …
	VMULPD  (R9)(AX*1), Y3, Y9 // yc·yv[j]
	VADDPD  Y0, Y9, Y9
	VMULPD  Y4, Y9, Y9
	VADDPD  Y9, Y8, Y9         // w = v + …
	VMOVUPD Y9, (DI)(AX*1)
	VCMPPD  $4, Y0, Y8, Y10
	VPSUBQ  Y10, Y5, Y5
	VCMPPD  $4, Y0, Y9, Y11
	VPSUBQ  Y11, Y6, Y6
	ADDQ    $32, AX
	DECQ    CX
	JNZ     dfploop

dfpdone:
	SUMQ(Y5, X5, AX)
	SUMQ(Y6, X6, BX)
	MOVQ AX, inner+128(FP)
	MOVQ BX, nnz+136(FP)
	VZEROUPPER
	RET

// func bfgsTailAVX2(out, h, xv, yv []float64, xc, xs1, xs2, ys float64) (inner, nnz int)
TEXT ·bfgsTailAVX2(SB), NOSPLIT, $0-144
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         h_base+24(FP), SI
	MOVQ         xv_base+48(FP), R8
	MOVQ         yv_base+72(FP), R9
	VBROADCASTSD xc+96(FP), Y1
	VBROADCASTSD xs1+104(FP), Y2
	VBROADCASTSD xs2+112(FP), Y3
	VBROADCASTSD ys+120(FP), Y4
	VXORPD       Y0, Y0, Y0
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           bfgsdone

bfgsloop:
	VMULPD  (R8)(AX*1), Y1, Y7 // xc·xv[j]
	VADDPD  Y0, Y7, Y7         // 0 + …
	VMULPD  Y2, Y7, Y7         // … ·xs1
	VMULPD  Y3, Y7, Y7         // … ·xs2
	VADDPD  (SI)(AX*1), Y7, Y8 // v = h[j] + …
	VMULPD  (R9)(AX*1), Y4, Y9 // yv[j]·ys
	VSUBPD  Y9, Y8, Y9         // w = v − …
	VMOVUPD Y9, (DI)(AX*1)
	VCMPPD  $4, Y0, Y8, Y10
	VPSUBQ  Y10, Y5, Y5
	VCMPPD  $4, Y0, Y9, Y11
	VPSUBQ  Y11, Y6, Y6
	ADDQ    $32, AX
	DECQ    CX
	JNZ     bfgsloop

bfgsdone:
	SUMQ(Y5, X5, AX)
	SUMQ(Y6, X6, BX)
	MOVQ AX, inner+128(FP)
	MOVQ BX, nnz+136(FP)
	VZEROUPPER
	RET

// func addTermsAVX2(out, av, bv []float64, ac, bc float64) (nnz int)
TEXT ·addTermsAVX2(SB), NOSPLIT, $0-96
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         av_base+24(FP), R8
	MOVQ         bv_base+48(FP), R9
	VBROADCASTSD ac+72(FP), Y1
	VBROADCASTSD bc+80(FP), Y2
	VXORPD       Y0, Y0, Y0
	VPXOR        Y6, Y6, Y6
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           termsdone

termsloop:
	VMULPD  (R8)(AX*1), Y1, Y7 // ac·av[j]
	VADDPD  Y0, Y7, Y7         // 0 + …
	VMULPD  (R9)(AX*1), Y2, Y9 // bc·bv[j]
	VADDPD  Y0, Y9, Y9         // 0 + …
	VADDPD  Y9, Y7, Y9
	VMOVUPD Y9, (DI)(AX*1)
	VCMPPD  $4, Y0, Y9, Y11
	VPSUBQ  Y11, Y6, Y6
	ADDQ    $32, AX
	DECQ    CX
	JNZ     termsloop

termsdone:
	SUMQ(Y6, X6, BX)
	MOVQ BX, nnz+88(FP)
	VZEROUPPER
	RET

// func mulRowAVX2(o, a []float64, nz []int32, b []float64, stride int)
//
// For each group of four k in nz (len(nz)/4 groups): o[j] += a[k]·b[k·stride+j]
// for the four k in order, over the first len(o)&^3 cells of o.
TEXT ·mulRowAVX2(SB), NOSPLIT, $0-104
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	ANDQ $-4, CX
	SHLQ $3, CX             // bytes of o to accumulate
	JZ   rowdone
	MOVQ a_base+24(FP), R8
	MOVQ nz_base+48(FP), SI
	MOVQ nz_len+56(FP), DX
	SHRQ $2, DX             // groups
	JZ   rowdone
	MOVQ b_base+72(FP), R9
	MOVQ stride+96(FP), R10
	SHLQ $3, R10            // bytes per row of b

rowgroup:
	MOVLQSX      0(SI), AX
	VBROADCASTSD (R8)(AX*8), Y0
	IMULQ        R10, AX
	LEAQ         (R9)(AX*1), R11
	MOVLQSX      4(SI), AX
	VBROADCASTSD (R8)(AX*8), Y1
	IMULQ        R10, AX
	LEAQ         (R9)(AX*1), R12
	MOVLQSX      8(SI), AX
	VBROADCASTSD (R8)(AX*8), Y2
	IMULQ        R10, AX
	LEAQ         (R9)(AX*1), R13
	MOVLQSX      12(SI), AX
	VBROADCASTSD (R8)(AX*8), Y3
	IMULQ        R10, AX
	LEAQ         (R9)(AX*1), BX
	XORQ         AX, AX

rowloop:
	VMOVUPD (DI)(AX*1), Y4
	VMULPD  (R11)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4          // v += a0·b0[j]
	VMULPD  (R12)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R13)(AX*1), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (BX)(AX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     rowloop

	ADDQ $16, SI
	DECQ DX
	JNZ  rowgroup

rowdone:
	VZEROUPPER
	RET

// func mulRowPairAVX2(o0, o1, a0, a1, b []float64, stride int)
//
// For each group of four k below len(a0)&^3, in order: o0[j] += a0[k]·b[k·stride+j]
// and o1[j] += a1[k]·b[k·stride+j] for the four k in order, over the first
// len(o0)&^3 cells of each row.
TEXT ·mulRowPairAVX2(SB), NOSPLIT, $0-128
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	ANDQ $-4, CX
	SHLQ $3, CX             // bytes of a row to accumulate
	JZ   pairdone
	MOVQ o1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a0_len+56(FP), DX
	SHRQ $2, DX             // groups
	JZ   pairdone
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), R11
	MOVQ stride+120(FP), R10
	SHLQ $3, R10            // bytes per row of b

pairgroup:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7
	LEAQ         (R11)(R10*1), R12
	LEAQ         (R12)(R10*1), R13
	LEAQ         (R13)(R10*1), BX
	XORQ         AX, AX

pairloop:
	VMOVUPD (DI)(AX*1), Y8      // v
	VMOVUPD (SI)(AX*1), Y9      // u
	VMOVUPD (R11)(AX*1), Y10    // c0
	VMULPD  Y10, Y0, Y11
	VADDPD  Y11, Y8, Y8         // v += x0·c0
	VMULPD  Y10, Y4, Y12
	VADDPD  Y12, Y9, Y9         // u += y0·c0
	VMOVUPD (R12)(AX*1), Y10    // c1
	VMULPD  Y10, Y1, Y11
	VADDPD  Y11, Y8, Y8
	VMULPD  Y10, Y5, Y12
	VADDPD  Y12, Y9, Y9
	VMOVUPD (R13)(AX*1), Y10    // c2
	VMULPD  Y10, Y2, Y11
	VADDPD  Y11, Y8, Y8
	VMULPD  Y10, Y6, Y12
	VADDPD  Y12, Y9, Y9
	VMOVUPD (BX)(AX*1), Y10     // c3
	VMULPD  Y10, Y3, Y11
	VADDPD  Y11, Y8, Y8
	VMULPD  Y10, Y7, Y12
	VADDPD  Y12, Y9, Y9
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y9, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     pairloop

	ADDQ $32, R8
	ADDQ $32, R9
	LEAQ (BX)(R10*1), R11       // the next group's first row
	DECQ DX
	JNZ  pairgroup

pairdone:
	VZEROUPPER
	RET
