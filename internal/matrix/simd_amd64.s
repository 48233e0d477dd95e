#include "textflag.h"

// AVX2 forms of the loops whose cells are independent along a row (see
// simd_amd64.go), and of the mat-vec, whose rows are. Each runs the first
// len(out)&^3 cells, four to a YMM register (the mat-vec: len(o)&^7 rows,
// one to a lane), and applies to every lane the statements of its Go loop in
// their order: VMULPD, VADDPD and VSUBPD round a lane as MULSD, ADDSD and SUBSD
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

// STEP adds the column C, times the broadcast X, into ACC where C's lane is
// not ±0, and adds +0 where it is: VCMPPD NEQ_UQ marks the lanes to keep
// (NaN among them, as Go's av != 0) and VANDPD clears the product's others.
// C and Y15 are clobbered; Y2 holds +0.
#define STEP(C, X, ACC) \
	VCMPPD $4, Y2, C, Y15 \
	VMULPD X, C, C        \
	VANDPD Y15, C, C      \
	VADDPD C, ACC, ACC

// QUAD adds four k of four rows into ACC, one row to a lane: it loads the
// four cells of each row (R0…R3), transposes the 4×4 block into columns, and
// steps through the columns in k order against the broadcasts Y3…Y6.
// Y7…Y15 are clobbered.
#define QUAD(R0, R1, R2, R3, ACC) \
	VMOVUPD    R0, Y7               \
	VMOVUPD    R1, Y8               \
	VMOVUPD    R2, Y9               \
	VMOVUPD    R3, Y10              \
	VUNPCKLPD  Y8, Y7, Y11          \
	VUNPCKHPD  Y8, Y7, Y12          \
	VUNPCKLPD  Y10, Y9, Y13         \
	VUNPCKHPD  Y10, Y9, Y14         \
	VPERM2F128 $0x20, Y13, Y11, Y7  \
	VPERM2F128 $0x20, Y14, Y12, Y8  \
	VPERM2F128 $0x31, Y13, Y11, Y9  \
	VPERM2F128 $0x31, Y14, Y12, Y10 \
	STEP(Y7, Y3, ACC)               \
	STEP(Y8, Y4, ACC)               \
	STEP(Y9, Y5, ACC)               \
	STEP(Y10, Y6, ACC)

// GATHER loads one k of four rows (R0…R3) into the lanes of Y7, using X8.
#define GATHER(R0, R1, R2, R3) \
	VMOVSD      R0, X7         \
	VMOVHPD     R1, X7, X7     \
	VMOVSD      R2, X8         \
	VMOVHPD     R3, X8, X8     \
	VINSERTF128 $1, X8, Y7, Y7

// func mulMatVecAVX2(o, a, x []float64)
//
// For each group of eight rows (len(o)/8 groups): o[i] = the sum, from +0 and
// for k ascending, of a[i·len(x)+k]·x[k] over the k where that cell of a is
// not ±0. Rows 0–3 of a group accumulate in Y0 and rows 4–7 in Y1, both
// chains in flight at once. R10, R11 and R12 walk rows 0, 3 and 6 along k;
// the others are those plus one, two or four rows (R9 bytes each).
TEXT ·mulMatVecAVX2(SB), NOSPLIT, $0-72
	MOVQ   o_base+0(FP), DI
	MOVQ   o_len+8(FP), R8
	SHRQ   $3, R8             // groups of eight rows
	JZ     mvdone
	MOVQ   a_base+24(FP), SI
	MOVQ   x_base+48(FP), AX
	MOVQ   x_len+56(FP), BX
	LEAQ   (BX*8), R9         // bytes per row of a
	MOVQ   BX, R13
	ANDQ   $3, R13            // k past the last group of four
	SHRQ   $2, BX             // groups of four k
	VXORPD Y2, Y2, Y2

mvrows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R10
	LEAQ   (SI)(R9*2), R11
	ADDQ   R9, R11            // row 3
	LEAQ   (R11)(R9*2), R12
	ADDQ   R9, R12            // row 6
	MOVQ   AX, DX
	MOVQ   BX, CX
	TESTQ  CX, CX
	JZ     mvtail

mvgroup:
	VBROADCASTSD 0(DX), Y3
	VBROADCASTSD 8(DX), Y4
	VBROADCASTSD 16(DX), Y5
	VBROADCASTSD 24(DX), Y6
	QUAD((R10), (R10)(R9*1), (R10)(R9*2), (R11), Y0)
	QUAD((R10)(R9*4), (R11)(R9*2), (R12), (R11)(R9*4), Y1)
	ADDQ         $32, R10
	ADDQ         $32, R11
	ADDQ         $32, R12
	ADDQ         $32, DX
	DECQ         CX
	JNZ          mvgroup

mvtail:
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    mvstore

mvcol:
	VBROADCASTSD (DX), Y3
	GATHER((R10), (R10)(R9*1), (R10)(R9*2), (R11))
	STEP(Y7, Y3, Y0)
	GATHER((R10)(R9*4), (R11)(R9*2), (R12), (R11)(R9*4))
	STEP(Y7, Y3, Y1)
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	ADDQ         $8, DX
	DECQ         CX
	JNZ          mvcol

mvstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (SI)(R9*8), SI    // the next group's first row
	DECQ    R8
	JNZ     mvrows

mvdone:
	VZEROUPPER
	RET
