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

// Lanes narrowMask<>+8·(4−r) … +8·(7−r) are r all-ones lanes, then zeros:
// the mask of a row's last r ∈ 1…4 cells.
DATA  narrowMask<>+0(SB)/8, $-1
DATA  narrowMask<>+8(SB)/8, $-1
DATA  narrowMask<>+16(SB)/8, $-1
DATA  narrowMask<>+24(SB)/8, $-1
GLOBL narrowMask<>(SB), RODATA|NOPTR, $64

// The narrow product's steps. A row of c = ⌈w/4⌉ chunks of four cells keeps
// its full chunks in Y0… and its last, the w − 4(c−1) cells Y15 masks, in
// Y11 (one row) or, for two rows of at most 16 cells, in Y0…Y3 and Y4…Y7
// with the last chunks in Y3 and Y7. A step of k broadcasts a[i,k], marks
// its lanes NEQ_UQ +0 (true for NaN, as Go's av != 0) and adds to every
// chunk the product with b's row of k masked to +0 where the mark is false:
// added to a sum that started at +0, that +0 leaves the sum as skipping the
// step would (see mulMatVec). R8 walks a's row along k, R9 b's rows.
#define HEAD1 VBROADCASTSD (R8), Y12; VXORPD Y14, Y14, Y14; VCMPPD $4, Y14, Y12, Y13
#define FULL1(Y, OFF) VMULPD OFF(R9), Y12, Y14; VANDPD Y13, Y14, Y14; VADDPD Y14, Y, Y
#define LAST1(OFF) VMASKMOVPD OFF(R9), Y15, Y14; VMULPD Y12, Y14, Y14; VANDPD Y13, Y14, Y14; VADDPD Y14, Y11, Y11
#define HEAD2 VBROADCASTSD (R8), Y8; VBROADCASTSD (R8)(R11*1), Y9; VXORPD Y14, Y14, Y14; VCMPPD $4, Y14, Y8, Y10; VCMPPD $4, Y14, Y9, Y11
#define MA2(Y, Z) VMULPD Y12, Y8, Y13; VANDPD Y10, Y13, Y13; VADDPD Y13, Y, Y; VMULPD Y12, Y9, Y14; VANDPD Y11, Y14, Y14; VADDPD Y14, Z, Z
#define FULL2(Y, Z, OFF) VMOVUPD OFF(R9), Y12; MA2(Y, Z)
#define LAST2(OFF) VMASKMOVPD OFF(R9), Y15, Y12; MA2(Y3, Y7)
#define NEXT(L, S) ADDQ $8, R8; ADDQ R10, R9; DECQ CX; JNZ L; JMP S

// LOAD, and for two rows LOAD2, take full chunk N−2 of the row at DI (and
// SI) into Y (and Z) if there are N chunks or more, else jump to the k
// loop L of N−1 chunks. STORE and STORE2 write them back the same way and
// count their nonzero lanes into ACC against the +0 in ZERO.
#define LOAD(N, Y, OFF, L) CMPQ R13, $N; JLT L; VMOVUPD OFF(DI), Y
#define LOAD2(N, Y, Z, OFF, L) LOAD(N, Y, OFF, L); VMOVUPD OFF(SI), Z
#define COUNT(Y, ZERO, T, ACC) VCMPPD $4, ZERO, Y, T; VPSUBQ T, ACC, ACC
#define STORE(N, Y, OFF, L) CMPQ R13, $N; JLT L; VMOVUPD Y, OFF(DI); COUNT(Y, Y13, Y14, Y12)
#define STORE2(N, Y, Z, OFF, L) CMPQ R13, $N; JLT L; VMOVUPD Y, OFF(DI); VMOVUPD Z, OFF(SI); COUNT(Y, Y9, Y10, Y8); COUNT(Z, Y9, Y10, Y8)
#define STORELAST(Y, P, ZERO, T, ACC) VMASKMOVPD Y, Y15, (P)(R12*1); VCMPPD $4, ZERO, Y, T; VANDPD Y15, T, T; VPSUBQ T, ACC, ACC

// func mulNarrowAVX2(o, a, b []float64, rows, k, w, stride, ka int) (nnz int)
//
// For each of rows rows i (a's at ka cells apart, o's at stride): for j < w,
// o[i·stride+j] += a[i·ka+kk]·b[kk·stride+j] for kk ascending below k where
// a[i·ka+kk] is not ±0, each row loaded once, held in registers over the k
// and stored once; returns the nonzero cells written. Rows go two at a time
// while w ≤ 16 and two are left.
TEXT ·mulNarrowAVX2(SB), NOSPLIT, $0-120
	MOVQ    o_base+0(FP), DI
	MOVQ    a_base+24(FP), AX
	MOVQ    b_base+48(FP), BX
	MOVQ    rows+72(FP), R14
	MOVQ    w+88(FP), R13
	MOVQ    stride+96(FP), R10
	SHLQ    $3, R10           // bytes per row of o and of b
	MOVQ    ka+104(FP), R11
	SHLQ    $3, R11           // bytes per row of a
	ADDQ    $3, R13
	SHRQ    $2, R13           // c, chunks of a row
	LEAQ    -1(R13), R12
	SHLQ    $5, R12           // bytes to the last chunk, 32(c−1)
	LEAQ    (R13*4), SI
	SUBQ    w+88(FP), SI      // 4c − w, lanes past the row
	LEAQ    narrowMask<>(SB), R9
	VMOVDQU (R9)(SI*8), Y15
	XORQ    DX, DX
	TESTQ   R14, R14
	JZ      narrowdone

narrowrow:
	MOVQ k+80(FP), CX
	MOVQ AX, R8
	MOVQ BX, R9
	CMPQ R13, $4
	JGT  one
	CMPQ R14, $2
	JGE  two

one:
	VMASKMOVPD (DI)(R12*1), Y15, Y11
	LOAD(2, Y0, 0, one1); LOAD(3, Y1, 32, one2); LOAD(4, Y2, 64, one3); LOAD(5, Y3, 96, one4)
	LOAD(6, Y4, 128, one5); LOAD(7, Y5, 160, one6); LOAD(8, Y6, 192, one7); LOAD(9, Y7, 224, one8)
	LOAD(10, Y8, 256, one9); LOAD(11, Y9, 288, one10); LOAD(12, Y10, 320, one11); JMP one12

one1:  HEAD1; LAST1(0); NEXT(one1, store1)
one2:  HEAD1; FULL1(Y0, 0); LAST1(32); NEXT(one2, store1)
one3:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); LAST1(64); NEXT(one3, store1)
one4:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); LAST1(96); NEXT(one4, store1)
one5:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); LAST1(128); NEXT(one5, store1)
one6:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	LAST1(160); NEXT(one6, store1)
one7:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	FULL1(Y5, 160); LAST1(192); NEXT(one7, store1)
one8:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	FULL1(Y5, 160); FULL1(Y6, 192); LAST1(224); NEXT(one8, store1)
one9:  HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	FULL1(Y5, 160); FULL1(Y6, 192); FULL1(Y7, 224); LAST1(256); NEXT(one9, store1)
one10: HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	FULL1(Y5, 160); FULL1(Y6, 192); FULL1(Y7, 224); FULL1(Y8, 256); LAST1(288); NEXT(one10, store1)
one11: HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	FULL1(Y5, 160); FULL1(Y6, 192); FULL1(Y7, 224); FULL1(Y8, 256); FULL1(Y9, 288)
	LAST1(320); NEXT(one11, store1)
one12: HEAD1; FULL1(Y0, 0); FULL1(Y1, 32); FULL1(Y2, 64); FULL1(Y3, 96); FULL1(Y4, 128)
	FULL1(Y5, 160); FULL1(Y6, 192); FULL1(Y7, 224); FULL1(Y8, 256); FULL1(Y9, 288)
	FULL1(Y10, 320); LAST1(352); NEXT(one12, store1)

store1:
	VXORPD Y13, Y13, Y13
	VPXOR  Y12, Y12, Y12
	STORELAST(Y11, DI, Y13, Y14, Y12)
	STORE(2, Y0, 0, count1); STORE(3, Y1, 32, count1); STORE(4, Y2, 64, count1); STORE(5, Y3, 96, count1)
	STORE(6, Y4, 128, count1); STORE(7, Y5, 160, count1); STORE(8, Y6, 192, count1); STORE(9, Y7, 224, count1)
	STORE(10, Y8, 256, count1); STORE(11, Y9, 288, count1); STORE(12, Y10, 320, count1)

count1:
	SUMQ(Y12, X12, SI)
	ADDQ SI, DX
	ADDQ R10, DI
	ADDQ R11, AX
	DECQ R14
	JNZ  narrowrow
	JMP  narrowdone

two:
	LEAQ       (DI)(R10*1), SI
	VMASKMOVPD (DI)(R12*1), Y15, Y3
	VMASKMOVPD (SI)(R12*1), Y15, Y7
	LOAD2(2, Y0, Y4, 0, two1); LOAD2(3, Y1, Y5, 32, two2); LOAD2(4, Y2, Y6, 64, two3)

two4: HEAD2; FULL2(Y0, Y4, 0); FULL2(Y1, Y5, 32); FULL2(Y2, Y6, 64); LAST2(96); NEXT(two4, store2)
two3: HEAD2; FULL2(Y0, Y4, 0); FULL2(Y1, Y5, 32); LAST2(64); NEXT(two3, store2)
two2: HEAD2; FULL2(Y0, Y4, 0); LAST2(32); NEXT(two2, store2)
two1: HEAD2; LAST2(0); NEXT(two1, store2)

store2:
	VXORPD Y9, Y9, Y9
	VPXOR  Y8, Y8, Y8
	STORELAST(Y3, DI, Y9, Y10, Y8)
	STORELAST(Y7, SI, Y9, Y10, Y8)
	STORE2(2, Y0, Y4, 0, count2); STORE2(3, Y1, Y5, 32, count2); STORE2(4, Y2, Y6, 64, count2)

count2:
	SUMQ(Y8, X8, CX)
	ADDQ CX, DX
	LEAQ (DI)(R10*2), DI
	LEAQ (AX)(R11*2), AX
	SUBQ $2, R14
	JNZ  narrowrow

narrowdone:
	MOVQ       DX, nnz+112(FP)
	VZEROUPPER
	RET
