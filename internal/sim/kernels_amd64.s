#include "textflag.h"

// AVX complex arithmetic, lane for lane the IEEE operations of the Go loops
// in kernels.go. A 256-bit register holds two consecutive amplitudes
// (re a, im a, re b, im b); a 128-bit one holds one. A factor m arrives
// packed as (re m, re m, re m, re m) at c(CX) and (−im m, im m, −im m, im m)
// at c+32(CX), so the 128-bit forms read the low half of the same words.
// With as = a with each amplitude's lanes swapped (VPERMILPD $5),
//
//	(re m, re m)·a + (−im m, im m)·as = (mr·ar + (−mi·ai), mr·ai + mi·ar),
//
// which is bit for bit Go's (mr·ar − mi·ai, mr·ai + mi·ar): (−x)·y = −(x·y)
// and x + (−y) = x − y exactly, and IEEE addition and multiplication
// commute. Sums of products accumulate left to right, as the Go source
// writes them. Only VMOVUPD, VPERMILPD, VMULPD and VADDPD touch the data
// (AVX, no FMA, whose single rounding would move the last bit), and every
// access is unaligned: nothing aligns a []complex128 or the caller's
// coefficient array. Each routine steps two amplitudes per register when
// its inner run is even, and one with the VEX.128 forms when it is odd
// (a run of 1: masks are powers of two). VZEROUPPER on exit spares the
// caller's SSE code the AVX transition penalty.

// PROD sets t to m·a, m the factor packed at c(CX) and as a with its lanes
// swapped; it clobbers u. The register width picks one or two amplitudes.
#define PROD(c, a, as, t, u) \
	VMULPD c(CX), a, t; \
	VMULPD c+32(CX), as, u; \
	VADDPD u, t, t

// MAT1Q applies the packed 2×2 to the amplitudes at (R12) and (R12)(AX*1),
// one or two of each by register width.
#define MAT1Q(a0, a1, s0, s1, r0, r1, u) \
	VMOVUPD   (R12), a0; \
	VMOVUPD   (R12)(AX*1), a1; \
	VPERMILPD $5, a0, s0; \
	VPERMILPD $5, a1, s1; \
	PROD(0, a0, s0, r0, u); \
	PROD(64, a1, s1, r1, u); VADDPD r1, r0, r0; \
	VMOVUPD   r0, (R12); \
	PROD(128, a0, s0, r0, u); \
	PROD(192, a1, s1, r1, u); VADDPD r1, r0, r0; \
	VMOVUPD   r0, (R12)(AX*1)

// func mat1QAVX(region []complex128, mask int, coef *[32]float64)
//
// region[i], region[i+mask] = u00·a0 + u01·a1, u10·a0 + u11·a1, the
// factors packed in row-major order.
TEXT ·mat1QAVX(SB), NOSPLIT, $0-40
	MOVQ region_base+0(FP), DI
	MOVQ region_len+8(FP), SI
	MOVQ mask+24(FP), AX
	MOVQ coef+32(FP), CX
	SHLQ $4, SI
	ADDQ DI, SI
	SHLQ $4, AX
	LEAQ (AX)(AX*1), BX
	TESTQ $16, AX
	JNZ  outer1

outer2:
	CMPQ DI, SI
	JAE  done
	MOVQ DI, R12
	LEAQ (DI)(AX*1), R13

pair2:
	MAT1Q(Y0, Y1, Y2, Y3, Y4, Y5, Y6)
	ADDQ $32, R12
	CMPQ R12, R13
	JB   pair2
	ADDQ BX, DI
	JMP  outer2

outer1:
	CMPQ DI, SI
	JAE  done
	MOVQ DI, R12
	MAT1Q(X0, X1, X2, X3, X4, X5, X6)
	ADDQ BX, DI
	JMP  outer1

done:
	VZEROUPPER
	RET

// ROW4 stores to dst the row of the 4×4 whose packed factors start at
// c(CX), times the quad (a0..a3), lanes swapped in (s0..s3).
#define ROW4(c, dst, a0, a1, a2, a3, s0, s1, s2, s3, t, p, u) \
	PROD(c, a0, s0, t, u); \
	PROD(c+64, a1, s1, p, u); VADDPD p, t, t; \
	PROD(c+128, a2, s2, p, u); VADDPD p, t, t; \
	PROD(c+192, a3, s3, p, u); VADDPD p, t, t; \
	VMOVUPD t, dst

// MAT2Q applies the packed 4×4 to the quad (or two quads, by register
// width) at (R12): a00, a01 = +BX, a10 = +AX, a11 = +DX.
#define MAT2Q(a0, a1, a2, a3, s0, s1, s2, s3, t, p, u) \
	VMOVUPD   (R12), a0; \
	VMOVUPD   (R12)(BX*1), a1; \
	VMOVUPD   (R12)(AX*1), a2; \
	VMOVUPD   (R12)(DX*1), a3; \
	VPERMILPD $5, a0, s0; \
	VPERMILPD $5, a1, s1; \
	VPERMILPD $5, a2, s2; \
	VPERMILPD $5, a3, s3; \
	ROW4(0, (R12), a0, a1, a2, a3, s0, s1, s2, s3, t, p, u); \
	ROW4(256, (R12)(BX*1), a0, a1, a2, a3, s0, s1, s2, s3, t, p, u); \
	ROW4(512, (R12)(AX*1), a0, a1, a2, a3, s0, s1, s2, s3, t, p, u); \
	ROW4(768, (R12)(DX*1), a0, a1, a2, a3, s0, s1, s2, s3, t, p, u)

// func mat2QAVX(region []complex128, maskA, maskB int, coef *[128]float64)
//
// The 4×4 over every quad (i00, i01 = i00+maskB, i10 = i00+maskA, i11),
// its factors packed in row-major order.
TEXT ·mat2QAVX(SB), NOSPLIT, $0-48
	MOVQ region_base+0(FP), DI
	MOVQ region_len+8(FP), SI
	MOVQ maskA+24(FP), AX
	MOVQ maskB+32(FP), BX
	MOVQ coef+40(FP), CX
	SHLQ $4, SI
	ADDQ DI, SI
	SHLQ $4, AX
	SHLQ $4, BX
	LEAQ (AX)(BX*1), DX
	MOVQ AX, R8 // R8, R9: the smaller and the larger byte stride
	MOVQ BX, R9
	CMPQ R8, R9
	JBE  sorted
	XCHGQ R8, R9

sorted:
	TESTQ $16, R8
	JNZ   outer1

outer2:
	CMPQ DI, SI
	JAE  done
	MOVQ DI, R10
	LEAQ (DI)(R9*1), R11

mid2:
	MOVQ R10, R12 // i00
	LEAQ (R10)(R8*1), R13

quad2:
	MAT2Q(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10)
	ADDQ $32, R12
	CMPQ R12, R13
	JB   quad2

	LEAQ (R10)(R8*2), R10
	CMPQ R10, R11
	JB   mid2
	LEAQ (DI)(R9*2), DI
	JMP  outer2

outer1:
	CMPQ DI, SI
	JAE  done
	MOVQ DI, R12
	LEAQ (DI)(R9*1), R11

mid1:
	MAT2Q(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10)
	LEAQ (R12)(R8*2), R12
	CMPQ R12, R11
	JB   mid1
	LEAQ (DI)(R9*2), DI
	JMP  outer1

done:
	VZEROUPPER
	RET

// SCALE multiplies the amplitude (or two, by register width) at (R12) by
// the factor packed in (m, mi).
#define SCALE(a, s, m, mi) \
	VMOVUPD   (R12), a; \
	VPERMILPD $5, a, s; \
	VMULPD    m, a, a; \
	VMULPD    mi, s, s; \
	VADDPD    s, a, a; \
	VMOVUPD   a, (R12)

// func scaleAVX(region []complex128, lo, hi, off int, coef *[8]float64)
TEXT ·scaleAVX(SB), NOSPLIT, $0-56
	MOVQ    region_base+0(FP), DI
	MOVQ    region_len+8(FP), SI
	MOVQ    lo+24(FP), R8
	MOVQ    hi+32(FP), R9
	MOVQ    off+40(FP), AX
	MOVQ    coef+48(FP), CX
	VMOVUPD (CX), Y2
	VMOVUPD 32(CX), Y3
	SHLQ    $4, SI
	ADDQ    DI, SI
	SHLQ    $4, R8
	SHLQ    $4, R9
	SHLQ    $4, AX

outer:
	CMPQ DI, SI
	JAE  done
	LEAQ (DI)(AX*1), R10  // mid + off
	LEAQ (R10)(R9*1), R11 // outer + hi + off

mid:
	MOVQ R10, R12
	LEAQ (R10)(R8*1), R13
	TESTQ $16, R8
	JNZ  elem1

elem2:
	SCALE(Y0, Y1, Y2, Y3)
	ADDQ $32, R12
	CMPQ R12, R13
	JB   elem2
	JMP  next

elem1:
	SCALE(X0, X1, X2, X3)

next:
	LEAQ (R10)(R8*2), R10
	CMPQ R10, R11
	JB   mid
	LEAQ (DI)(R9*2), DI
	JMP  outer

done:
	VZEROUPPER
	RET

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
