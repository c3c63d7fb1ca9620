#include "textflag.h"

// SSE2 complex arithmetic, lane for lane the IEEE operations of the Go
// loops in kernels.go. An amplitude a sits in one register as (re a, im a);
// a factor m arrives packed as the pairs (re m, re m) at c(CX) and
// (−im m, im m) at c+16(CX). With as = a's lanes swapped,
//
//	(re m, re m)·a + (−im m, im m)·as = (mr·ar + (−mi·ai), mr·ai + mi·ar),
//
// which is bit for bit Go's (mr·ar − mi·ai, mr·ai + mi·ar): (−x)·y = −(x·y)
// and x + (−y) = x − y exactly, and IEEE addition commutes. Sums of
// products accumulate left to right, as the Go source writes them. Loads
// and stores are unaligned (MOVUPD): nothing aligns a []complex128 or the
// caller's coefficient array to 16 bytes.

// SWAP sets dst to src with its two lanes exchanged.
#define SWAP(src, dst) MOVAPD src, dst; SHUFPD $1, dst, dst

// PROD sets t to m·a, m the factor packed at c(CX) and as a with its lanes
// swapped; it clobbers u.
#define PROD(c, a, as, t, u) \
	MOVUPD c(CX), t; MULPD a, t; \
	MOVUPD c+16(CX), u; MULPD as, u; ADDPD u, t

// func mat1QSSE2(region []complex128, mask int, coef *[16]float64)
//
// region[i], region[i+mask] = u00·a0 + u01·a1, u10·a0 + u11·a1, the
// factors packed in row-major order.
TEXT ·mat1QSSE2(SB), NOSPLIT, $0-40
	MOVQ region_base+0(FP), DI
	MOVQ region_len+8(FP), SI
	MOVQ mask+24(FP), AX
	MOVQ coef+32(FP), CX
	SHLQ $4, SI
	ADDQ DI, SI
	SHLQ $4, AX
	LEAQ (AX)(AX*1), BX

outer:
	CMPQ DI, SI
	JAE  done
	MOVQ DI, R12
	LEAQ (DI)(AX*1), R13

pair:
	MOVUPD (R12), X0
	MOVUPD (R12)(AX*1), X1
	SWAP(X0, X2)
	SWAP(X1, X3)
	PROD(0, X0, X2, X4, X6)
	PROD(32, X1, X3, X5, X6)
	ADDPD  X5, X4
	PROD(64, X0, X2, X5, X6)
	PROD(96, X1, X3, X7, X6)
	ADDPD  X7, X5
	MOVUPD X4, (R12)
	MOVUPD X5, (R12)(AX*1)
	ADDQ   $16, R12
	CMPQ   R12, R13
	JB     pair

	ADDQ BX, DI
	JMP  outer

done:
	RET

// ROW4 stores to dst the row of the 4×4 whose packed factors start at
// c(CX), times the quad (X0..X3), lanes swapped in X4..X7.
#define ROW4(c, dst) \
	PROD(c, X0, X4, X8, X10); \
	PROD(c+32, X1, X5, X9, X10); ADDPD X9, X8; \
	PROD(c+64, X2, X6, X9, X10); ADDPD X9, X8; \
	PROD(c+96, X3, X7, X9, X10); ADDPD X9, X8; \
	MOVUPD X8, dst

// func mat2QSSE2(region []complex128, maskA, maskB int, coef *[64]float64)
//
// The 4×4 over every quad (i00, i01 = i00+maskB, i10 = i00+maskA, i11),
// its factors packed in row-major order.
TEXT ·mat2QSSE2(SB), NOSPLIT, $0-48
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
	JBE  outer
	XCHGQ R8, R9

outer:
	CMPQ DI, SI
	JAE  done
	MOVQ DI, R10
	LEAQ (DI)(R9*1), R11

mid:
	MOVQ R10, R12 // i00
	LEAQ (R10)(R8*1), R13

quad:
	MOVUPD (R12), X0       // a00
	MOVUPD (R12)(BX*1), X1 // a01
	MOVUPD (R12)(AX*1), X2 // a10
	MOVUPD (R12)(DX*1), X3 // a11
	SWAP(X0, X4)
	SWAP(X1, X5)
	SWAP(X2, X6)
	SWAP(X3, X7)
	ROW4(0, (R12))
	ROW4(128, (R12)(BX*1))
	ROW4(256, (R12)(AX*1))
	ROW4(384, (R12)(DX*1))
	ADDQ $16, R12
	CMPQ R12, R13
	JB   quad

	LEAQ (R10)(R8*2), R10
	CMPQ R10, R11
	JB   mid
	LEAQ (DI)(R9*2), DI
	JMP  outer

done:
	RET

// func scaleSSE2(region []complex128, lo, hi, off int, coef *[4]float64)
TEXT ·scaleSSE2(SB), NOSPLIT, $0-56
	MOVQ   region_base+0(FP), DI
	MOVQ   region_len+8(FP), SI
	MOVQ   lo+24(FP), R8
	MOVQ   hi+32(FP), R9
	MOVQ   off+40(FP), AX
	MOVQ   coef+48(FP), CX
	MOVUPD (CX), X2
	MOVUPD 16(CX), X3
	SHLQ   $4, SI
	ADDQ   DI, SI
	SHLQ   $4, R8
	SHLQ   $4, R9
	SHLQ   $4, AX

outer:
	CMPQ DI, SI
	JAE  done
	LEAQ (DI)(AX*1), R10  // mid + off
	LEAQ (R10)(R9*1), R11 // outer + hi + off

mid:
	MOVQ R10, R12
	LEAQ (R10)(R8*1), R13

elem:
	MOVUPD (R12), X0
	SWAP(X0, X1)
	MULPD  X2, X0
	MULPD  X3, X1
	ADDPD  X1, X0
	MOVUPD X0, (R12)
	ADDQ   $16, R12
	CMPQ   R12, R13
	JB     elem

	LEAQ (R10)(R8*2), R10
	CMPQ R10, R11
	JB   mid
	LEAQ (DI)(R9*2), DI
	JMP  outer

done:
	RET
