package sim

import "repro/internal/linalg"

// The amd64 kernel set: AVX routines (kernels_amd64.s) that compute the Go
// loops' IEEE operations in the Go loops' order, two amplitudes per 256-bit
// register, or the Go loops themselves on a host without AVX. Each wrapper
// packs every complex factor m it multiplies by into the lanes
// (re m, re m, re m, re m) and (−im m, im m, −im m, im m), in a stack array
// the routine only reads, so a kernel call allocates nothing.

// useAVX is set once, when the package loads: the CPU has AVX and the OS
// saves its registers.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX (CPUID.1:ECX bit 28) and the OS
// saves the YMM registers: OSXSAVE (bit 27) and XCR0's SSE and AVX state
// bits (XGETBV(0) & 6 == 6).
func hasAVX() bool

//go:noescape
func mat1QAVX(region []complex128, mask int, coef *[32]float64)

//go:noescape
func mat2QAVX(region []complex128, maskA, maskB int, coef *[128]float64)

// scaleAVX is scaleGo with the factor packed in coef.
//
//go:noescape
func scaleAVX(region []complex128, lo, hi, off int, coef *[8]float64)

// pack writes m's lanes (re m ×4) and (−im m, im m ×2) to c[0:8].
func pack(c []float64, m complex128) {
	re, im := real(m), imag(m)
	c = c[:8]
	c[0], c[1], c[2], c[3] = re, re, re, re
	c[4], c[5], c[6], c[7] = -im, im, -im, im
}

func tileMat1Q(region []complex128, mask int, u *linalg.Matrix) {
	if !useAVX {
		tileMat1QGo(region, mask, u)
		return
	}
	var coef [32]float64
	for k, m := range u.Data[:4] {
		pack(coef[8*k:], m)
	}
	mat1QAVX(region, mask, &coef)
}

func tileMat2Q(region []complex128, maskA, maskB int, u *linalg.Matrix) {
	if !useAVX {
		tileMat2QGo(region, maskA, maskB, u)
		return
	}
	var coef [128]float64
	for k, m := range u.Data[:16] {
		pack(coef[8*k:], m)
	}
	mat2QAVX(region, maskA, maskB, &coef)
}

// scale is scaleAVX with the factor packed; scaleGo is its Go loop.
func scale(region []complex128, lo, hi, off int, d complex128) {
	if !useAVX {
		scaleGo(region, lo, hi, off, d)
		return
	}
	var coef [8]float64
	pack(coef[:], d)
	scaleAVX(region, lo, hi, off, &coef)
}
