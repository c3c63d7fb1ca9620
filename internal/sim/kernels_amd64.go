package sim

import "repro/internal/linalg"

// The amd64 kernel set: SSE2 routines (kernels_amd64.s) that compute the
// Go loops' IEEE operations in the Go loops' order, two float64 lanes at a
// time. Each wrapper packs every complex factor m it multiplies by into the
// lane pairs (re m, re m) and (−im m, im m), in a stack array the routine
// only reads, so a kernel call allocates nothing.

//go:noescape
func mat1QSSE2(region []complex128, mask int, coef *[16]float64)

//go:noescape
func mat2QSSE2(region []complex128, maskA, maskB int, coef *[64]float64)

// scaleSSE2 is scaleGo with the factor packed in coef.
//
//go:noescape
func scaleSSE2(region []complex128, lo, hi, off int, coef *[4]float64)

// pack writes m's lane pairs (re m, re m), (−im m, im m) to c[0:4].
func pack(c []float64, m complex128) {
	re, im := real(m), imag(m)
	c[0], c[1], c[2], c[3] = re, re, -im, im
}

func tileMat1Q(region []complex128, mask int, u *linalg.Matrix) {
	var coef [16]float64
	for k, m := range u.Data[:4] {
		pack(coef[4*k:], m)
	}
	mat1QSSE2(region, mask, &coef)
}

func tileMat2Q(region []complex128, maskA, maskB int, u *linalg.Matrix) {
	var coef [64]float64
	for k, m := range u.Data[:16] {
		pack(coef[4*k:], m)
	}
	mat2QSSE2(region, maskA, maskB, &coef)
}

// scale is scaleSSE2 with the factor packed; scaleGo is its Go loop.
func scale(region []complex128, lo, hi, off int, d complex128) {
	var coef [4]float64
	pack(coef[:], d)
	scaleSSE2(region, lo, hi, off, &coef)
}
