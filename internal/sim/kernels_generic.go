//go:build !amd64

package sim

import "repro/internal/linalg"

// Off amd64 the complex-arithmetic kernels are the Go loops of kernels.go.

func tileMat1Q(region []complex128, mask int, u *linalg.Matrix) {
	tileMat1QGo(region, mask, u)
}

func tileMat2Q(region []complex128, maskA, maskB int, u *linalg.Matrix) {
	tileMat2QGo(region, maskA, maskB, u)
}

func scale(region []complex128, lo, hi, off int, d complex128) {
	scaleGo(region, lo, hi, off, d)
}
