package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// jacobiSweeps is the iteration cap for the cyclic Jacobi eigensolver. Small
// dense symmetric matrices converge in a handful of sweeps; 100 is a deep
// safety margin.
const jacobiSweeps = 100

// EigSymmetricReal diagonalizes a real symmetric matrix given as a *Matrix
// whose imaginary parts are negligible. It returns the eigenvalues and a real
// orthogonal matrix of column eigenvectors such that m = V * diag(vals) * Vᵀ.
// Eigenvalues are returned in ascending order.
func EigSymmetricReal(m *Matrix) ([]float64, *Matrix, error) {
	m.mustSquare("EigSymmetricReal")
	if m.MaxImagAbs() > 1e-9 {
		return nil, nil, fmt.Errorf("linalg: EigSymmetricReal: matrix has imaginary parts up to %g", m.MaxImagAbs())
	}
	n := m.Rows
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = real(m.At(i, j))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a[i][j]-a[j][i]) > 1e-8*(1+math.Abs(a[i][j])) {
				return nil, nil, fmt.Errorf("linalg: EigSymmetricReal: matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	jacobi(a, v)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
	}
	// Sort ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool { return vals[idx[p]] < vals[idx[q]] })
	outVals := make([]float64, n)
	vecs := New(n, n)
	for c, k := range idx {
		outVals[c] = vals[k]
		for r := 0; r < n; r++ {
			vecs.Set(r, c, complex(v[r][k], 0))
		}
	}
	return outVals, vecs, nil
}

// jacobi runs cyclic Jacobi rotations on symmetric a in place, accumulating
// rotations into v (so that original = v * diag * vᵀ at convergence).
func jacobi(a, v [][]float64) {
	n := len(a)
	for sweep := 0; sweep < jacobiSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-28 {
			return
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p][q]
				if math.Abs(apq) < 1e-15 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				app, aqq := a[p][p], a[q][q]
				a[p][p] = app - t*apq
				a[q][q] = aqq + t*apq
				a[p][q], a[q][p] = 0, 0
				for k := 0; k < n; k++ {
					if k != p && k != q {
						akp, akq := a[k][p], a[k][q]
						a[k][p] = c*akp - s*akq
						a[p][k] = a[k][p]
						a[k][q] = s*akp + c*akq
						a[q][k] = a[k][q]
					}
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
}

// SimultaneousDiagonalize finds a single real orthogonal P diagonalizing two
// commuting real symmetric matrices A and B: Pᵀ A P and Pᵀ B P both diagonal.
// This is the core primitive for diagonalizing the complex symmetric unitary
// that appears in the magic-basis Cartan decomposition (its real and
// imaginary parts commute).
//
// The algorithm diagonalizes A, then within each (near-)degenerate eigenspace
// of A diagonalizes the projection of B.
func SimultaneousDiagonalize(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("linalg: SimultaneousDiagonalize shape mismatch")
	}
	valsA, p, err := EigSymmetricReal(a)
	if err != nil {
		return nil, fmt.Errorf("diagonalizing A: %w", err)
	}
	n := a.Rows
	// Group near-equal eigenvalues of A into clusters; rotate within each
	// cluster to diagonalize B's projection.
	const degTol = 1e-7
	start := 0
	for start < n {
		end := start + 1
		for end < n && math.Abs(valsA[end]-valsA[start]) < degTol {
			end++
		}
		if k := end - start; k > 1 {
			// Projected block Bk = Psubᵀ B Psub (k x k, symmetric).
			sub := New(n, k)
			for r := 0; r < n; r++ {
				for c := 0; c < k; c++ {
					sub.Set(r, c, p.At(r, start+c))
				}
			}
			bk := sub.Transpose().Mul(b).Mul(sub)
			_, w, err := EigSymmetricReal(bk)
			if err != nil {
				return nil, fmt.Errorf("diagonalizing degenerate block: %w", err)
			}
			rot := sub.Mul(w)
			for r := 0; r < n; r++ {
				for c := 0; c < k; c++ {
					p.Set(r, start+c, rot.At(r, c))
				}
			}
		}
		start = end
	}
	// Verify both are now diagonal within tolerance.
	pt := p.Transpose()
	for _, m := range []*Matrix{pt.Mul(a).Mul(p), pt.Mul(b).Mul(p)} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && cmplx.Abs(m.At(i, j)) > 1e-6 {
					return nil, fmt.Errorf("linalg: SimultaneousDiagonalize failed: off-diagonal %g at (%d,%d); matrices may not commute", cmplx.Abs(m.At(i, j)), i, j)
				}
			}
		}
	}
	return p, nil
}
