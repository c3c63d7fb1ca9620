package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Det returns the determinant of a square matrix via LU factorization with
// partial pivoting.
func (m *Matrix) Det() complex128 {
	m.mustSquare("Det")
	n := m.Rows
	a := m.Copy()
	det := complex128(1)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below diag.
		pivot, pivotAbs := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pivotAbs {
				pivot, pivotAbs = r, v
			}
		}
		if pivotAbs == 0 {
			return 0
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a.Data[col*n+j], a.Data[pivot*n+j] = a.Data[pivot*n+j], a.Data[col*n+j]
			}
			det = -det
		}
		p := a.At(col, col)
		det *= p
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
		}
	}
	return det
}

// Solve returns x with m*x = b for square nonsingular m, via Gaussian
// elimination with partial pivoting.
func (m *Matrix) Solve(b []complex128) ([]complex128, error) {
	m.mustSquare("Solve")
	n := m.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d != %d", len(b), n)
	}
	a := m.Copy()
	x := make([]complex128, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		pivot, pivotAbs := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > pivotAbs {
				pivot, pivotAbs = r, v
			}
		}
		if pivotAbs < 1e-14 {
			return nil, fmt.Errorf("linalg: Solve singular matrix (pivot %g at col %d)", pivotAbs, col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a.Data[col*n+j], a.Data[pivot*n+j] = a.Data[pivot*n+j], a.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		p := a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// QR returns the thin QR factorization m = Q*R using modified Gram-Schmidt,
// with Q having orthonormal columns. Requires Rows >= Cols and full column
// rank.
func (m *Matrix) QR() (q, r *Matrix, err error) {
	if m.Rows < m.Cols {
		return nil, nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m.Rows, m.Cols)
	}
	n, k := m.Rows, m.Cols
	q = m.Copy()
	r = New(k, k)
	for j := 0; j < k; j++ {
		// Orthogonalize column j against earlier columns (twice for stability).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				var dot complex128
				for t := 0; t < n; t++ {
					dot += cmplx.Conj(q.At(t, i)) * q.At(t, j)
				}
				r.Set(i, j, r.At(i, j)+dot)
				for t := 0; t < n; t++ {
					q.Set(t, j, q.At(t, j)-dot*q.At(t, i))
				}
			}
		}
		var norm float64
		for t := 0; t < n; t++ {
			norm += real(q.At(t, j))*real(q.At(t, j)) + imag(q.At(t, j))*imag(q.At(t, j))
		}
		norm = math.Sqrt(norm)
		if norm < 1e-13 {
			return nil, nil, fmt.Errorf("linalg: QR rank deficient at column %d", j)
		}
		r.Set(j, j, complex(norm, 0))
		inv := complex(1/norm, 0)
		for t := 0; t < n; t++ {
			q.Set(t, j, q.At(t, j)*inv)
		}
	}
	return q, r, nil
}
