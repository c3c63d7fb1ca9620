// Package linalg provides dense complex linear algebra for small matrices.
//
// It is the numeric substrate for the quantum-gate algebra used throughout
// this repository: complex matrices with multiplication, Kronecker products,
// adjoints, traces and inner products, plus the eigensolvers needed by the
// Cartan (KAK) decomposition in package weyl. Matrices are row-major dense
// complex128 and sized for quantum work (2x2, 4x4, and statevector-scale
// rectangular matrices); the algorithms favor clarity and numerical
// robustness over asymptotic performance.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows needs at least one row and column")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: got %d want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d ...complex128) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Copy returns a deep copy of m.
func (m *Matrix) Copy() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b, "Add")
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// Mul returns the matrix product m * b. The 2x2 and 4x4 square cases —
// the gate-algebra hot path — dispatch to unrolled kernels (see small.go).
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	switch {
	case m.Rows == 2 && m.Cols == 2 && b.Cols == 2:
		return Mul2x2(m, b)
	case m.Rows == 4 && m.Cols == 4 && b.Cols == 4:
		return Mul4x4(m, b)
	}
	out := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			row := b.Data[k*b.Cols : (k+1)*b.Cols]
			outRow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range row {
				outRow[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Kron returns the Kronecker (tensor) product m ⊗ b.
func (m *Matrix) Kron(b *Matrix) *Matrix {
	out := New(m.Rows*b.Rows, m.Cols*b.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a := m.At(i, j)
			if a == 0 {
				continue
			}
			for p := 0; p < b.Rows; p++ {
				for q := 0; q < b.Cols; q++ {
					out.Set(i*b.Rows+p, j*b.Cols+q, a*b.At(p, q))
				}
			}
		}
	}
	return out
}

// Transpose returns the (non-conjugating) transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Dagger returns the conjugate transpose (Hermitian adjoint) of m.
func (m *Matrix) Dagger() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// Trace returns the sum of diagonal elements. Panics if m is not square.
func (m *Matrix) Trace() complex128 {
	m.mustSquare("Trace")
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// HSInner returns the Hilbert-Schmidt inner product Tr(m† b).
func (m *Matrix) HSInner(b *Matrix) complex128 {
	m.mustSameShape(b, "HSInner")
	var t complex128
	for i, v := range m.Data {
		t += cmplx.Conj(v) * b.Data[i]
	}
	return t
}

// FrobeniusNorm returns sqrt(Tr(m† m)).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest element-wise absolute difference |m - b|.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	m.mustSameShape(b, "MaxAbsDiff")
	var worst float64
	for i, v := range m.Data {
		if d := cmplx.Abs(v - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// EqualWithin reports whether every element of m is within tol of b.
func (m *Matrix) EqualWithin(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	return m.MaxAbsDiff(b) <= tol
}

// IsUnitary reports whether m† m = I within tol.
func (m *Matrix) IsUnitary(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	return m.Dagger().Mul(m).EqualWithin(Identity(m.Rows), tol)
}

// MaxImagAbs returns the largest |imag(element)|, a realness check.
func (m *Matrix) MaxImagAbs() float64 {
	var worst float64
	for _, v := range m.Data {
		if a := math.Abs(imag(v)); a > worst {
			worst = a
		}
	}
	return worst
}

// RealPart returns a matrix holding real(m) as complex entries.
func (m *Matrix) RealPart() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = complex(real(v), 0)
	}
	return out
}

// ImagPart returns a matrix holding imag(m) as complex entries.
func (m *Matrix) ImagPart() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = complex(imag(v), 0)
	}
	return out
}

// GlobalPhaseAligned returns m scaled by a unit phase so that its largest-
// magnitude element is real positive. Useful for comparing unitaries that are
// equal up to global phase.
func (m *Matrix) GlobalPhaseAligned() *Matrix {
	var best complex128
	var bestAbs float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > bestAbs {
			bestAbs = a
			best = v
		}
	}
	if bestAbs == 0 {
		return m.Copy()
	}
	phase := best / complex(bestAbs, 0)
	return m.Scale(cmplx.Conj(phase))
}

// EqualUpToPhase reports whether m = e^{iφ} b for some φ, within tol.
// The candidate phase is recovered from Tr(m† b), which is exact when the
// matrices are phase-equal and avoids unstable element-pivot choices.
func (m *Matrix) EqualUpToPhase(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	g := m.HSInner(b) // = e^{-iφ}·‖b‖² when m = e^{iφ}b
	if cmplx.Abs(g) < 1e-14 {
		return m.FrobeniusNorm() < tol && b.FrobeniusNorm() < tol
	}
	p := g / complex(cmplx.Abs(g), 0)
	return m.Scale(p).EqualWithin(b, tol)
}

// String renders the matrix with aligned fixed-point entries.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&sb, "%7.4f%+7.4fi", real(v), imag(v))
			if j != m.Cols-1 {
				sb.WriteString("  ")
			}
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func (m *Matrix) mustSameShape(b *Matrix, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

func (m *Matrix) mustSquare(op string) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: %s requires square matrix, got %dx%d", op, m.Rows, m.Cols))
	}
}
