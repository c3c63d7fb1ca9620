// Package weyl implements the Cartan (KAK) decomposition machinery for
// two-qubit unitaries: the magic-basis transform, Weyl-chamber canonical
// coordinates, local-equivalence and perfect-entangler tests, the full
// KAK factorization U = e^{iφ}(K1l⊗K1r)·CAN(a,b,c)·(K2l⊗K2r), and the
// per-basis-gate decomposition counting rules used by the paper's
// co-design study (paper §2.3, §3.1 Observation 1).
package weyl

import (
	"math"

	"repro/internal/linalg"
)

// invSqrt2 is 1/√2, the magic-basis normalization.
var invSqrt2 = complex(1/math.Sqrt2, 0)

// MagicBasis returns the Makhlin magic-basis change-of-basis matrix B whose
// columns are the Bell-like states (Φ+, iΨ+, Ψ−, iΦ−):
//
//	B = 1/√2 · [[1, 0, 0, i],
//	            [0, i, 1, 0],
//	            [0, i, -1, 0],
//	            [1, 0, 0, -i]]
//
// In this basis SU(2)⊗SU(2) becomes SO(4) (real orthogonal) and the
// canonical gates CAN(a,b,c) become diagonal.
func MagicBasis() *linalg.Matrix {
	b := linalg.FromRows([][]complex128{
		{1, 0, 0, 1i},
		{0, 1i, 1, 0},
		{0, 1i, -1, 0},
		{1, 0, 0, -1i},
	})
	return b.Scale(invSqrt2)
}

// magicB and magicBdg are cached copies of the basis and its adjoint.
var magicB = MagicBasis()
var magicBdg = MagicBasis().Dagger()

// ToMagic conjugates a 4x4 operator into the magic basis: B† · u · B.
func ToMagic(u *linalg.Matrix) *linalg.Matrix {
	return magicBdg.Mul(u).Mul(magicB)
}

// FromMagic conjugates a 4x4 operator out of the magic basis: B · u · B†.
func FromMagic(u *linalg.Matrix) *linalg.Matrix {
	return magicB.Mul(u).Mul(magicBdg)
}

// GammaMatrix returns m(U) = (B†UB)ᵀ(B†UB) for the SU(4)-normalized version
// of U. Its eigenvalue spectrum {e^{2iθ_j}} is a complete local invariant of
// U; the Makhlin invariants and Weyl coordinates both derive from it.
func GammaMatrix(u *linalg.Matrix) *linalg.Matrix {
	um := ToMagic(normalizeSU4(u))
	return um.Transpose().Mul(um)
}

// normalizeSU4 rescales a 4x4 unitary to determinant one.
func normalizeSU4(u *linalg.Matrix) *linalg.Matrix {
	phase, su := su4Phase(u)
	_ = phase
	return su
}

// su4Phase splits u = e^{iα}·su with det(su) = 1, returning e^{iα} and su.
func su4Phase(u *linalg.Matrix) (complex128, *linalg.Matrix) {
	det := u.Det()
	alpha := phaseOf(det) / 4
	ph := complex(math.Cos(alpha), math.Sin(alpha))
	return ph, u.Scale(1 / ph)
}

func phaseOf(z complex128) float64 { return math.Atan2(imag(z), real(z)) }
