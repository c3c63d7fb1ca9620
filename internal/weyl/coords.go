package weyl

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Coord holds the canonical Weyl-chamber coordinates (X, Y, Z) of a
// two-qubit unitary's local-equivalence class, normalized to
//
//	π/4 ≥ X ≥ Y ≥ |Z|,  with Z ≥ 0 whenever X = π/4.
//
// Landmarks: identity (0,0,0); CNOT/CZ (π/4,0,0); iSWAP (π/4,π/4,0);
// SWAP (π/4,π/4,π/4); √iSWAP (π/8,π/8,0); √SWAP (π/8,π/8,π/8);
// √SWAP† (π/8,π/8,−π/8); n√iSWAP (π/4n, π/4n, 0).
type Coord struct {
	X, Y, Z float64
}

// coordTol is the tolerance for class-membership comparisons. Coordinates
// are produced by eigenvalue computations accurate to ~1e-10; 1e-7 gives a
// comfortable margin without conflating distinct classes.
const coordTol = 1e-7

// String renders the coordinates in units of π.
func (c Coord) String() string {
	return fmt.Sprintf("(%.6fπ, %.6fπ, %.6fπ)", c.X/math.Pi, c.Y/math.Pi, c.Z/math.Pi)
}

// ApproxEqual reports whether two coordinate triples agree within coordTol.
func (c Coord) ApproxEqual(d Coord) bool {
	return math.Abs(c.X-d.X) < coordTol && math.Abs(c.Y-d.Y) < coordTol && math.Abs(c.Z-d.Z) < coordTol
}

// IsIdentityClass reports whether c is the local (non-entangling) class.
func (c Coord) IsIdentityClass() bool { return c.ApproxEqual(Coord{}) }

// Known class landmarks.
var (
	CoordCNOT      = Coord{math.Pi / 4, 0, 0}
	CoordISwap     = Coord{math.Pi / 4, math.Pi / 4, 0}
	CoordSqrtISwap = Coord{math.Pi / 8, math.Pi / 8, 0}
)

// Coordinates computes the canonical Weyl-chamber coordinates of a 4x4
// unitary. It extracts the spectrum {e^{2iθ_j}} of the magic-basis Gamma
// matrix via its characteristic polynomial (robust against degeneracies),
// converts angles to interaction coefficients, and canonicalizes into the
// Weyl chamber.
func Coordinates(u *linalg.Matrix) (Coord, error) {
	if u.Rows != 4 || u.Cols != 4 {
		return Coord{}, fmt.Errorf("weyl: Coordinates requires a 4x4 matrix")
	}
	if !u.IsUnitary(1e-8) {
		return Coord{}, fmt.Errorf("weyl: Coordinates requires a unitary matrix")
	}
	m := GammaMatrix(u)
	vals, err := gammaEigenvalues(m)
	if err != nil {
		return Coord{}, fmt.Errorf("weyl: eigenvalues of gamma matrix: %w", err)
	}
	// θ_j = arg(λ_j)/2 for three eigenvalues; the fourth is pinned by
	// det(m)=1 (Σθ ≡ 0 mod 2π). Branch and ordering ambiguities are
	// absorbed by canonicalization.
	th0 := phaseOf(vals[0]) / 2
	th1 := phaseOf(vals[1]) / 2
	th3 := phaseOf(vals[2]) / 2
	a := (th0 + th1) / 2
	b := (th1 + th3) / 2
	c := (th0 + th3) / 2
	coord, _ := canonicalize(a, b, c, nil)
	return coord, nil
}

// gammaEigenvalues returns the spectrum of the (symmetric unitary) gamma
// matrix. The primary path diagonalizes via the commuting real/imaginary
// parts, which keeps full accuracy on degenerate spectra (Cliffords have
// double and quadruple eigenvalues, where polynomial root-finding loses
// half the digits). The characteristic polynomial is the fallback.
func gammaEigenvalues(m *linalg.Matrix) ([]complex128, error) {
	if p, err := linalg.SimultaneousDiagonalize(m.RealPart(), m.ImagPart()); err == nil {
		d := p.Transpose().Mul(m).Mul(p)
		return []complex128{d.At(0, 0), d.At(1, 1), d.At(2, 2), d.At(3, 3)}, nil
	}
	return linalg.Eigenvalues4(m)
}

// weylOp receives the canonicalization moves so the KAK decomposition can
// mirror them onto its local gates. A nil tracker skips the bookkeeping.
type weylOp interface {
	shift(axis int, dir int) // coordinate axis ± π/2 (dir = ±1)
	swapAxes(i, j int)       // exchange two coordinate axes
	flipSigns(i, j int)      // negate two coordinate axes
}

// canonicalize maps an arbitrary interaction triple into the Weyl chamber.
// It reports the canonical coordinates and the number of moves applied.
func canonicalize(a, b, c float64, ops weylOp) (Coord, int) {
	v := [3]float64{a, b, c}
	moves := 0
	do := func(f func()) {
		moves++
		if ops != nil {
			f()
		}
	}
	// 1. Reduce each coordinate into (−π/4, π/4] by π/2 shifts.
	for i := 0; i < 3; i++ {
		for v[i] > math.Pi/4+1e-12 {
			v[i] -= math.Pi / 2
			i := i
			do(func() { ops.shift(i, -1) })
		}
		for v[i] <= -math.Pi/4-1e-12 {
			v[i] += math.Pi / 2
			i := i
			do(func() { ops.shift(i, +1) })
		}
		// Snap the open boundary: −π/4 is equivalent to +π/4 by a shift.
		if math.Abs(v[i]+math.Pi/4) < 1e-12 {
			v[i] += math.Pi / 2
			i := i
			do(func() { ops.shift(i, +1) })
		}
	}
	// 2. Sort descending by |value| with adjacent transpositions.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 2; i++ {
			if math.Abs(v[i]) < math.Abs(v[i+1])-1e-15 {
				v[i], v[i+1] = v[i+1], v[i]
				i := i
				do(func() { ops.swapAxes(i, i+1) })
			}
		}
	}
	// 3. Make the two largest coordinates non-negative with pair flips.
	switch {
	case v[0] < -1e-15 && v[1] < -1e-15:
		v[0], v[1] = -v[0], -v[1]
		do(func() { ops.flipSigns(0, 1) })
	case v[0] < -1e-15:
		v[0], v[2] = -v[0], -v[2]
		do(func() { ops.flipSigns(0, 2) })
	case v[1] < -1e-15:
		v[1], v[2] = -v[1], -v[2]
		do(func() { ops.flipSigns(1, 2) })
	}
	// 4. Boundary rule: at X = π/4, Z and −Z are the same class; take Z ≥ 0.
	if math.Abs(v[0]-math.Pi/4) < 1e-9 && v[2] < -1e-15 {
		// Shift X down by π/2 (to −π/4) then flip (X, Z).
		v[0] -= math.Pi / 2
		do(func() { ops.shift(0, -1) })
		v[0], v[2] = -v[0], -v[2]
		do(func() { ops.flipSigns(0, 2) })
	}
	// Clean numeric negative zeros.
	for i := range v {
		if v[i] == 0 {
			v[i] = 0
		}
	}
	return Coord{v[0], v[1], v[2]}, moves
}
