package weyl

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/gates"
)

// Basis identifies a hardware-native two-qubit basis gate. The paper's
// co-design study compares three modulator/basis pairs (Observation 1):
// CR→CNOT (IBM Heavy-Hex), FSIM→SYC (Google Square-Lattice), and
// SNAIL→√iSWAP (this paper's proposal). iSWAP is included for the SNAIL
// router's full-exchange pulses.
type Basis int

const (
	// BasisCX is the CNOT basis realized by IBM's cross-resonance modulator.
	BasisCX Basis = iota
	// BasisSqrtISwap is the √iSWAP basis native to the SNAIL modulator.
	BasisSqrtISwap
	// BasisSYC is Google's Sycamore gate, FSIM(π/2, π/6).
	BasisSYC
	// BasisISwap is the full iSWAP pulse.
	BasisISwap
)

// String returns the display name used in the paper's figure legends.
func (b Basis) String() string {
	switch b {
	case BasisCX:
		return "CX"
	case BasisSqrtISwap:
		return "sqrtISWAP"
	case BasisSYC:
		return "SYC"
	case BasisISwap:
		return "iSWAP"
	default:
		return fmt.Sprintf("Basis(%d)", int(b))
	}
}

// Duration returns the relative pulse length of one basis-gate application,
// normalized so a full iSWAP exchange pulse is 1.0. The SNAIL realizes
// n√iSWAP with proportionally scaled pulse lengths (paper §4.1), so √iSWAP
// costs 0.5; CR and SYC pulses are one full pulse each (paper §4.2
// normalization: evaluation is in units of pulses).
func (b Basis) Duration() float64 {
	if b == BasisSqrtISwap {
		return 0.5
	}
	return 1.0
}

var sycCoordOnce sync.Once
var sycCoord Coord

// Coord returns the Weyl-chamber class of the basis gate itself.
func (b Basis) Coord() Coord {
	switch b {
	case BasisCX:
		return CoordCNOT
	case BasisSqrtISwap:
		return CoordSqrtISwap
	case BasisISwap:
		return CoordISwap
	case BasisSYC:
		sycCoordOnce.Do(func() {
			c, err := Coordinates(gates.SYC())
			if err != nil {
				panic("weyl: SYC coordinates: " + err.Error())
			}
			sycCoord = c
		})
		return sycCoord
	default:
		panic("weyl: unknown basis")
	}
}

// NumGates returns how many applications of the basis gate (interleaved with
// arbitrary single-qubit gates) are required to implement a two-qubit
// unitary of class c exactly, using the best known analytical decomposition:
//
//   - CX and iSWAP (supercontrolled): 2 applications cover exactly the Z=0
//     plane of the Weyl chamber, 3 cover everything
//     (Shende–Markov–Bullock).
//   - √iSWAP: 2 applications cover the region X ≥ Y + |Z| (≈79% of
//     Haar-random unitaries), 3 cover everything (Huang et al., paper [6]).
//   - SYC: the best known analytical decomposition of an arbitrary unitary
//     uses exactly 4 applications (Crooks, paper [39]).
func (b Basis) NumGates(c Coord) int {
	if c.IsIdentityClass() {
		return 0
	}
	if c.ApproxEqual(b.Coord()) {
		return 1
	}
	switch b {
	case BasisCX, BasisISwap:
		if math.Abs(c.Z) < coordTol {
			return 2
		}
		return 3
	case BasisSqrtISwap:
		if c.X >= c.Y+math.Abs(c.Z)-coordTol {
			return 2
		}
		return 3
	case BasisSYC:
		return 4
	default:
		panic("weyl: unknown basis")
	}
}
