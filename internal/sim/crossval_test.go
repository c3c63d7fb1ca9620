package sim

import (
	"context"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
)

// fullUnitary3 builds the explicit 8x8 matrix of a 3-qubit circuit by
// embedding each gate with Kronecker products — an independent reference
// implementation for the statevector simulator.
func fullUnitary3(c *circuit.Circuit) (*linalg.Matrix, error) {
	u := linalg.Identity(8)
	id := linalg.Identity(2)
	swap01 := gates.SWAP().Kron(id)
	swap12 := id.Kron(gates.SWAP())
	for _, op := range c.Ops {
		g, err := circuit.Unitary(op)
		if err != nil {
			return nil, err
		}
		var full *linalg.Matrix
		if len(op.Qubits) == 1 {
			switch op.Qubits[0] {
			case 0:
				full = g.Kron(id).Kron(id)
			case 1:
				full = id.Kron(g).Kron(id)
			default:
				full = id.Kron(id).Kron(g)
			}
		} else {
			a, b := op.Qubits[0], op.Qubits[1]
			// Reduce every pair to the adjacent (0,1) embedding via
			// explicit SWAP conjugations.
			switch {
			case a == 0 && b == 1:
				full = g.Kron(id)
			case a == 1 && b == 2:
				full = id.Kron(g)
			case a == 1 && b == 0:
				full = swap01.Mul(g.Kron(id)).Mul(swap01)
			case a == 2 && b == 1:
				full = swap12.Mul(id.Kron(g)).Mul(swap12)
			case a == 0 && b == 2:
				full = swap12.Mul(g.Kron(id)).Mul(swap12)
			case a == 2 && b == 0:
				full = swap12.Mul(swap01.Mul(g.Kron(id)).Mul(swap01)).Mul(swap12)
			}
		}
		u = full.Mul(u)
	}
	return u, nil
}

// TestSimulatorAgreesWithExplicitMatrices cross-validates the statevector
// simulator against dense 8x8 matrix products on random 3-qubit circuits,
// covering every qubit-pair orientation, through both Run and RunUnfused.
func TestSimulatorAgreesWithExplicitMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pairs := [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}}
	for trial := 0; trial < 20; trial++ {
		c := circuit.New(3)
		for i := 0; i < 12; i++ {
			if rng.Intn(3) == 0 {
				c.U3(rng.Intn(3), rng.Float64()*6, rng.Float64()*6, rng.Float64()*6)
			} else {
				p := pairs[rng.Intn(len(pairs))]
				c.SU4(p[0], p[1], gates.RandomSU4(rng))
			}
		}
		u, err := fullUnitary3(c)
		if err != nil {
			t.Fatal(err)
		}
		// Check on every computational basis input, through the schedule
		// and through the op-by-op reference the property tests trust.
		for in := 0; in < 8; in++ {
			for _, unfused := range []bool{false, true} {
				st, err := NewBasisState(3, in)
				if err != nil {
					t.Fatal(err)
				}
				run := func(c *circuit.Circuit) error { return st.RunCtx(context.Background(), c) }
				if unfused {
					run = st.RunUnfused
				}
				if err := run(c); err != nil {
					t.Fatal(err)
				}
				for out := 0; out < 8; out++ {
					if d := cmplx.Abs(st.Amp[out] - u.At(out, in)); d > 1e-9 {
						t.Fatalf("trial %d (unfused %v): amp[%d←%d] differs by %g", trial, unfused, out, in, d)
					}
				}
			}
		}
	}
}
