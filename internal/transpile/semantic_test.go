package transpile

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// expandToPhysical embeds an n-qubit state into N physical qubits using the
// final layout (virtual q lives at physical layout[q]; unused physical
// qubits are |0⟩).
func expandToPhysical(t *testing.T, st *sim.State, layout Layout, n int) *sim.State {
	t.Helper()
	out, err := sim.NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Amp {
		out.Amp[i] = 0
	}
	for idx, amp := range st.Amp {
		if amp == 0 {
			continue
		}
		phys := 0
		for q := 0; q < st.N; q++ {
			bit := (idx >> (st.N - 1 - q)) & 1
			if bit == 1 {
				phys |= 1 << (n - 1 - layout[q])
			}
		}
		out.Amp[phys] = amp
	}
	return out
}

// checkSemantic routes+exact-translates a circuit on a topology and verifies
// the physical circuit computes the same state (up to global phase and the
// final layout permutation).
func checkSemantic(t *testing.T, g *topology.Graph, c *circuit.Circuit, seed int64) {
	t.Helper()
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(seed)), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := TranslateExactCX(routed.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCircuitCtx(context.Background(), exact)
	if err != nil {
		t.Fatal(err)
	}
	expected := expandToPhysical(t, want, routed.FinalLayout, g.N())
	ip, err := expected.Inner(got)
	if err != nil {
		t.Fatal(err)
	}
	if f := cmplx.Abs(ip); math.Abs(f-1) > 1e-6 {
		t.Fatalf("semantic mismatch: |<expected|got>| = %g", f)
	}
}

func TestSemanticGHZOnHeavyHex(t *testing.T) {
	checkSemantic(t, topology.HeavyHex20(), workloads.GHZ(8), 101)
}

func TestSemanticQFTOnTree(t *testing.T) {
	// QFT includes algorithmic swaps and phased gates.
	checkSemantic(t, topology.Tree20(), workloads.QFT(6, true), 102)
}

func TestSemanticAdderOnCorral(t *testing.T) {
	checkSemantic(t, topology.Corral11(), workloads.Adder(3), 103)
}

func TestSemanticRandomOnHypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := workloads.QuantumVolume(6, rng)
	checkSemantic(t, topology.Hypercube16(), c, 104)
}

func TestTranslateExactCountsMatchCountingMode(t *testing.T) {
	// The exact translation and the counting translation must agree on the
	// number of CX gates.
	rng := rand.New(rand.NewSource(6))
	c := workloads.QuantumVolume(5, rng)
	exact, err := TranslateExactCX(c)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := TranslateToBasis(c, weyl.BasisCX)
	if err != nil {
		t.Fatal(err)
	}
	if exact.CountByName("cx") != counted.CountTwoQubit() {
		t.Fatalf("exact CX count %d != counted %d", exact.CountByName("cx"), counted.CountTwoQubit())
	}
}
