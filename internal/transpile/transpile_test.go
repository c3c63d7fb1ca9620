package transpile

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

func TestTrivialLayout(t *testing.T) {
	l := TrivialLayout(4)
	for i, p := range l {
		if p != i {
			t.Fatalf("trivial layout[%d] = %d", i, p)
		}
	}
}

func TestLayoutValidate(t *testing.T) {
	g := topology.SquareLattice(2, 2)
	if err := (Layout{0, 1, 2, 3}).Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := (Layout{0, 0}).Validate(g); err == nil {
		t.Fatal("duplicate mapping accepted")
	}
	if err := (Layout{0, 9}).Validate(g); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
}

func TestDenseLayoutPrefersDenseRegion(t *testing.T) {
	// Tree20: the densest 5-vertex region is a module (K5 = 10 edges).
	g := topology.Tree20()
	c := circuit.New(5)
	c.CX(0, 1)
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	// Count induced edges among chosen vertices.
	edges := 0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if g.HasEdge(layout[i], layout[j]) {
				edges++
			}
		}
	}
	if edges != 10 {
		t.Errorf("dense layout induced %d edges, want 10 (a full module)", edges)
	}
}

func TestDenseLayoutFullMachine(t *testing.T) {
	g := topology.Hypercube16()
	c := circuit.New(16)
	c.CX(0, 15)
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(g); err != nil {
		t.Fatal(err)
	}
	if _, err := DenseLayout(topology.SquareLattice(2, 2), circuit.New(9)); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

// checkRouted verifies that every 2Q gate of the routed circuit acts on a
// coupled pair and that the routed circuit computes the same permutation of
// the original gates (same multiset of non-swap gates, in a dependency-
// consistent order).
func checkRouted(t *testing.T, g *topology.Graph, routed *circuit.Circuit, original *circuit.Circuit) {
	t.Helper()
	nonSwap := 0
	for _, op := range routed.Ops {
		if op.Is2Q() {
			if !g.HasEdge(op.Qubits[0], op.Qubits[1]) {
				t.Fatalf("routed 2Q op %v not on an edge", op)
			}
			if op.Name != "swap" {
				nonSwap++
			}
		} else {
			nonSwap++
		}
	}
	// Algorithmic swaps in the source are indistinguishable from routing
	// swaps in the output, so compare non-swap op counts.
	want := 0
	for _, op := range original.Ops {
		if op.Name != "swap" {
			want++
		}
	}
	if nonSwap != want {
		t.Fatalf("routed circuit has %d original non-swap ops, want %d", nonSwap, want)
	}
}

func routeTestCircuit(n int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < 3*n; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		c.CX(a, b)
		if i%3 == 0 {
			c.H(rng.Intn(n))
		}
	}
	return c
}

func TestStochasticSwapOnTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []*topology.Graph{
		topology.SquareLattice16(),
		topology.HeavyHex20(),
		topology.Tree20(),
		topology.Corral11(),
		topology.Hypercube16(),
	}
	for _, g := range graphs {
		c := routeTestCircuit(10, rng)
		layout, err := DenseLayout(g, c)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), 10, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		checkRouted(t, g, res.Circuit, c)
		if res.SwapCount != res.Circuit.CountByName("swap") {
			t.Fatalf("%s: swap count mismatch %d vs %d", g.Name, res.SwapCount, res.Circuit.CountByName("swap"))
		}
	}
}

func TestStochasticSwapDeterministicWithSeed(t *testing.T) {
	g := topology.HeavyHex20()
	c := routeTestCircuit(12, rand.New(rand.NewSource(3)))
	layout, _ := DenseLayout(g, c)
	a, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(9)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(9)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != b.SwapCount || len(a.Circuit.Ops) != len(b.Circuit.Ops) {
		t.Fatal("same seed produced different routing")
	}
}

func TestStochasticSwapNoSwapsWhenAdjacent(t *testing.T) {
	g := topology.SquareLattice(1, 4) // path
	c := circuit.New(4)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(2, 3)
	res, err := StochasticSwapCostCtx(context.Background(), g, c, TrivialLayout(4), rand.New(rand.NewSource(1)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Fatalf("adjacent circuit routed with %d swaps", res.SwapCount)
	}
}

func TestRicherTopologyNeedsFewerSwaps(t *testing.T) {
	// The paper's central observation: on the same workload, Corral/Hypercube
	// induce far fewer SWAPs than Heavy-Hex.
	rng := rand.New(rand.NewSource(5))
	c := workloads.QAOAVanilla(12, rng)
	swapsOn := func(g *topology.Graph) int {
		layout, err := DenseLayout(g, c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(11)), 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.SwapCount
	}
	heavyHex := swapsOn(topology.HeavyHex20())
	corral := swapsOn(topology.Corral12())
	if corral >= heavyHex {
		t.Errorf("Corral(1,2) swaps (%d) should be below Heavy-Hex (%d)", corral, heavyHex)
	}
}

func TestSabreSwapRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := topology.HeavyHex20()
	c := routeTestCircuit(12, rng)
	layout, _ := DenseLayout(g, c)
	res, err := SabreSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(13)), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRouted(t, g, res.Circuit, c)
	if res.SwapCount == 0 {
		t.Error("SABRE routed a dense random circuit with zero swaps (suspicious)")
	}
}

func TestTranslateToBasisCounts(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1)
	c.Swap(0, 1)
	c.CP(0, 1, math.Pi/2)

	cases := []struct {
		basis weyl.Basis
		want  int // total basis-gate count: CX + SWAP + CP(π/2)
	}{
		{weyl.BasisCX, 1 + 3 + 2},
		{weyl.BasisSqrtISwap, 2 + 3 + 2},
		{weyl.BasisSYC, 4 + 4 + 4},
		{weyl.BasisISwap, 2 + 3 + 2},
	}
	for _, tc := range cases {
		out, err := TranslateToBasis(c, tc.basis)
		if err != nil {
			t.Fatalf("%v: %v", tc.basis, err)
		}
		if got := out.CountTwoQubit(); got != tc.want {
			t.Errorf("%v: total 2Q = %d, want %d", tc.basis, got, tc.want)
		}
		counted, err := countBasis(c, tc.basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		if counted.Total2Q != tc.want {
			t.Errorf("%v: counted total 2Q = %d, want %d", tc.basis, counted.Total2Q, tc.want)
		}
	}
}

func TestTranslatePreserves1Q(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	c.RZ(1, 0.3)
	out, err := TranslateToBasis(c, weyl.BasisSqrtISwap)
	if err != nil {
		t.Fatal(err)
	}
	if out.CountByName("h") != 1 || out.CountByName("rz") != 1 {
		t.Error("1Q gates lost in translation")
	}
	if out.CountByName("siswap") != 2 {
		t.Errorf("CX → %d √iSWAP, want 2", out.CountByName("siswap"))
	}
}

func TestPulseDurationWeighting(t *testing.T) {
	// A SWAP chain: 3 basis gates in series per SWAP.
	c := circuit.New(2)
	c.Swap(0, 1)
	cx, err := TranslateToBasis(c, weyl.BasisCX)
	if err != nil {
		t.Fatal(err)
	}
	if d := PulseDuration(cx, weyl.BasisCX); math.Abs(d-3.0) > 1e-9 {
		t.Errorf("SWAP in CX basis duration = %g, want 3.0", d)
	}
	si, err := TranslateToBasis(c, weyl.BasisSqrtISwap)
	if err != nil {
		t.Fatal(err)
	}
	if d := PulseDuration(si, weyl.BasisSqrtISwap); math.Abs(d-1.5) > 1e-9 {
		t.Errorf("SWAP in √iSWAP basis duration = %g, want 1.5 (3 pulses × 0.5)", d)
	}
}

func TestTranslateIdentityClassFreebie(t *testing.T) {
	// CAN(0,0,0) is locally trivial: zero basis gates.
	c := circuit.New(2)
	c.Append(circuit.Op{Name: "can", Qubits: []int{0, 1}, Params: []float64{0, 0, 0}})
	out, err := TranslateToBasis(c, weyl.BasisCX)
	if err != nil {
		t.Fatal(err)
	}
	if out.CountTwoQubit() != 0 {
		t.Errorf("identity-class op translated to %d 2Q gates", out.CountTwoQubit())
	}
}

func TestEndToEndPipelineSmall(t *testing.T) {
	// Route + translate a QFT on the Corral and confirm structural sanity.
	g := topology.Corral11()
	c := workloads.QFT(8, true)
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(17)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRouted(t, g, routed.Circuit, c)
	trans, err := TranslateToBasis(routed.Circuit, weyl.BasisSqrtISwap)
	if err != nil {
		t.Fatal(err)
	}
	// Every 2Q op is now a √iSWAP on an edge.
	for _, op := range trans.Ops {
		if op.Is2Q() {
			if op.Name != "siswap" {
				t.Fatalf("untranslated 2Q op %v", op)
			}
			if !g.HasEdge(op.Qubits[0], op.Qubits[1]) {
				t.Fatalf("translated op off the coupling graph: %v", op)
			}
		}
	}
	if trans.CountTwoQubit() < routed.Circuit.CountTwoQubit() {
		t.Error("translation should not reduce 2Q count for QFT")
	}
}
