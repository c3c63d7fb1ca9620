package transpile

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func TestEdgeProfileRecording(t *testing.T) {
	g := topology.SquareLattice16()
	p := NewEdgeProfile(g)
	if p.Total() != 0 || p.MaxCount() != 0 {
		t.Fatal("fresh profile not empty")
	}
	e := g.Edges()[0]
	if err := p.RecordSwap(e[1], e[0]); err != nil { // reversed order OK
		t.Fatal(err)
	}
	if err := p.RecordSwap(e[0], e[1]); err != nil {
		t.Fatal(err)
	}
	if p.Count(e[0], e[1]) != 2 || p.Count(e[1], e[0]) != 2 {
		t.Errorf("count = %d/%d, want 2", p.Count(e[0], e[1]), p.Count(e[1], e[0]))
	}
	if p.Total() != 2 || p.MaxCount() != 2 {
		t.Errorf("total/max = %d/%d, want 2/2", p.Total(), p.MaxCount())
	}
	// (0,5) is not an edge of the 4x4 lattice.
	if err := p.RecordSwap(0, 5); err == nil {
		t.Error("swap on a non-edge accepted")
	}
}

func TestProfileRoutedCircuitCountsSwaps(t *testing.T) {
	g := topology.SquareLattice16()
	c, err := workloads.Generate("QuantumVolume", 12, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(3)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileRoutedCircuit(g, res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Circuit.CountByName("swap")
	if p.Total() != want {
		t.Errorf("profile total %d, circuit has %d swaps", p.Total(), want)
	}
	if want > 0 && p.MaxCount() == 0 {
		t.Error("swaps routed but no edge pressure recorded")
	}
}

func TestEdgeProfileWeights(t *testing.T) {
	g := topology.SquareLattice16()
	p := NewEdgeProfile(g)
	// Empty profile: uniform.
	for _, w := range p.Weights(1.0) {
		if w != 1 {
			t.Fatalf("empty profile weight %g, want 1", w)
		}
	}
	e0, e1 := g.Edges()[0], g.Edges()[1]
	for i := 0; i < 4; i++ {
		if err := p.RecordSwap(e0[0], e0[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RecordSwap(e1[0], e1[1]); err != nil {
		t.Fatal(err)
	}
	w := p.Weights(1.0)
	if w[0] != 2 { // hottest edge: 1 + alpha
		t.Errorf("hottest edge weight %g, want 2", w[0])
	}
	if w[1] != 1.25 { // 1 + 1.0 * 1/4
		t.Errorf("warm edge weight %g, want 1.25", w[1])
	}
	for i := 2; i < len(w); i++ {
		if w[i] != 1 {
			t.Fatalf("idle edge %d weight %g, want 1", i, w[i])
		}
	}
	// alpha <= 0 degrades to uniform.
	for _, w := range p.Weights(0) {
		if w != 1 {
			t.Fatal("alpha=0 should give uniform weights")
		}
	}
}

// routedEqual compares two routed circuits op by op.
func routedEqual(a, b *circuit.Circuit) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		oa, ob := a.Ops[i], b.Ops[i]
		if oa.Name != ob.Name || len(oa.Qubits) != len(ob.Qubits) {
			return false
		}
		for j := range oa.Qubits {
			if oa.Qubits[j] != ob.Qubits[j] {
				return false
			}
		}
	}
	return true
}

func TestNilCostReproducesBaselineRouters(t *testing.T) {
	g := topology.Corral11()
	c, err := workloads.Generate("QFT", 12, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	base, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaCost, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !routedEqual(base.Circuit, viaCost.Circuit) || base.SwapCount != viaCost.SwapCount {
		t.Error("StochasticSwapCostCtx with a nil cost is not reproducible")
	}
	sb, err := SabreSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := SabreSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !routedEqual(sb.Circuit, sc.Circuit) || sb.SwapCount != sc.SwapCount {
		t.Error("SabreSwapCostCtx with a nil cost is not reproducible")
	}
	lc, err := DenseLayoutCost(g, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range layout {
		if layout[i] != lc[i] {
			t.Fatal("DenseLayoutCost(nil) diverged from DenseLayout")
		}
	}
}

func TestWeightedCostSteersRouting(t *testing.T) {
	// Uniform-weight cost matrices must reproduce the baseline exactly
	// (hop distances as floats are the same numbers the router always used).
	g := topology.Corral11()
	c, err := workloads.Generate("QuantumVolume", 14, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := g.WeightedDistances(g.UniformWeights())
	if err != nil {
		t.Fatal(err)
	}
	base, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(11)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaUniform, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(11)), 5, uni)
	if err != nil {
		t.Fatal(err)
	}
	if !routedEqual(base.Circuit, viaUniform.Circuit) {
		t.Error("uniform weighted cost diverged from hop-distance baseline")
	}
	// A pressure-weighted matrix is allowed to change the route, but the
	// result must stay valid: same gate multiset pre-swap, routable output.
	p, err := ProfileRoutedCircuit(g, base.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := g.WeightedDistances(p.Weights(DefaultPressureAlpha))
	if err != nil {
		t.Fatal(err)
	}
	guided, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(11)), 5, wd)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := guided.Circuit.CountTwoQubit()-guided.SwapCount, base.Circuit.CountTwoQubit()-base.SwapCount; got != want {
		t.Errorf("guided pass changed non-swap 2Q content: %d vs %d", got, want)
	}
}

func TestCostMatrixValidation(t *testing.T) {
	g := topology.SquareLattice16()
	c, err := workloads.Generate("GHZ", 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([][]float64, 3)
	for i := range bad {
		bad[i] = make([]float64, 3)
	}
	if _, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(1)), 5, bad); err == nil {
		t.Error("undersized cost matrix accepted by StochasticSwapCostCtx")
	}
	if _, err := SabreSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(1)), bad); err == nil {
		t.Error("undersized cost matrix accepted by SabreSwapCostCtx")
	}
	ragged := make([][]float64, g.N())
	for i := range ragged {
		ragged[i] = make([]float64, g.N())
	}
	ragged[4] = ragged[4][:2]
	if _, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(1)), 5, ragged); err == nil {
		t.Error("ragged cost matrix accepted")
	}
}
