package repro

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/transpile"
	"repro/internal/workloads"
)

// TestIntegrationFullPipelineSemantics drives the public API end to end:
// workload → dense layout → stochastic routing → exact CX translation →
// statevector simulation, and checks the physical machine computes the same
// state as the logical circuit (up to the final layout permutation).
func TestIntegrationFullPipelineSemantics(t *testing.T) {
	c := workloads.QFT(6, true)
	g := Corral12()
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := transpile.StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(55)), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := TranslateExactCX(routed.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	logical, err := sim.RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	physical, err := sim.RunCircuitCtx(context.Background(), exact)
	if err != nil {
		t.Fatal(err)
	}
	// Embed the logical state at the final layout's positions.
	expected, err := NewState(g.N())
	if err != nil {
		t.Fatal(err)
	}
	expected.Amp[0] = 0
	for idx, amp := range logical.Amp {
		if amp == 0 {
			continue
		}
		phys := 0
		for q := 0; q < logical.N; q++ {
			if (idx>>(logical.N-1-q))&1 == 1 {
				phys |= 1 << (g.N() - 1 - routed.FinalLayout[q])
			}
		}
		expected.Amp[phys] = amp
	}
	ip, err := expected.Inner(physical)
	if err != nil {
		t.Fatal(err)
	}
	if f := cmplx.Abs(ip); math.Abs(f-1) > 1e-6 {
		t.Fatalf("physical/logical overlap %g, want 1", f)
	}
}

// TestIntegrationCodesignOrderingAcrossWorkloads verifies the paper's core
// claim across every workload at 16 qubits: the best SNAIL machine beats
// Heavy-Hex+CNOT on pulse duration.
func TestIntegrationCodesignOrderingAcrossWorkloads(t *testing.T) {
	opt := DefaultOptions()
	rng := rand.New(rand.NewSource(77))
	for _, name := range WorkloadNames() {
		c, err := GenerateWorkload(name, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		hh, err := HeavyHex20CX().EvaluateContext(context.Background(), c, opt)
		if err != nil {
			t.Fatal(err)
		}
		bestSNAIL := math.Inf(1)
		for _, m := range []Machine{
			Tree20SqrtISwap(), TreeRR20SqrtISwap(), Corral11SqrtISwap(), Corral12SqrtISwap(),
		} {
			met, err := m.EvaluateContext(context.Background(), c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if met.PulseDuration < bestSNAIL {
				bestSNAIL = met.PulseDuration
			}
		}
		if bestSNAIL >= hh.PulseDuration {
			t.Errorf("%s: best SNAIL duration %g not better than Heavy-Hex %g",
				name, bestSNAIL, hh.PulseDuration)
		}
	}
}

// TestIntegrationCorralScalingFacade runs the §7 scaling study through the
// facade.
func TestIntegrationCorralScalingFacade(t *testing.T) {
	cfg := experiments.QuickConfig()
	cfg.Parallelism = 1
	rows, err := experiments.CorralScalingContext(context.Background(), []int{6, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].Stats.Qubits != 16 {
		t.Fatalf("unexpected scaling rows: %+v", rows)
	}
}
