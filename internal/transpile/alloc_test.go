package transpile

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/topology"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// TestRouterTrialAllocs is the allocation regression guard for the routing
// hot loop: once a router's scratch is warm, a full findSwaps round — N
// perturbation-pass trials plus the greedy searches — must be (near)
// allocation-free. This is what keeps the O(trials·layers) inner loop of
// every sweep from re-making O(n²) state; see routerScratch.
func TestRouterTrialAllocs(t *testing.T) {
	g := topology.Hypercube84()
	c, err := workloads.Generate("QuantumVolume", 16, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(g, layout.Copy(), rand.New(rand.NewSource(4)), 5, g.FlatDistances())
	// One non-adjacent pair under the dense layout (virtual endpoints far
	// apart keep findSwaps from returning the trivial empty sequence).
	pairs := [][2]int{{0, 15}}
	if r.allAdjacent(pairs) {
		t.Fatal("test pair is already adjacent; pick different endpoints")
	}
	if seq := r.findSwaps(pairs); seq == nil {
		t.Fatal("warm-up findSwaps failed to route the pair")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if seq := r.findSwaps(pairs); seq == nil {
			t.Fatal("findSwaps failed inside the guard")
		}
	})
	// The steady state is fully scratch-backed; allow a stray allocation
	// of slack for map/runtime noise rather than flaking.
	if allocs > 1 {
		t.Errorf("findSwaps allocates %.1f times per round; want ≤ 1 (scratch reuse regressed)", allocs)
	}
}

// TestTranslatePassAllocs guards the counting translation: on a routed
// 84-qubit QuantumVolume(32) cell, TranslatePass allocates its two
// critical-path level slices and nothing else — no translated circuit.
func TestTranslatePassAllocs(t *testing.T) {
	g := topology.Hypercube84()
	c, err := workloads.Generate("QuantumVolume", 32, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PassContext{Graph: g, Basis: weyl.BasisSqrtISwap, Circuit: c, Seed: 3, Trials: 5}
	if err := (Pipeline{LayoutPass{}, RoutePass{}}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	pass := TranslatePass{Durations: arch.DefaultTiming()}
	allocs := testing.AllocsPerRun(10, func() {
		if err := pass.Apply(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("TranslatePass allocates %.1f times per routed cell; want ≤ 2 (its level slices)", allocs)
	}
	if ctx.Counts.Total2Q == 0 {
		t.Fatal("translation counted no basis gates: the guard is vacuous")
	}
}
