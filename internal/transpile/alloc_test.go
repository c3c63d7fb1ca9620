package transpile

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
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
	flat, err := flattenCost(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &router{
		g:      g,
		dist:   g.Distances(),
		cost:   flat,
		layout: layout.Copy(),
		rng:    rand.New(rand.NewSource(4)),
		trials: 5,
		sc:     newRouterScratch(g.N()),
	}
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
