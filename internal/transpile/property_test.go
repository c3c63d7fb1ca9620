package transpile

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// randCircuitOn builds a random 1Q/2Q circuit over n qubits.
func randCircuitOn(rng *rand.Rand, n, ops int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64())
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			if rng.Intn(5) == 0 {
				c.Swap(a, b)
			} else {
				c.CX(a, b)
			}
		}
	}
	return c
}

// TestPropertyRoutingPreservesGateMultiset: for random circuits and random
// seeds, routing never loses or reorders the non-swap gate multiset per
// qubit-dependency order, and every emitted 2Q op sits on an edge.
func TestPropertyRoutingPreservesGateMultiset(t *testing.T) {
	graphs := []*topology.Graph{
		topology.HeavyHex20(),
		topology.Corral12(),
		topology.Hypercube16(),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphs[int(uint64(seed)%uint64(len(graphs)))]
		c := randCircuitOn(rng, 4+rng.Intn(8), 12+rng.Intn(20))
		layout, err := DenseLayout(g, c)
		if err != nil {
			return false
		}
		res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rng, 4, nil)
		if err != nil {
			return false
		}
		// Count gates by name (excluding swap, which mixes with routing).
		count := func(cc *circuit.Circuit) map[string]int {
			m := map[string]int{}
			for _, op := range cc.Ops {
				if op.Name != "swap" {
					m[op.Name]++
				}
			}
			return m
		}
		want, got := count(c), count(res.Circuit)
		if len(want) != len(got) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		for _, op := range res.Circuit.Ops {
			if op.Is2Q() && !g.HasEdge(op.Qubits[0], op.Qubits[1]) {
				return false
			}
		}
		// Routed swap count is consistent.
		return res.Circuit.CountByName("swap") == c.CountByName("swap")+res.SwapCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFinalLayoutIsPermutation: the final layout is always a valid
// injective map.
func TestPropertyFinalLayoutIsPermutation(t *testing.T) {
	g := topology.Tree20()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randCircuitOn(rng, 6, 25)
		layout, err := DenseLayout(g, c)
		if err != nil {
			return false
		}
		res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rng, 4, nil)
		if err != nil {
			return false
		}
		return res.FinalLayout.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSinglePairShortestPath: routing one far-apart gate on a path graph
// uses exactly distance-1 swaps (optimality on the trivial case).
func TestSinglePairShortestPath(t *testing.T) {
	g := topology.SquareLattice(1, 8) // a path
	c := circuit.New(8)
	c.CX(0, 7)
	res, err := StochasticSwapCostCtx(context.Background(), g, c, TrivialLayout(8), rand.New(rand.NewSource(3)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 6 {
		t.Errorf("path routing used %d swaps, want 6 (distance-1)", res.SwapCount)
	}
}

// TestSabreSingleGate: SABRE routes the same trivial case near-optimally.
func TestSabreSingleGate(t *testing.T) {
	g := topology.SquareLattice(1, 6)
	c := circuit.New(6)
	c.CX(0, 5)
	res, err := SabreSwapCostCtx(context.Background(), g, c, TrivialLayout(6), rand.New(rand.NewSource(4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 4 {
		t.Errorf("SABRE path routing used %d swaps, want 4", res.SwapCount)
	}
}
