package transpile

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// twoTriangles builds a graph of two disjoint 3-cliques: vertices 0-2 and
// 3-5 with no path between the components.
func twoTriangles() *topology.Graph {
	g := topology.NewGraph("two-triangles", 6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	return g
}

// TestDenseLayoutDisconnectedTooWide is the regression for the silent
// -1-distance fallback: a circuit wider than any connected component must
// fail with a descriptive error, not a cross-component layout.
func TestDenseLayoutDisconnectedTooWide(t *testing.T) {
	g := twoTriangles()
	c := circuit.New(4)
	c.CX(0, 1)
	c.CX(2, 3)
	_, err := DenseLayout(g, c)
	if err == nil {
		t.Fatal("DenseLayout accepted a circuit spanning disconnected components")
	}
	if !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("error does not name the cause: %v", err)
	}
}

// TestDenseLayoutDisconnectedFitsComponent: a disconnected machine is fine
// as long as one component holds the whole circuit — the layout must stay
// inside a single component and the full pipeline must route it.
func TestDenseLayoutDisconnectedFitsComponent(t *testing.T) {
	g := twoTriangles()
	c := circuit.New(3)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(0, 2)
	layout, err := DenseLayout(g, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range layout[1:] {
		if g.Dist(layout[0], p) < 0 {
			t.Fatalf("DenseLayout spans components: %v", layout)
		}
	}
	rng := rand.New(rand.NewSource(7))
	res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rng, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.CountTwoQubit() < 3 {
		t.Fatalf("routed circuit lost gates: %s", res.Circuit)
	}
	// SABRE must route the confined layout too (its step budget previously
	// zeroed out on any disconnected graph via Diameter() == -1).
	sres, err := SabreSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Circuit.CountTwoQubit() < 3 {
		t.Fatalf("SABRE routed circuit lost gates: %s", sres.Circuit)
	}
}

// TestRoutersRejectCrossComponentLayout hands both routers a layout that
// straddles the two components and expects a descriptive failure instead of
// the old behavior (unreachable pairs scoring as negative, i.e. best, cost).
func TestRoutersRejectCrossComponentLayout(t *testing.T) {
	g := twoTriangles()
	c := circuit.New(2)
	c.CX(0, 1)
	bad := Layout{0, 3} // one qubit per component
	rng := rand.New(rand.NewSource(1))
	if _, err := StochasticSwapCostCtx(context.Background(), g, c, bad, rng, 5, nil); err == nil {
		t.Fatal("StochasticSwap accepted a cross-component layout")
	} else if !strings.Contains(err.Error(), "disconnected components") {
		t.Fatalf("StochasticSwap error does not name the cause: %v", err)
	}
	if _, err := SabreSwapCostCtx(context.Background(), g, c, bad, rng, nil); err == nil {
		t.Fatal("SabreSwapCostCtx accepted a cross-component layout")
	} else if !strings.Contains(err.Error(), "disconnected components") {
		t.Fatalf("SabreSwapCostCtx error does not name the cause: %v", err)
	}
}

// TestFullWidthDisconnectedIntraComponentGates: a circuit as wide as the
// whole (disconnected) machine must still route when every 2Q gate stays
// inside one component — idle or component-local qubits parked elsewhere
// are harmless, so only interacting pairs are reachability-checked.
func TestFullWidthDisconnectedIntraComponentGates(t *testing.T) {
	g := twoTriangles()
	c := circuit.New(6)
	c.CX(0, 1) // both endpoints land somewhere; gates stay intra-component
	layout := TrivialLayout(6)
	res, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(3)), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.CountTwoQubit() != 1 {
		t.Fatalf("routed circuit has %d 2Q gates, want 1", res.Circuit.CountTwoQubit())
	}
	if _, err := SabreSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(3)), nil); err != nil {
		t.Fatal(err)
	}
	// The same width with a cross-component gate must fail descriptively.
	bad := circuit.New(6)
	bad.CX(0, 3)
	if _, err := StochasticSwapCostCtx(context.Background(), g, bad, layout, rand.New(rand.NewSource(3)), 5, nil); err == nil {
		t.Fatal("StochasticSwap routed a cross-component gate")
	} else if !strings.Contains(err.Error(), "disconnected components") {
		t.Fatalf("error does not name the cause: %v", err)
	}
	if _, err := SabreSwapCostCtx(context.Background(), g, bad, layout, rand.New(rand.NewSource(3)), nil); err == nil {
		t.Fatal("SabreSwapCostCtx routed a cross-component gate")
	}
}

// TestTranslateUnknownBasisReturnsError is the regression for the
// basisGateName panic: every translation entry point must reject an
// unrecognized basis with an error, mid-translation included.
func TestTranslateUnknownBasisReturnsError(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	bogus := weyl.Basis(99)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("translation panicked on unknown basis: %v", r)
		}
	}()
	if _, err := TranslateToBasis(c, bogus); err == nil {
		t.Fatal("TranslateToBasis accepted an unknown basis")
	} else if !strings.Contains(err.Error(), "unknown basis") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := countBasis(c, bogus, nil); err == nil {
		t.Fatal("countBasis accepted an unknown basis")
	}
	if d := PulseDuration(c, bogus); d != 0 {
		t.Fatalf("PulseDuration(unknown basis) = %g, want 0", d)
	}
}
