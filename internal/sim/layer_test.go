package sim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// TestLayeredMatchesUnfusedRandom is the layering engine's property test:
// at widths where the cache-blocked geometry is actually exercised —
// cross-tile members on their own sweeps, cross-tile diagonals as
// per-tile scalars, tile-local riders and fused 2×2 pairs — the layered
// Run must agree with the op-by-op reference path within 1e-12 over the
// full gate vocabulary. (Widths ≤ 8, where every member is tile-local, are
// covered by TestFusedMatchesUnfusedRandom.)
func TestLayeredMatchesUnfusedRandom(t *testing.T) {
	cases := []struct {
		n, ops int
		seed   int64
	}{
		{layerTileExp + 1, 160, 41}, // one cross-tile bit
		{layerTileExp + 2, 160, 42}, // two cross-tile bits
		{layerTileExp + 4, 120, 43}, // four cross-tile bits
	}
	for _, tc := range cases {
		c := randomCircuit(tc.n, tc.ops, rand.New(rand.NewSource(tc.seed)))
		checkLayeredMatchesUnfused(t, c)
	}
}

// TestReservedDropRepro pins one hand-built input: an x and two h on
// cross-tile bits batched with three tile-local h, so one tile-local 2×2
// is left unpaired in the tile pass and must still be applied exactly once.
func TestReservedDropRepro(t *testing.T) {
	n := layerTileExp + 3 // qubits 0..2 are cross-tile bits
	c := circuit.New(n)
	c.X(0)
	c.H(1)
	c.H(2)
	for q := n - 3; q < n; q++ {
		c.H(q)
	}
	checkLayeredMatchesUnfused(t, c)
}

// checkLayeredMatchesUnfused requires c to schedule at least one kLayer
// step and the layered run to agree with the op-by-op path within 1e-12.
func checkLayeredMatchesUnfused(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	n := c.N
	prog := Schedule(c)
	layered := 0
	for i := range prog.ops {
		if prog.ops[i].kind == kLayer {
			layered++
		}
	}
	if layered == 0 {
		t.Fatalf("n=%d: schedule built no kLayer steps — the property run would not exercise layering", n)
	}
	fused, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := fused.RunProgramCtx(context.Background(), prog); err != nil {
		t.Fatalf("n=%d: layered run: %v", n, err)
	}
	ref, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunUnfused(c); err != nil {
		t.Fatalf("n=%d: unfused run: %v", n, err)
	}
	if d := maxAmpDiff(fused, ref); d > 1e-12 {
		t.Fatalf("n=%d (%d ops, %d layers): layered deviates from unfused by %g", n, len(c.Ops), layered, d)
	}
}

// TestBuildLayersStructure pins the grouping rule on hand-built schedules.
func TestBuildLayersStructure(t *testing.T) {
	// Two su4s on disjoint pairs batch into one kLayer of two members.
	rng := rand.New(rand.NewSource(7))
	c := circuit.New(4)
	c.SU4(0, 1, gates.RandomSU4(rng))
	c.SU4(2, 3, gates.RandomSU4(rng))
	p := Schedule(c)
	if len(p.ops) != 1 || p.ops[0].kind != kLayer || len(p.ops[0].members) != 2 {
		t.Fatalf("disjoint su4 pair: got %+v, want one kLayer of 2 members", p.ops)
	}
	if p.StepForOp(0) != 0 || p.StepForOp(1) != 0 {
		t.Fatalf("disjoint su4 pair: srcStep %v, want both 0", p.srcStep)
	}

	// Overlapping su4s conflict: two steps, neither layered.
	c = circuit.New(3)
	c.SU4(0, 1, gates.RandomSU4(rng))
	c.SU4(1, 2, gates.RandomSU4(rng))
	p = Schedule(c)
	if len(p.ops) != 2 {
		t.Fatalf("overlapping su4s: got %d steps, want 2", len(p.ops))
	}

	// Diagonals may share qubits inside one layer.
	c = circuit.New(3)
	c.CZ(0, 1)
	c.CP(1, 2, 0.4)
	p = Schedule(c)
	if len(p.ops) != 1 || p.ops[0].kind != kLayer || len(p.ops[0].members) != 2 {
		t.Fatalf("cz·cp sharing qubit 1: got %+v, want one kLayer of 2 diagonal members", p.ops)
	}

	// A non-diagonal member conflicts with a diagonal on its qubit.
	c = circuit.New(2)
	c.CZ(0, 1)
	c.SU4(0, 1, gates.RandomSU4(rng))
	p = Schedule(c)
	for i := range p.ops {
		if p.ops[i].kind == kLayer {
			t.Fatalf("cz then su4 on same pair: step %d layered, want none", i)
		}
	}

	// An unconvertible entry (unresolvable unitary) is a barrier: the two
	// batchable su4s around it stay in separate groups.
	c = circuit.New(4)
	c.SU4(0, 1, gates.RandomSU4(rng))
	c.Append(circuit.Op{Name: "mystery", Qubits: []int{0}})
	c.SU4(2, 3, gates.RandomSU4(rng))
	p = Schedule(c)
	if len(p.ops) != 3 {
		t.Fatalf("barrier between su4s: got %d steps, want 3", len(p.ops))
	}
	for i := range p.ops {
		if p.ops[i].kind == kLayer {
			t.Fatalf("barrier between su4s: step %d layered, want none", i)
		}
	}
}

// TestScheduleBackwardAbsorption pins the backward-chain fold: entries
// acting entirely inside an arriving generic 2Q gate's pair — trailing 1Q
// runs, merged diagonals, specialized-2Q passthroughs — collapse into its
// single 4×4 sweep, and srcStep follows them through compaction.
func TestScheduleBackwardAbsorption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	// A 1Q run *after* an su4 on its qubit folds back into the 4×4.
	c := circuit.New(2)
	c.SU4(0, 1, gates.RandomSU4(rng))
	c.H(0)
	c.RX(0, 0.3)
	p := Schedule(c)
	if len(p.ops) != 1 || p.ops[0].kind != kMat2Q {
		t.Fatalf("su4·h·rx: got %+v, want one kMat2Q", p.ops)
	}

	// The chain preceding an su4 on its own pair — 1Q entries on both
	// qubits, a merged cp·cz diagonal, a cx passthrough — all fold in,
	// leaving exactly one step; every source op maps to it.
	c = circuit.New(3)
	c.H(0)
	c.RX(0, 0.7) // non-diagonal run on 0: flushed by the cp below
	c.CX(0, 1)   // specialized passthrough on the pair
	c.CP(0, 1, 0.3)
	c.CZ(0, 1) // merges with the cp
	c.T(2)     // disjoint: commutes past, stays its own entry
	c.SU4(0, 1, gates.RandomSU4(rng))
	p = scheduleUnlayered(c) // pinned pre-layering: the layer pass would batch the leftover t
	n2q := 0
	for i := range p.ops {
		if p.ops[i].kind == kMat2Q {
			n2q++
		}
	}
	if len(p.ops) != 2 || n2q != 1 {
		t.Fatalf("chain before su4: got %d steps (%d kMat2Q), want 2 steps with 1 kMat2Q", len(p.ops), n2q)
	}
	for i := 0; i < 5; i++ {
		if s := p.StepForOp(i); s < 0 || s >= len(p.ops) || p.ops[s].kind != kMat2Q {
			t.Fatalf("chain before su4: op %d maps to step %d, want the kMat2Q step", i, s)
		}
	}

	// The folds are numerically exact: layered/fused vs unfused 1e-12.
	for seed := int64(60); seed < 66; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(6, 120, rng)
		fused, _ := NewState(6)
		if err := fused.RunCtx(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		ref, _ := NewState(6)
		if err := ref.RunUnfused(c); err != nil {
			t.Fatal(err)
		}
		if d := maxAmpDiff(fused, ref); d > 1e-12 {
			t.Fatalf("seed %d: absorption-heavy schedule deviates by %g", seed, d)
		}
	}
}
