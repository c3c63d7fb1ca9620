package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// TestLayeredMatchesUnfusedRandom is the layering engine's property test:
// at widths where the cache-blocked geometry is actually exercised —
// cross-tile members on their own sweeps, cross-tile diagonals as
// per-tile scalars and tile-local riders — the layered Run must agree
// with the op-by-op reference path within 1e-12 over the full gate
// vocabulary. (Widths ≤ 8, where every member is tile-local, are covered
// by TestFusedMatchesUnfusedRandom.)
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
// cross-tile bits batched with three tile-local h; the tile pass must
// apply each tile-local 2×2 exactly once.
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

// TestLayerOrderBits pins, bit for bit, the order in which applyLayer
// runs a layer's members: cross-tile members first, then each tile-local
// 2×2 held until the next one and the pair run back to back, an unpaired
// last one after every other member. Each case lists the ops in program
// order and the order they must take effect in; the reference applies
// them one by one over the whole array in that order. Applying them in
// program order must move some bit, or the case could not tell the two
// orders apart.
func TestLayerOrderBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	su4 := gates.RandomSU4(rng)
	cases := []struct {
		name  string
		n     int
		build func(c *circuit.Circuit)
		order []int
	}{
		{"h·rz·h", 6, func(c *circuit.Circuit) { c.H(0); c.RZ(1, 0.3); c.H(2) }, []int{1, 0, 2}},
		{"u3·siswap", 6, func(c *circuit.Circuit) { c.U3(0, 0.3, 0.5, 0.7); c.SqrtISwap(1, 2) }, []int{1, 0}},
		{"h·su4·h·h", 6, func(c *circuit.Circuit) { c.H(0); c.SU4(1, 2, su4); c.H(3); c.H(4) }, []int{1, 0, 2, 3}},
		{"h·cp·t·u3", 6, func(c *circuit.Circuit) { c.H(0); c.CP(1, 2, 0.4); c.T(3); c.U3(4, 0.2, 0.1, 0.9) }, []int{1, 2, 0, 3}},
		{"cross-tile", layerTileExp + 2, func(c *circuit.Circuit) {
			c.H(0)       // cross-tile 2×2: its own sweep, first
			c.RZ(1, 0.7) // cross-tile diagonal: a scalar per tile
			c.H(5)
			c.CP(6, 7, 0.4)
			c.U3(8, 0.3, 0.5, 0.7)
		}, []int{0, 1, 3, 2, 4}},
	}
	sameBits := func(a, b *State) bool {
		for i := range a.Amp {
			if math.Float64bits(real(a.Amp[i])) != math.Float64bits(real(b.Amp[i])) ||
				math.Float64bits(imag(a.Amp[i])) != math.Float64bits(imag(b.Amp[i])) {
				return false
			}
		}
		return true
	}
	for _, tc := range cases {
		c := circuit.New(tc.n)
		tc.build(c)
		in := randomState(t, tc.n, rng)
		run := func(order []int) *State {
			s, err := NewState(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			copy(s.Amp, in.Amp)
			for _, k := range order {
				if err := s.ApplyOp(c.Ops[k]); err != nil {
					t.Fatalf("%s: op %d: %v", tc.name, k, err)
				}
			}
			return s
		}
		members := make([]member, len(c.Ops))
		for k, op := range c.Ops {
			m, err := opMember(op, tc.n)
			if err != nil {
				t.Fatalf("%s: op %d: %v", tc.name, k, err)
			}
			members[k] = m
		}
		layered := run(nil)
		layered.applyLayer(members)
		if !sameBits(layered, run(tc.order)) {
			t.Errorf("%s: layer pass does not match ops applied in order %v bit for bit", tc.name, tc.order)
		}
		program := make([]int, len(c.Ops))
		for k := range program {
			program[k] = k
		}
		if sameBits(layered, run(program)) {
			t.Errorf("%s: program order gives the same bits; the case does not pin the order", tc.name)
		}
	}
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
