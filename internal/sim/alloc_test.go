package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// TestKernelAllocs is the allocation regression guard for the statevector
// kernels: applying gates to an existing state — every member kind swept
// over a whole 14-qubit state, the public Apply1Q/Apply2Q/ApplyOp entry
// points, and one multi-member layer step with a cross-tile member — must
// not allocate at all. A regression here multiplies across the 2^n
// amplitude sweeps of every simulation-backed test and example.
func TestKernelAllocs(t *testing.T) {
	const n = 14
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	su4 := gates.RandomSU4(rng)
	// Members, ops and programs are built once: the guard measures the
	// kernels, not the test's own literals.
	members := []member{
		{kind: kMat1Q, qa: 0, u: gates.H()},
		{kind: kDiag1Q, qa: 4, d: [4]complex128{1, 1i}},
		{kind: kX, qa: 13},
		{kind: kMat2Q, qa: 1, qb: 9, u: su4},
		{kind: kDiag2Q, qa: 0, qb: 7, d: [4]complex128{1, 1i, -1i, -1}},
		{kind: kCX, qa: 5, qb: 0},
		{kind: kSwap, qa: 2, qb: 11},
		{kind: kMix, qa: 12, qb: 3, d: [4]complex128{siswapDiag, siswapOff}},
	}
	diagOp := circuit.Op{Name: "rz", Qubits: []int{3}, Params: []float64{0.3}}
	permOp := circuit.Op{Name: "cx", Qubits: []int{0, 5}}
	mixOp := circuit.Op{Name: "siswap", Qubits: []int{2, 6}}
	c := circuit.New(n)
	c.H(0) // cross-tile 2×2: its own sweep inside the layer step
	c.H(n - 1)
	c.CX(3, 4)
	prog := Schedule(c)
	if prog.Steps() != 1 || prog.ops[0].kind != kLayer {
		t.Fatalf("layer fixture compiled to %d steps, want one kLayer step", prog.Steps())
	}
	type kernelCase struct {
		name string
		fn   func() error
	}
	cases := []kernelCase{
		{"Apply1Q", func() error { return s.Apply1Q(2, gates.H()) }},
		{"Apply2Q", func() error { return s.Apply2Q(1, 4, su4) }},
		{"ApplyOp/diag", func() error { return s.ApplyOp(diagOp) }},
		{"ApplyOp/perm", func() error { return s.ApplyOp(permOp) }},
		{"ApplyOp/mix", func() error { return s.ApplyOp(mixOp) }},
		{"layer step", func() error { return s.RunProgramSteps(prog, 0, 1) }},
	}
	for i := range members {
		m := &members[i]
		cases = append(cases, kernelCase{fmt.Sprintf("kind %d", m.kind), func() error { s.apply(m, s.Amp, 0); return nil }})
	}
	for _, tc := range cases {
		if err := tc.fn(); err != nil { // warm up and sanity-check
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per application; want 0", tc.name, allocs)
		}
	}
}

// TestLayerKernelAllocs guards the layer engine: executing a full kLayer
// step — cross-tile 2×2, X and 4×4 members on their own sweeps, a
// cross-tile diagonal, and tile-local members of every kind — must not
// allocate. The layer kernels run millions of
// times per sweep cell, so even one allocation per pass would dominate
// small-state throughput and thrash the GC on big ones.
func TestLayerKernelAllocs(t *testing.T) {
	n := layerTileExp + 4 // four cross-tile bits (qubits 0-3)
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	su4 := gates.RandomSU4(rng)
	layer := []member{
		{kind: kMat1Q, qa: 0, u: gates.H()},             // cross-tile 2×2
		{kind: kX, qa: 1},                               // cross-tile exchange
		{kind: kMat2Q, qa: 2, qb: 4, u: su4},            // cross-tile 4×4
		{kind: kDiag1Q, qa: 3, d: [4]complex128{1, 1i}}, // cross-tile diagonal
		{kind: kMat1Q, qa: n - 1, u: gates.H()},         // tile-local 2×2
		{kind: kMat1Q, qa: n - 2, u: gates.H()},         // tile-local 2×2
		{kind: kMat1Q, qa: n - 3, u: gates.H()},         // tile-local 2×2
		{kind: kDiag2Q, qa: 3, qb: n - 4, d: [4]complex128{1, 1, 1, -1}},
		{kind: kMat2Q, qa: n - 5, qb: n - 6, u: su4}, // tile-local 4×4
		{kind: kCX, qa: n - 7, qb: n - 8},
		{kind: kSwap, qa: n - 9, qb: n - 10},
		{kind: kMix, qa: n - 11, qb: n - 12, d: [4]complex128{iswapDiag, iswapOff}},
	}
	s.applyLayer(layer) // warm up
	allocs := testing.AllocsPerRun(10, func() { s.applyLayer(layer) })
	if allocs != 0 {
		t.Errorf("applyLayer allocates %.1f times per pass; want 0", allocs)
	}
}
