package sim

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
)

// randomState returns a normalized Haar-ish random state for kernel tests.
func randomState(t testing.TB, n int, rng *rand.Rand) *State {
	t.Helper()
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for i := range s.Amp {
		s.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(s.Amp[i])*real(s.Amp[i]) + imag(s.Amp[i])*imag(s.Amp[i])
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.Amp {
		s.Amp[i] *= scale
	}
	return s
}

func maxAmpDiff(a, b *State) float64 {
	var worst float64
	for i := range a.Amp {
		if d := cmplx.Abs(a.Amp[i] - b.Amp[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// applyGeneric applies op through the generic matrix kernels only,
// bypassing the ApplyOp fast-path dispatch.
func applyGeneric(t *testing.T, s *State, op circuit.Op) {
	t.Helper()
	u, err := circuit.Unitary(op)
	if err != nil {
		t.Fatal(err)
	}
	switch len(op.Qubits) {
	case 1:
		err = s.Apply1Q(op.Qubits[0], u)
	case 2:
		err = s.Apply2Q(op.Qubits[0], op.Qubits[1], u)
	default:
		t.Fatalf("bad arity %d", len(op.Qubits))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestFastPathsMatchGeneric checks every specialized kernel ApplyOp
// dispatches to against the generic 2×2/4×4 matrix kernels (Apply1Q/
// Apply2Q) on random states, over several random qubit assignments
// (covering maskA < maskB and maskA > maskB orders).
func TestFastPathsMatchGeneric(t *testing.T) {
	const n = 6
	const tol = 1e-12
	rng := rand.New(rand.NewSource(42))
	cases := []circuit.Op{
		{Name: "z", Qubits: []int{0}},
		{Name: "s", Qubits: []int{0}},
		{Name: "sdg", Qubits: []int{0}},
		{Name: "t", Qubits: []int{0}},
		{Name: "tdg", Qubits: []int{0}},
		{Name: "p", Qubits: []int{0}, Params: []float64{0.7}},
		{Name: "rz", Qubits: []int{0}, Params: []float64{1.3}},
		{Name: "x", Qubits: []int{0}},
		{Name: "cz", Qubits: []int{0, 1}},
		{Name: "cp", Qubits: []int{0, 1}, Params: []float64{2.1}},
		{Name: "rzz", Qubits: []int{0, 1}, Params: []float64{0.9}},
		{Name: "cx", Qubits: []int{0, 1}},
		{Name: "swap", Qubits: []int{0, 1}},
		{Name: "iswap", Qubits: []int{0, 1}},
		{Name: "siswap", Qubits: []int{0, 1}},
		// Non-specialized names exercise the generic fallback inside ApplyOp.
		{Name: "h", Qubits: []int{0}},
		{Name: "syc", Qubits: []int{0, 1}},
	}
	// Every name opMember special-cases must have a row: walk the whole
	// vocabulary and flag any specialized kernel the table would miss.
	covered := map[string]bool{}
	for _, op := range cases {
		covered[op.Name] = true
	}
	for _, name := range append(append([]string(nil), oneQNames...), twoQNames...) {
		qubits := []int{0}
		if !slices.Contains(oneQNames, name) {
			qubits = []int{0, 1}
		}
		m, err := opMember(circuit.Op{Name: name, Qubits: qubits, Params: make([]float64, nParams[name])}, n)
		if err == nil && m.kind != kMat1Q && m.kind != kMat2Q && !covered[name] {
			t.Errorf("%s has a specialized kernel (kind %d) but no row here", name, m.kind)
		}
	}
	for _, op := range cases {
		t.Run(op.Name, func(t *testing.T) {
			for rep := 0; rep < 8; rep++ {
				q := rng.Perm(n)
				got := op
				got.Qubits = append([]int(nil), op.Qubits...)
				for i := range got.Qubits {
					got.Qubits[i] = q[i]
				}
				fast := randomState(t, n, rng)
				slow := fast.Copy()
				if err := fast.ApplyOp(got); err != nil {
					t.Fatal(err)
				}
				applyGeneric(t, slow, got)
				if d := maxAmpDiff(fast, slow); d > tol {
					t.Fatalf("%s on %v: specialized kernel diverges from generic by %g", op.Name, got.Qubits, d)
				}
			}
		})
	}
}

// TestISwapFamilyCircuitCrossval runs a whole random circuit built from
// iSWAP-family gates interleaved with 1Q rotations twice — once through the
// ApplyOp inner-block mix kernel, once through the generic Apply2Q kernel — and
// requires the final states to agree. This exercises the kernel the way
// translated SNAIL circuits do: long chains of siswap ops on overlapping
// qubit pairs.
func TestISwapFamilyCircuitCrossval(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(99))
	c := circuit.New(n)
	for i := 0; i < 120; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		switch rng.Intn(3) {
		case 0:
			c.ISwap(a, b)
		case 1:
			c.SqrtISwap(a, b)
		default:
			c.Append(circuit.Op{Name: "ry", Qubits: []int{a}, Params: []float64{rng.Float64()}})
		}
	}
	fast := randomState(t, n, rng)
	slow := fast.Copy()
	if err := fast.RunCtx(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	for _, op := range c.Ops {
		applyGeneric(t, slow, op)
	}
	if d := maxAmpDiff(fast, slow); d > 1e-10 {
		t.Fatalf("iSWAP-family circuit diverges from generic kernels by %g", d)
	}
}

// TestApplyOpExplicitUnitary ensures ops carrying an explicit U never take
// a named specialized kernel, even under a specialized name.
func TestApplyOpExplicitUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u, err := circuit.Unitary(circuit.Op{Name: "h", Qubits: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// An op named "z" but carrying H must apply H.
	op := circuit.Op{Name: "z", Qubits: []int{1}, U: u}
	fast := randomState(t, 4, rng)
	slow := fast.Copy()
	if err := fast.ApplyOp(op); err != nil {
		t.Fatal(err)
	}
	if err := slow.Apply1Q(1, u); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDiff(fast, slow); d > 0 {
		t.Fatalf("explicit U ignored by dispatch (diff %g)", d)
	}
}

// TestApplyOpValidation checks the specialized kernels' ops get the same
// qubit validation as the generic kernels.
func TestApplyOpValidation(t *testing.T) {
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	bad := []circuit.Op{
		{Name: "z", Qubits: []int{3}},
		{Name: "x", Qubits: []int{-1}},
		{Name: "cx", Qubits: []int{0, 0}},
		{Name: "swap", Qubits: []int{1, 5}},
		{Name: "cz", Qubits: []int{2}},
		{Name: "iswap", Qubits: []int{2, 2}},
		{Name: "siswap", Qubits: []int{0, 4}},
	}
	for _, op := range bad {
		if err := s.ApplyOp(op); err == nil {
			t.Errorf("%s %v: expected validation error", op.Name, op.Qubits)
		}
	}
}

func TestProbabilityOutOfRange(t *testing.T) {
	s, err := NewState(2)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(-1); p != 0 {
		t.Errorf("Probability(-1) = %g, want 0", p)
	}
	if p := s.Probability(4); p != 0 {
		t.Errorf("Probability(4) = %g, want 0", p)
	}
	if p := s.Probability(0); p != 1 {
		t.Errorf("Probability(0) = %g, want 1", p)
	}
}
