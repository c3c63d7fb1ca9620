package sim

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	s, err := RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// (|00⟩ + |11⟩)/√2
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amp[0])-want) > 1e-12 || math.Abs(real(s.Amp[3])-want) > 1e-12 {
		t.Fatalf("Bell amplitudes wrong: %v", s.Amp)
	}
	if p := s.Probability(1) + s.Probability(2); p > 1e-12 {
		t.Fatalf("Bell state has weight %g on |01⟩/|10⟩", p)
	}
}

func TestBitConvention(t *testing.T) {
	// X on qubit 0 of 3 maps |000⟩ → |100⟩ = index 4.
	c := circuit.New(3)
	c.X(0)
	s, err := RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(4); math.Abs(p-1) > 1e-12 {
		t.Fatalf("X q0: P(|100⟩) = %g", p)
	}
	// X on qubit 2 maps to index 1.
	c2 := circuit.New(3)
	c2.X(2)
	s2, _ := RunCircuitCtx(context.Background(), c2)
	if p := s2.Probability(1); math.Abs(p-1) > 1e-12 {
		t.Fatalf("X q2: P(|001⟩) = %g", p)
	}
}

func TestCXConventionInState(t *testing.T) {
	// CX(ctl=1, tgt=0) on |010⟩ (qubit1 = 1) flips qubit 0 → |110⟩.
	s, err := NewBasisState(3, 0b010)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply2Q(1, 0, gates.CX()); err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0b110); math.Abs(p-1) > 1e-12 {
		t.Fatalf("CX(1,0)|010⟩: got distribution %v", s.Probabilities())
	}
}

func TestSwapGateOnState(t *testing.T) {
	s, _ := NewBasisState(2, 0b10)
	if err := s.Apply2Q(0, 1, gates.SWAP()); err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0b01); math.Abs(p-1) > 1e-12 {
		t.Fatal("SWAP did not exchange basis state")
	}
}

func TestNormPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := circuit.New(5)
	for i := 0; i < 60; i++ {
		switch rng.Intn(3) {
		case 0:
			c.U3(rng.Intn(5), rng.Float64()*6, rng.Float64()*6, rng.Float64()*6)
		case 1:
			a := rng.Intn(5)
			b := (a + 1 + rng.Intn(4)) % 5
			c.SU4(a, b, gates.RandomSU4(rng))
		default:
			a := rng.Intn(5)
			b := (a + 1 + rng.Intn(4)) % 5
			c.CX(a, b)
		}
	}
	s, err := RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Norm(); math.Abs(n-1) > 1e-9 {
		t.Fatalf("norm after random circuit = %g", n)
	}
}

func TestKronAgreement(t *testing.T) {
	// Applying u on q0 and v on q1 of a 2-qubit state equals (u⊗v) applied
	// as a single 2Q gate.
	rng := rand.New(rand.NewSource(2))
	u := gates.RandomSU2(rng)
	v := gates.RandomSU2(rng)
	s1, _ := NewState(2)
	if err := s1.Apply1Q(0, u); err != nil {
		t.Fatal(err)
	}
	if err := s1.Apply1Q(1, v); err != nil {
		t.Fatal(err)
	}
	s2, _ := NewState(2)
	if err := s2.Apply2Q(0, 1, u.Kron(v)); err != nil {
		t.Fatal(err)
	}
	f, err := s1.Fidelity(s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-12 {
		t.Fatalf("kron disagreement, fidelity %g", f)
	}
}

func TestApply2QQubitOrder(t *testing.T) {
	// CX(a=2, b=0): control is qubit 2. On |001⟩ (q2=1) flips q0 → |101⟩.
	s, _ := NewBasisState(3, 0b001)
	if err := s.Apply2Q(2, 0, gates.CX()); err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0b101); math.Abs(p-1) > 1e-12 {
		t.Fatalf("CX(2,0)|001⟩: distribution %v", s.Probabilities())
	}
}

func TestGHZProbabilities(t *testing.T) {
	n := 6
	c := circuit.New(n)
	c.H(0)
	for i := 0; i < n-1; i++ {
		c.CX(i, i+1)
	}
	s, err := RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	all := (1 << n) - 1
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(all)-0.5) > 1e-12 {
		t.Fatalf("GHZ probabilities: P(0)=%g P(all)=%g", s.Probability(0), s.Probability(all))
	}
}

func TestInnerAndFidelity(t *testing.T) {
	s, _ := NewState(2)
	tgt, _ := NewBasisState(2, 3)
	ip, err := s.Inner(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(ip) > 1e-12 {
		t.Fatal("orthogonal states have nonzero inner product")
	}
	f, _ := s.Fidelity(s)
	if math.Abs(f-1) > 1e-12 {
		t.Fatal("self fidelity != 1")
	}
}

func TestDominantBasisState(t *testing.T) {
	s, _ := NewBasisState(4, 0b1010)
	idx, p := s.DominantBasisState()
	if idx != 0b1010 || math.Abs(p-1) > 1e-12 {
		t.Fatalf("dominant = (%d, %g)", idx, p)
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Error("NewState(0) accepted")
	}
	if _, err := NewState(MaxQubits + 1); err == nil {
		t.Error("oversized state accepted")
	}
	if _, err := NewBasisState(2, 9); err == nil {
		t.Error("bad basis index accepted")
	}
	s, _ := NewState(2)
	if err := s.Apply1Q(5, gates.X()); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	if err := s.Apply2Q(0, 0, gates.CX()); err == nil {
		t.Error("repeated qubit accepted")
	}
}
