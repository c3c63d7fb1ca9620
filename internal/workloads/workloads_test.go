package workloads

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func TestQuantumVolumeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 5, 8} {
		c := QuantumVolume(n, rng)
		want := n * (n / 2)
		if got := c.CountTwoQubit(); got != want {
			t.Errorf("QV(%d): %d SU4 blocks, want %d", n, got, want)
		}
		for _, op := range c.Ops {
			if op.Name != "su4" || op.U == nil || !op.U.IsUnitary(1e-9) {
				t.Fatalf("QV(%d): bad op %v", n, op)
			}
		}
	}
}

func TestQuantumVolumeDeterministic(t *testing.T) {
	a := QuantumVolume(5, rand.New(rand.NewSource(7)))
	b := QuantumVolume(5, rand.New(rand.NewSource(7)))
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("op count differs")
	}
	for i := range a.Ops {
		if !a.Ops[i].U.EqualWithin(b.Ops[i].U, 0) {
			t.Fatal("same seed produced different QV circuits")
		}
	}
}

func TestQFTMatchesDFT(t *testing.T) {
	// QFT with final swaps maps |x⟩ to (1/√N) Σ_y e^{2πi x y / N} |y⟩.
	n := 4
	N := 1 << n
	c := QFT(n, true)
	for _, x := range []int{0, 1, 5, 12, 15} {
		s, err := sim.NewBasisState(n, x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunCtx(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		for y := 0; y < N; y++ {
			want := cmplx.Exp(complex(0, 2*math.Pi*float64(x*y)/float64(N))) / complex(math.Sqrt(float64(N)), 0)
			if cmplx.Abs(s.Amp[y]-want) > 1e-9 {
				t.Fatalf("QFT|%d⟩ amp[%d] = %v, want %v", x, y, s.Amp[y], want)
			}
		}
	}
}

func TestQFTGateCounts(t *testing.T) {
	n := 8
	c := QFT(n, true)
	wantCP := n * (n - 1) / 2
	if got := c.CountByName("cp"); got != wantCP {
		t.Errorf("QFT(%d) CP count = %d, want %d", n, got, wantCP)
	}
	if got := c.CountByName("swap"); got != n/2 {
		t.Errorf("QFT(%d) swap count = %d, want %d", n, got, n/2)
	}
	if got := QFT(n, false).CountByName("swap"); got != 0 {
		t.Errorf("QFT without swaps has %d swaps", got)
	}
}

func TestQAOAVanillaShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 7
	c := QAOAVanilla(n, rng)
	if got := c.CountByName("rzz"); got != n*(n-1)/2 {
		t.Errorf("QAOA RZZ count = %d, want %d", got, n*(n-1)/2)
	}
	if got := c.CountByName("h"); got != n {
		t.Errorf("QAOA H count = %d, want %d", got, n)
	}
	if got := c.CountByName("rx"); got != n {
		t.Errorf("QAOA RX count = %d, want %d", got, n)
	}
}

func TestTIMShape(t *testing.T) {
	n, steps := 9, 3
	c := TIMHamiltonian(n, steps)
	if got := c.CountByName("rzz"); got != steps*(n-1) {
		t.Errorf("TIM RZZ count = %d, want %d", got, steps*(n-1))
	}
	if got := c.CountByName("rx"); got != steps*n {
		t.Errorf("TIM RX count = %d, want %d", got, steps*n)
	}
	// TIM is chain-local: every 2Q op touches neighbors.
	for _, op := range c.Ops {
		if op.Is2Q() && op.Qubits[1]-op.Qubits[0] != 1 {
			t.Fatalf("TIM 2Q op not on chain neighbors: %v", op)
		}
	}
}

func TestGHZState(t *testing.T) {
	n := 7
	s, err := sim.RunCircuitCtx(context.Background(), GHZ(n))
	if err != nil {
		t.Fatal(err)
	}
	all := (1 << n) - 1
	if math.Abs(s.Probability(0)-0.5) > 1e-10 || math.Abs(s.Probability(all)-0.5) > 1e-10 {
		t.Fatalf("GHZ(%d) probabilities wrong", n)
	}
}

func TestCCXTruthTable(t *testing.T) {
	// Exhaustive check of the 6-CNOT Toffoli decomposition.
	for in := 0; in < 8; in++ {
		c := circuit.New(3)
		CCX(c, 0, 1, 2)
		s, err := sim.NewBasisState(3, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunCtx(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		want := in
		if in&0b100 != 0 && in&0b010 != 0 {
			want = in ^ 1
		}
		got, p := s.DominantBasisState()
		if got != want || math.Abs(p-1) > 1e-9 {
			t.Fatalf("CCX|%03b⟩ = |%03b⟩ (p=%g), want |%03b⟩", in, got, p, want)
		}
	}
}

// encodeAdder builds the basis index for (cin, a, b) on an m-bit adder.
func encodeAdder(m, cin, a, b int) int {
	n := AdderQubits(m)
	idx := 0
	setBit := func(q int) { idx |= 1 << (n - 1 - q) }
	if cin != 0 {
		setBit(0)
	}
	for i := 0; i < m; i++ {
		if a&(1<<i) != 0 {
			setBit(1 + i)
		}
		if b&(1<<i) != 0 {
			setBit(1 + m + i)
		}
	}
	return idx
}

// decodeAdder extracts (cin, a, b, carryOut) from a basis index.
func decodeAdder(m, idx int) (cin, a, b, carry int) {
	n := AdderQubits(m)
	getBit := func(q int) int { return (idx >> (n - 1 - q)) & 1 }
	cin = getBit(0)
	for i := 0; i < m; i++ {
		a |= getBit(1+i) << i
		b |= getBit(1+m+i) << i
	}
	carry = getBit(2*m + 1)
	return
}

func TestAdderExhaustiveSmall(t *testing.T) {
	// m=2: all 32 inputs (cin, a, b).
	m := 2
	c := Adder(m)
	for cin := 0; cin < 2; cin++ {
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				s, err := sim.NewBasisState(c.N, encodeAdder(m, cin, a, b))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunCtx(context.Background(), c); err != nil {
					t.Fatal(err)
				}
				idx, p := s.DominantBasisState()
				if math.Abs(p-1) > 1e-9 {
					t.Fatalf("adder output not classical: p=%g", p)
				}
				gc, ga, gb, gcarry := decodeAdder(m, idx)
				sum := a + b + cin
				if ga != a || gc != cin {
					t.Fatalf("adder(%d,%d,%d): a/cin not restored (%d,%d)", cin, a, b, ga, gc)
				}
				if gb != sum%4 || gcarry != sum/4 {
					t.Fatalf("adder(%d,%d,%d): got b=%d carry=%d, want %d/%d",
						cin, a, b, gb, gcarry, sum%4, sum/4)
				}
			}
		}
	}
}

func TestAdderWiderSpotChecks(t *testing.T) {
	m := 4
	c := Adder(m)
	for _, tc := range [][3]int{{0, 9, 6}, {1, 15, 15}, {0, 0, 0}, {1, 7, 8}, {0, 13, 5}} {
		cin, a, b := tc[0], tc[1], tc[2]
		s, err := sim.NewBasisState(c.N, encodeAdder(m, cin, a, b))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunCtx(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		idx, _ := s.DominantBasisState()
		_, _, gb, gcarry := decodeAdder(m, idx)
		sum := a + b + cin
		if gb != sum%16 || gcarry != sum/16 {
			t.Fatalf("adder4(%d,%d,%d): got b=%d carry=%d, want %d/%d",
				cin, a, b, gb, gcarry, sum%16, sum/16)
		}
	}
}

func TestAdderForWidth(t *testing.T) {
	c, err := AdderForWidth(11)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 11 {
		t.Fatalf("AdderForWidth(11).N = %d", c.N)
	}
	if _, err := AdderForWidth(3); err == nil {
		t.Fatal("AdderForWidth(3) accepted")
	}
}

func TestGenerateRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range Names() {
		c, err := Generate(name, 8, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.N != 8 {
			t.Errorf("%s: width %d, want 8", name, c.N)
		}
		if c.CountTwoQubit() == 0 {
			t.Errorf("%s: no 2Q gates", name)
		}
	}
	if _, err := Generate("nope", 8, rng); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestNamesPinnedOrder(t *testing.T) {
	// Names() drives figure legends and the transpile CLI's -list output, so
	// its ordering is part of the reproduction contract: the paper's figure
	// order, stable across calls.
	want := []string{"QuantumVolume", "QFT", "QAOAVanilla", "TIMHamiltonian", "Adder", "GHZ"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	again := Names()
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("Names() ordering unstable across calls")
		}
	}
}

func TestGenerateRejectsInvalidWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, name := range Names() {
		for _, n := range []int{-1, 0, 1} {
			if _, err := Generate(name, n, rng); err == nil {
				t.Errorf("Generate(%q, %d) accepted an invalid width", name, n)
			}
		}
	}
	if _, err := Generate("QFT", 1, rng); err == nil || !strings.Contains(err.Error(), "too small") {
		t.Errorf("width error does not say 'too small': %v", err)
	}
}

func TestGenerateUnknownNameError(t *testing.T) {
	_, err := Generate("Shor", 8, rand.New(rand.NewSource(5)))
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "Shor"`) {
		t.Errorf("unknown-name error = %v", err)
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, name := range Names() {
		a, err := Generate(name, 6, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 6, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Ops) != len(b.Ops) {
			t.Fatalf("%s: op counts differ across identical seeds", name)
		}
		for i := range a.Ops {
			ao, bo := a.Ops[i], b.Ops[i]
			if ao.Name != bo.Name || len(ao.Qubits) != len(bo.Qubits) {
				t.Fatalf("%s: op %d differs across identical seeds", name, i)
			}
			for j := range ao.Qubits {
				if ao.Qubits[j] != bo.Qubits[j] {
					t.Fatalf("%s: op %d qubits differ across identical seeds", name, i)
				}
			}
			if (ao.U == nil) != (bo.U == nil) || (ao.U != nil && !ao.U.EqualWithin(bo.U, 0)) {
				t.Fatalf("%s: op %d matrix differs across identical seeds", name, i)
			}
		}
	}
}
