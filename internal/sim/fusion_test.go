package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// The simulator's gate vocabulary: every named 1Q/2Q gate circuit.Unitary
// resolves (su4 carries an explicit unitary), with its parameter counts.
var (
	oneQNames = []string{"id", "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "p", "u3"}
	twoQNames = []string{"cx", "cz", "cp", "swap", "iswap", "siswap", "syc", "rzz", "rxx", "ryy", "zx", "can", "su4"}
	nParams   = map[string]int{"rx": 1, "ry": 1, "rz": 1, "p": 1, "u3": 3, "cp": 1, "rzz": 1, "rxx": 1, "ryy": 1, "zx": 1, "can": 3}
)

// randomCircuit draws ops uniformly over the simulator's full gate
// vocabulary — every named 1Q/2Q gate circuit.Unitary resolves, plus
// explicit Haar-random SU(4) blocks — with random parameters and qubits.
func randomCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		name := oneQNames[rng.Intn(len(oneQNames))]
		if n > 1 && rng.Intn(2) == 0 {
			name = twoQNames[rng.Intn(len(twoQNames))]
		}
		var qubits []int
		if slices.Contains(oneQNames, name) {
			qubits = []int{rng.Intn(n)}
		} else {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			qubits = []int{a, b}
		}
		if name == "su4" {
			c.Append(circuit.Op{Name: "su4", Qubits: qubits, U: gates.RandomSU4(rng)})
			continue
		}
		var params []float64
		for k := 0; k < nParams[name]; k++ {
			params = append(params, (rng.Float64()*2-1)*math.Pi)
		}
		c.Append(circuit.Op{Name: name, Qubits: qubits, Params: params})
	}
	return c
}

// TestFusedMatchesUnfusedRandom is the fusion engine's property test: over
// randomized circuits spanning the full gate vocabulary, widths, and
// dense/sparse mixes, the fused Run must agree with the op-by-op reference
// path amplitude-for-amplitude within 1e-12.
func TestFusedMatchesUnfusedRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		c := randomCircuit(n, 40+rng.Intn(160), rng)
		fused, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := fused.RunCtx(context.Background(), c); err != nil {
			t.Fatalf("seed %d: fused run: %v", seed, err)
		}
		ref, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.RunUnfused(c); err != nil {
			t.Fatalf("seed %d: unfused run: %v", seed, err)
		}
		if d := maxAmpDiff(fused, ref); d > 1e-12 {
			t.Fatalf("seed %d (n=%d, %d ops): fused deviates from unfused by %g", seed, n, len(c.Ops), d)
		}
		if n := fused.Norm(); math.Abs(n-1) > 1e-9 {
			t.Fatalf("seed %d: fused norm %g", seed, n)
		}
	}
}

// TestFusedDiagonalHeavyCircuit stresses the diagonal-merge paths (runs of
// z/s/t/rz/p and cz/cp/rzz ladders across commuting gaps) and checks the
// schedule actually fused something.
func TestFusedDiagonalHeavyCircuit(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(99))
	c := circuit.New(n)
	diag1 := []string{"z", "s", "sdg", "t", "tdg", "rz", "p"}
	for i := 0; i < 300; i++ {
		switch rng.Intn(3) {
		case 0:
			name := diag1[rng.Intn(len(diag1))]
			op := circuit.Op{Name: name, Qubits: []int{rng.Intn(n)}}
			if name == "rz" || name == "p" {
				op.Params = []float64{rng.Float64() * math.Pi}
			}
			c.Append(op)
		case 1:
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			switch rng.Intn(3) {
			case 0:
				c.CZ(a, b)
			case 1:
				c.CP(a, b, rng.Float64())
			default:
				c.RZZ(a, b, rng.Float64())
			}
		default:
			c.H(rng.Intn(n))
		}
	}
	prog := Schedule(c)
	if prog.Fused == 0 {
		t.Fatal("diagonal-heavy circuit compiled with zero fused ops")
	}
	fused, _ := NewState(n)
	if err := fused.RunProgramCtx(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	ref, _ := NewState(n)
	if err := ref.RunUnfused(c); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDiff(fused, ref); d > 1e-12 {
		t.Fatalf("diagonal-heavy: fused deviates by %g (fused %d source ops)", d, prog.Fused)
	}
}

// TestScheduleShapes pins the scheduler's structural decisions on small
// hand-built circuits.
func TestScheduleShapes(t *testing.T) {
	// Three h's on one qubit fuse to a single 2×2 sweep.
	c := circuit.New(2)
	c.H(0)
	c.H(0)
	c.H(0)
	if p := Schedule(c); len(p.ops) != 1 || p.ops[0].kind != kMat1Q || p.Fused != 3 {
		t.Fatalf("h·h·h: got %d entries (fused %d), want one kMat1Q of 3", len(p.ops), p.Fused)
	}
	// A diagonal run stays a diagonal sweep.
	c = circuit.New(1)
	c.Z(0)
	c.S(0)
	c.T(0)
	if p := Schedule(c); len(p.ops) != 1 || p.ops[0].kind != kDiag1Q {
		t.Fatalf("z·s·t: got %+v, want one kDiag1Q", p.ops)
	}
	// cp ladder on one pair merges even across diagonals on other qubits
	// (pinned on the pass-1 schedule; layering would batch the leftover z
	// with the merged diagonal).
	c = circuit.New(3)
	c.CP(0, 1, 0.3)
	c.Z(2)
	c.CP(0, 1, 0.4)
	c.CP(1, 0, 0.5) // opposite orientation still merges
	p := scheduleUnlayered(c, true)
	nDiag2 := 0
	for _, f := range p.ops {
		if f.kind == kDiag2Q {
			nDiag2++
		}
	}
	if nDiag2 != 1 {
		t.Fatalf("cp ladder: got %d kDiag2Q entries, want 1", nDiag2)
	}
	// A 1Q run before an su4 is absorbed into its 4×4.
	rng := rand.New(rand.NewSource(3))
	c = circuit.New(2)
	c.H(0)
	c.RX(0, 0.7)
	c.SU4(0, 1, gates.RandomSU4(rng))
	if p := Schedule(c); len(p.ops) != 1 || p.ops[0].kind != kMat2Q {
		t.Fatalf("h·rx·su4: got %+v, want one kMat2Q", p.ops)
	}
	// A 1Q run is NOT absorbed into a specialized-kernel gate.
	c = circuit.New(2)
	c.H(0)
	c.RX(0, 0.7)
	c.CX(0, 1)
	if p := Schedule(c); len(p.ops) != 2 || p.ops[0].kind != kMat1Q || p.ops[1].kind != kCX {
		t.Fatalf("h·rx·cx: got %+v, want kMat1Q then a lone cx", p.ops)
	}
}

// TestProgramReuse runs one compiled program on several states.
func TestProgramReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(5, 60, rng)
	prog := Schedule(c)
	for trial := 0; trial < 3; trial++ {
		s, _ := NewState(5)
		if err := s.RunProgramCtx(context.Background(), prog); err != nil {
			t.Fatal(err)
		}
		ref, _ := NewState(5)
		if err := ref.RunUnfused(c); err != nil {
			t.Fatal(err)
		}
		if d := maxAmpDiff(s, ref); d > 1e-12 {
			t.Fatalf("reuse %d: deviates by %g", trial, d)
		}
	}
}

// TestRunEmptyCircuit pins Run's no-op contract on an empty circuit.
func TestRunEmptyCircuit(t *testing.T) {
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunCtx(context.Background(), circuit.New(3)); err != nil {
		t.Fatalf("empty circuit: %v", err)
	}
	if s.Amp[0] != 1 {
		t.Fatalf("empty circuit moved the state: amp[0] = %v", s.Amp[0])
	}
	for i := 1; i < len(s.Amp); i++ {
		if s.Amp[i] != 0 {
			t.Fatalf("empty circuit moved the state: amp[%d] = %v", i, s.Amp[i])
		}
	}
}
