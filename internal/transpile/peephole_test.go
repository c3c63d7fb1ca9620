package transpile

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

func statesEqualUpToPhase(t *testing.T, a, b *sim.State) bool {
	t.Helper()
	ip, err := a.Inner(b)
	if err != nil {
		t.Fatal(err)
	}
	return math.Abs(cmplx.Abs(ip)-1) < 1e-9
}

func TestPeepholeCancelsSelfInversePairs(t *testing.T) {
	c := circuit.New(3)
	c.CX(0, 1)
	c.CX(0, 1)
	c.CZ(1, 2)
	c.CZ(2, 1) // orientation-free cancellation
	c.Swap(0, 2)
	c.Swap(0, 2)
	opt, err := Peephole(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Ops) != 0 {
		t.Fatalf("expected empty circuit, got %d ops:\n%s", len(opt.Ops), opt)
	}
}

func TestPeepholeRespectsOrientation(t *testing.T) {
	// cx(0,1)·cx(1,0) is NOT identity.
	c := circuit.New(2)
	c.CX(0, 1)
	c.CX(1, 0)
	opt, err := Peephole(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountTwoQubit() != 2 {
		t.Fatalf("orientation-mismatched CXs cancelled: %s", opt)
	}
}

func TestPeepholeBlockedByIntervening1Q(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1)
	c.H(0) // blocks cancellation
	c.CX(0, 1)
	opt, err := Peephole(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountTwoQubit() != 2 {
		t.Fatalf("cancelled across a blocking 1Q gate:\n%s", opt)
	}
	// But a 1Q gate on an unrelated qubit must not block.
	c2 := circuit.New(3)
	c2.CX(0, 1)
	c2.H(2)
	c2.CX(0, 1)
	opt2, err := Peephole(c2)
	if err != nil {
		t.Fatal(err)
	}
	if opt2.CountTwoQubit() != 0 {
		t.Fatalf("unrelated 1Q gate blocked cancellation:\n%s", opt2)
	}
}

func TestPeepholeCascade(t *testing.T) {
	// cx swap swap cx collapses completely.
	c := circuit.New(2)
	c.CX(0, 1)
	c.Swap(0, 1)
	c.Swap(0, 1)
	c.CX(0, 1)
	opt, err := Peephole(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Ops) != 0 {
		t.Fatalf("cascade not collapsed:\n%s", opt)
	}
}

func TestPeepholeMerges1QRuns(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	c.T(0)
	c.T(0)
	c.Sdg(0)
	c.H(0) // total: H T T S† H = H S S† H = identity
	opt, err := Peephole(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Ops) != 0 {
		t.Fatalf("identity 1Q run not dropped:\n%s", opt)
	}
	// Non-identity runs merge to a single gate.
	c2 := circuit.New(1)
	c2.H(0)
	c2.T(0)
	opt2, err := Peephole(c2)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt2.Ops) != 1 {
		t.Fatalf("1Q run not merged: %d ops", len(opt2.Ops))
	}
}

func TestPeepholeSemanticsRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := circuit.New(n)
		for i := 0; i < 30; i++ {
			switch rng.Intn(5) {
			case 0:
				c.H(rng.Intn(n))
			case 1:
				c.T(rng.Intn(n))
			case 2:
				c.RZ(rng.Intn(n), rng.Float64())
			default:
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				switch rng.Intn(3) {
				case 0:
					c.CX(a, b)
				case 1:
					c.CZ(a, b)
				default:
					c.Swap(a, b)
				}
			}
		}
		opt, err := Peephole(c)
		if err != nil {
			return false
		}
		if len(opt.Ops) > len(c.Ops) {
			return false
		}
		want, err := sim.RunCircuitCtx(context.Background(), c)
		if err != nil {
			return false
		}
		got, err := sim.RunCircuitCtx(context.Background(), opt)
		if err != nil {
			return false
		}
		ip, err := want.Inner(got)
		if err != nil {
			return false
		}
		return math.Abs(cmplx.Abs(ip)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPeepholeCleansTranslationPlaceholders(t *testing.T) {
	// Counting-mode translation emits identity u3 placeholders; peephole
	// must strip them all without touching the basis gates.
	c := workloads.GHZ(6)
	tr, err := TranslateToBasis(c, weyl.BasisSqrtISwap)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Peephole(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.CountByName("u3") + opt.CountByName("u"); got != 1 {
		// Only the initial H survives (as one merged 1Q gate).
		t.Errorf("placeholders not cleaned: %d 1Q ops remain", got)
	}
	if opt.CountTwoQubit() != tr.CountTwoQubit() {
		t.Error("peephole changed basis-gate count")
	}
}
