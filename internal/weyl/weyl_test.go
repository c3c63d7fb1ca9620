package weyl

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
)

func TestMagicBasisUnitary(t *testing.T) {
	if !MagicBasis().IsUnitary(1e-14) {
		t.Fatal("magic basis not unitary")
	}
}

func TestLocalsAreRealInMagicBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		k := gates.RandomSU2(rng).Kron(gates.RandomSU2(rng))
		km := ToMagic(k)
		if km.MaxImagAbs() > 1e-10 {
			t.Fatalf("trial %d: SU(2)⊗SU(2) not real in magic basis (%g)", trial, km.MaxImagAbs())
		}
		if !km.IsUnitary(1e-10) {
			t.Fatalf("trial %d: magic transform broke unitarity", trial)
		}
	}
}

func TestCanonicalDiagonalInMagicBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		cm := ToMagic(gates.Canonical(a, b, c))
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i != j && cmplx.Abs(cm.At(i, j)) > 1e-10 {
					t.Fatalf("trial %d: CAN not diagonal in magic basis at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestCoordinatesKnownGates(t *testing.T) {
	q := math.Pi / 4
	cases := []struct {
		name string
		u    *linalg.Matrix
		want Coord
	}{
		{"I", linalg.Identity(4), Coord{0, 0, 0}},
		{"CX", gates.CX(), Coord{q, 0, 0}},
		{"CZ", gates.CZ(), Coord{q, 0, 0}},
		{"SWAP", gates.SWAP(), Coord{q, q, q}},
		{"iSWAP", gates.ISwap(), Coord{q, q, 0}},
		{"sqrtISWAP", gates.SqrtISwap(), Coord{q / 2, q / 2, 0}},
		{"3rdRootISWAP", gates.NRootISwap(3), Coord{q / 3, q / 3, 0}},
		{"7thRootISWAP", gates.NRootISwap(7), Coord{q / 7, q / 7, 0}},
		{"ZX(pi/2)", gates.ZX(math.Pi / 2), Coord{q, 0, 0}},
		{"CPhase(pi)", gates.CPhase(math.Pi), Coord{q, 0, 0}},
		{"CPhase(pi/2)", gates.CPhase(math.Pi / 2), Coord{q / 2, 0, 0}},
		{"RZZ(pi/2)", gates.RZZ(math.Pi / 2), Coord{q, 0, 0}}, // RZZ(π/2) ~ CZ ~ CNOT
		{"RZZ(pi/4)", gates.RZZ(math.Pi / 4), Coord{q / 2, 0, 0}},
		{"SYC", gates.SYC(), Coord{q, q, math.Pi / 24}},
	}
	for _, tc := range cases {
		got, err := Coordinates(tc.u)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !almostEq(got.X, tc.want.X) || !almostEq(got.Y, tc.want.Y) || !almostEq(got.Z, tc.want.Z) {
			t.Errorf("%s: coords %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCoordinatesLocalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		u := gates.RandomSU4(rng)
		c1, err := Coordinates(u)
		if err != nil {
			t.Fatal(err)
		}
		k1 := gates.RandomSU2(rng).Kron(gates.RandomSU2(rng))
		k2 := gates.RandomSU2(rng).Kron(gates.RandomSU2(rng))
		c2, err := Coordinates(k1.Mul(u).Mul(k2))
		if err != nil {
			t.Fatal(err)
		}
		if !c1.ApproxEqual(c2) {
			t.Fatalf("trial %d: coords changed under locals: %v vs %v", trial, c1, c2)
		}
	}
}

func TestCoordinatesOfCanonicalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		a := (rng.Float64() - 0.5) * 2 * math.Pi
		b := (rng.Float64() - 0.5) * 2 * math.Pi
		c := (rng.Float64() - 0.5) * 2 * math.Pi
		want, _ := canonicalize(a, b, c, nil)
		got, err := Coordinates(gates.Canonical(a, b, c))
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(want) {
			t.Fatalf("trial %d: CAN(%g,%g,%g): got %v want %v", trial, a, b, c, got, want)
		}
	}
}

func TestCanonicalChamberInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		a := (rng.Float64() - 0.5) * 4 * math.Pi
		b := (rng.Float64() - 0.5) * 4 * math.Pi
		c := (rng.Float64() - 0.5) * 4 * math.Pi
		v, _ := canonicalize(a, b, c, nil)
		if !(v.X <= math.Pi/4+1e-9 && v.X >= v.Y-1e-12 && v.Y >= math.Abs(v.Z)-1e-12) {
			t.Fatalf("trial %d: %v not in chamber", trial, v)
		}
		if math.Abs(v.X-math.Pi/4) < 1e-10 && v.Z < -1e-10 {
			t.Fatalf("trial %d: boundary rule violated: %v", trial, v)
		}
	}
}

func TestKAKReconstructionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		u := gates.RandomSU4(rng)
		d, err := KAK(u)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if diff := d.Reconstruct().MaxAbsDiff(u); diff > 1e-7 {
			t.Fatalf("trial %d: reconstruction diff %g", trial, diff)
		}
		// Canonical coordinates must match the eigenvalue-only path.
		want, err := Coordinates(u)
		if err != nil {
			t.Fatal(err)
		}
		if !d.C.ApproxEqual(want) {
			t.Fatalf("trial %d: KAK coords %v != Coordinates %v", trial, d.C, want)
		}
	}
}

func TestKAKNamedGates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]*linalg.Matrix{
		"I":          linalg.Identity(4),
		"CX":         gates.CX(),
		"CZ":         gates.CZ(),
		"SWAP":       gates.SWAP(),
		"iSWAP":      gates.ISwap(),
		"sqrtISWAP":  gates.SqrtISwap(),
		"SYC":        gates.SYC(),
		"ZX":         gates.ZX(math.Pi / 2),
		"CPhase":     gates.CPhase(0.37),
		"RZZ":        gates.RZZ(1.1),
		"locals":     gates.RandomSU2(rng).Kron(gates.RandomSU2(rng)),
		"5thISWAP":   gates.NRootISwap(5),
		"phased SU4": gates.RandomSU4(rng).Scale(cmplx.Exp(complex(0, 0.83))),
	}
	for name, u := range cases {
		d, err := KAK(u)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := d.Reconstruct().MaxAbsDiff(u); diff > 1e-7 {
			t.Errorf("%s: reconstruction diff %g", name, diff)
		}
		for fname, f := range map[string]*linalg.Matrix{"K1l": d.K1l, "K1r": d.K1r, "K2l": d.K2l, "K2r": d.K2r} {
			if !f.IsUnitary(1e-8) {
				t.Errorf("%s: factor %s not unitary", name, fname)
			}
		}
	}
}

func TestSplitTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		a, b := gates.RandomSU2(rng), gates.RandomSU2(rng)
		phase := cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
		k := a.Kron(b).Scale(phase)
		l, r, ph, err := SplitTensor(k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !l.Kron(r).Scale(ph).EqualWithin(k, 1e-9) {
			t.Fatalf("trial %d: split does not recompose", trial)
		}
	}
	if _, _, _, err := SplitTensor(gates.CX()); err == nil {
		t.Fatal("SplitTensor accepted an entangling gate")
	}
}

func TestBasisCounts(t *testing.T) {
	q := math.Pi / 4
	id := Coord{}
	cnot := Coord{q, 0, 0}
	iswap := Coord{q, q, 0}
	swap := Coord{q, q, q}
	sqisw := Coord{q / 2, q / 2, 0}
	ssw := Coord{q / 2, q / 2, q / 2} // √SWAP
	cp := Coord{q / 2, 0, 0}          // CPhase(π/2)

	type tc struct {
		b    Basis
		c    Coord
		want int
	}
	cases := []tc{
		{BasisCX, id, 0}, {BasisCX, cnot, 1}, {BasisCX, iswap, 2}, {BasisCX, swap, 3},
		{BasisCX, sqisw, 2}, {BasisCX, cp, 2}, {BasisCX, ssw, 3},
		{BasisSqrtISwap, id, 0}, {BasisSqrtISwap, sqisw, 1}, {BasisSqrtISwap, cnot, 2},
		{BasisSqrtISwap, iswap, 2}, {BasisSqrtISwap, swap, 3}, {BasisSqrtISwap, ssw, 3},
		{BasisSqrtISwap, cp, 2},
		{BasisISwap, iswap, 1}, {BasisISwap, cnot, 2}, {BasisISwap, swap, 3},
		{BasisSYC, id, 0}, {BasisSYC, cnot, 4}, {BasisSYC, swap, 4},
	}
	for _, c := range cases {
		if got := c.b.NumGates(c.c); got != c.want {
			t.Errorf("%v.NumGates(%v) = %d, want %d", c.b, c.c, got, c.want)
		}
	}
	// SYC recognizes its own class.
	sc, err := Coordinates(gates.SYC())
	if err != nil {
		t.Fatal(err)
	}
	if got := BasisSYC.NumGates(sc); got != 1 {
		t.Errorf("SYC self-count = %d, want 1", got)
	}
}

func TestHaarFractionTwoSqrtISwap(t *testing.T) {
	// Paper [6]: ~79% of Haar-random two-qubit unitaries need only two
	// √iSWAPs, while (almost) all need three CNOTs.
	rng := rand.New(rand.NewSource(11))
	const n = 400
	two := 0
	threeCX := 0
	for i := 0; i < n; i++ {
		u := gates.RandomSU4(rng)
		c, err := Coordinates(u)
		if err != nil {
			t.Fatal(err)
		}
		if BasisSqrtISwap.NumGates(c) == 2 {
			two++
		}
		if BasisCX.NumGates(c) == 3 {
			threeCX++
		}
	}
	frac := float64(two) / n
	if frac < 0.70 || frac > 0.88 {
		t.Errorf("2-√iSWAP Haar fraction = %.3f, want ≈0.79", frac)
	}
	if threeCX != n {
		t.Errorf("Haar unitaries needing 3 CNOTs = %d/%d, want all", threeCX, n)
	}
}

func TestBasisDurations(t *testing.T) {
	if BasisCX.Duration() != 1.0 || BasisSYC.Duration() != 1.0 || BasisISwap.Duration() != 1.0 {
		t.Error("full-pulse bases must have duration 1.0")
	}
	if BasisSqrtISwap.Duration() != 0.5 {
		t.Error("√iSWAP duration must be 0.5 (half an iSWAP pulse)")
	}
}

func TestCoordinatesRejectsBadInput(t *testing.T) {
	if _, err := Coordinates(linalg.Identity(3)); err == nil {
		t.Error("accepted 3x3")
	}
	notU := linalg.New(4, 4)
	notU.Set(0, 0, 2)
	if _, err := Coordinates(notU); err == nil {
		t.Error("accepted non-unitary")
	}
}
