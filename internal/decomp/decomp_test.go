package decomp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/optimize"
)

func fastCfg() Config {
	return Config{Restarts: 3, Adam: optimize.AdamConfig{MaxIter: 300, LearningRate: 0.08}}
}

func TestHSFidelity(t *testing.T) {
	u := gates.CX()
	if f := HSFidelity(u, u); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self fidelity = %g", f)
	}
	// Global phase invariance.
	if f := HSFidelity(u, u.Scale(1i)); math.Abs(f-1) > 1e-12 {
		t.Fatalf("phase-shifted fidelity = %g", f)
	}
	if f := HSFidelity(gates.CX(), gates.SWAP()); f > 0.99 {
		t.Fatalf("CX vs SWAP fidelity = %g, should be < 1", f)
	}
}

func TestBaseFidelityModel(t *testing.T) {
	// Paper's example: a 90%-fidelity iSWAP pulse gives a 95% √iSWAP pulse.
	if f := BaseFidelity(0.90, 2); math.Abs(f-0.95) > 1e-12 {
		t.Fatalf("BaseFidelity(0.9, 2) = %g, want 0.95", f)
	}
	if f := BaseFidelity(0.99, 4); math.Abs(f-0.9975) > 1e-12 {
		t.Fatalf("BaseFidelity(0.99, 4) = %g, want 0.9975", f)
	}
}

func TestTemplateUnitaryShape(t *testing.T) {
	params := make([]float64, ParamsPerTemplate(3))
	u, err := TemplateUnitary(2, 3, params)
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsUnitary(1e-10) {
		t.Fatal("template not unitary")
	}
	if _, err := TemplateUnitary(2, 3, params[:5]); err == nil {
		t.Fatal("wrong param count accepted")
	}
}

// TestTemplateCircuitMatchesUnitary multiplies out the op sequence that
// TemplateCircuit builds for the noisy Fig. 15 cells and compares it with
// TemplateUnitary's Eq. 10 product.
func TestTemplateCircuitMatchesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nk := range [][2]int{{1, 1}, {2, 3}, {3, 2}} {
		n, k := nk[0], nk[1]
		params := make([]float64, ParamsPerTemplate(k))
		for i := range params {
			params[i] = rng.Float64() * 2 * math.Pi
		}
		want, err := TemplateUnitary(n, k, params)
		if err != nil {
			t.Fatal(err)
		}
		c, err := TemplateCircuit(n, k, params)
		if err != nil {
			t.Fatal(err)
		}
		got := linalg.Identity(4)
		for _, op := range c.Ops {
			u, err := circuit.Unitary(op)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case len(op.Qubits) == 2:
			case op.Qubits[0] == 0:
				u = u.Kron(gates.I2())
			default:
				u = gates.I2().Kron(u)
			}
			got = u.Mul(got)
		}
		if !got.EqualWithin(want, 1e-12) {
			t.Errorf("n=%d k=%d: TemplateCircuit's ops multiply out to a different unitary than TemplateUnitary", n, k)
		}
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	target := gates.RandomSU4(rng)
	obj := newObjective(target, 3, 2)
	x := make([]float64, ParamsPerTemplate(2))
	for i := range x {
		x[i] = rng.Float64() * 2 * math.Pi
	}
	f0, g := obj.fg(x)
	plain := func(y []float64) float64 {
		f, _ := obj.fg(y)
		return f
	}
	_, gFD := optimize.FiniteDiffGrad(plain, 1e-6)(x)
	_ = f0
	for i := range g {
		if math.Abs(g[i]-gFD[i]) > 1e-5 {
			t.Fatalf("gradient mismatch at %d: analytic %g vs FD %g", i, g[i], gFD[i])
		}
	}
}

func TestDecomposeSelf(t *testing.T) {
	// One √iSWAP template reproduces √iSWAP exactly.
	rng := rand.New(rand.NewSource(2))
	res, err := Decompose(gates.SqrtISwap(), 2, 1, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Infidelity > 1e-7 {
		t.Fatalf("√iSWAP self-decomposition infidelity %g", res.Infidelity)
	}
	// And the optimized parameters really reconstruct it.
	u, err := TemplateUnitary(2, 1, res.Params)
	if err != nil {
		t.Fatal(err)
	}
	if f := HSFidelity(u, gates.SqrtISwap()); f < 1-1e-6 {
		t.Fatalf("reconstructed fidelity %g", f)
	}
}

func TestDecomposeCNOTWithTwoSqrtISwaps(t *testing.T) {
	// Analytic theory (paper §2.3): CNOT = 2 √iSWAP + locals.
	rng := rand.New(rand.NewSource(3))
	res, err := Decompose(gates.CX(), 2, 2, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Infidelity > 1e-6 {
		t.Fatalf("CNOT with 2 √iSWAP: infidelity %g, want ≈0", res.Infidelity)
	}
	// One √iSWAP is not enough for CNOT.
	res1, err := Decompose(gates.CX(), 2, 1, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Infidelity < 1e-3 {
		t.Fatalf("CNOT with 1 √iSWAP reached infidelity %g — impossible", res1.Infidelity)
	}
}

func TestDecomposeHaarWithThreeSqrtISwaps(t *testing.T) {
	// Any 2Q unitary needs at most 3 √iSWAPs (paper [6]).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3; trial++ {
		target := gates.RandomSU4(rng)
		res, err := Decompose(target, 2, 3, rng, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.Infidelity > 1e-5 {
			t.Fatalf("trial %d: Haar with 3 √iSWAP infidelity %g", trial, res.Infidelity)
		}
	}
}

func TestSmallerFractionsNeedMoreGates(t *testing.T) {
	// Fig. 15 (top left): at fixed k=3, 4√iSWAP reaches worse fidelity than
	// √iSWAP on a generic target; at larger k it catches up.
	rng := rand.New(rand.NewSource(5))
	target := gates.RandomSU4(rng)
	r2, err := Decompose(target, 2, 3, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Decompose(target, 4, 3, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r4.Infidelity < r2.Infidelity {
		t.Fatalf("4√iSWAP (k=3) infidelity %g should exceed √iSWAP's %g", r4.Infidelity, r2.Infidelity)
	}
	r4b, err := Decompose(target, 4, 6, rng, Config{Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r4b.Infidelity > 1e-3 {
		t.Fatalf("4√iSWAP with k=6 infidelity %g, expected near-exact", r4b.Infidelity)
	}
}

func TestSwapNeedsThreeSqrtISwap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	res2, err := Decompose(gates.SWAP(), 2, 2, rng, Config{Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Infidelity < 1e-3 {
		t.Fatalf("SWAP with 2 √iSWAP infidelity %g — impossible per theory", res2.Infidelity)
	}
	res3, err := Decompose(gates.SWAP(), 2, 3, rng,
		Config{Restarts: 5, Adam: optimize.AdamConfig{MaxIter: 800, LearningRate: 0.08}})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Infidelity > 1e-5 {
		t.Fatalf("SWAP with 3 √iSWAP infidelity %g", res3.Infidelity)
	}
}

func TestBestTemplateTradesFidelity(t *testing.T) {
	// With a perfect base gate (Fb=1) the best template is the exact one;
	// with a noisy base, smaller k can win despite decomposition error.
	rng := rand.New(rand.NewSource(7))
	target := gates.RandomSU4(rng)
	_, ftPerfect, err := BestTemplate(target, 2, 4, 1.0, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ftPerfect < 1-1e-5 {
		t.Fatalf("perfect base total fidelity %g, want ≈1", ftPerfect)
	}
	best, ftNoisy, err := BestTemplate(target, 2, 4, 0.9, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ftNoisy >= ftPerfect {
		t.Fatal("noisy base cannot beat perfect base")
	}
	if best.K > 3 {
		t.Errorf("best K = %d with 10%% iSWAP infidelity; expected ≤ 3", best.K)
	}
}

func TestDecomposeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := Decompose(linalg.Identity(3), 2, 2, rng, Config{}); err == nil {
		t.Fatal("3x3 target accepted")
	}
	if _, err := Decompose(gates.CX(), 0, 2, rng, Config{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestK0TemplateIsLocalOnly(t *testing.T) {
	// k=0 can match local gates but not CNOT.
	rng := rand.New(rand.NewSource(9))
	local := gates.RandomSU2(rng).Kron(gates.RandomSU2(rng))
	res, err := Decompose(local, 2, 0, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Infidelity > 1e-6 {
		t.Fatalf("local target with k=0: infidelity %g", res.Infidelity)
	}
	resCX, err := Decompose(gates.CX(), 2, 0, rng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if resCX.Infidelity < 0.1 {
		t.Fatalf("CNOT with k=0 infidelity %g — impossible", resCX.Infidelity)
	}
}
