package noise_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/transpile"
	"repro/internal/workloads"
)

func TestNoiselessIsPerfect(t *testing.T) {
	c := workloads.GHZ(6)
	f, err := noise.MonteCarloFidelity(c, noise.Model{}, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-12 {
		t.Fatalf("noiseless fidelity = %g", f)
	}
}

func TestGateErrorDegradesWithCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := noise.Model{GateError: 0.02}
	short := workloads.GHZ(6) // 5 CX
	long := circuit.New(6)
	for i := 0; i < 4; i++ {
		long.AppendCircuit(workloads.GHZ(6))
	}
	fShort, err := noise.MonteCarloFidelity(short, m, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	fLong, err := noise.MonteCarloFidelity(long, m, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fLong >= fShort {
		t.Fatalf("more gates should mean lower fidelity: %g vs %g", fLong, fShort)
	}
	// Closed-form count model is a reasonable predictor for small p.
	pred := noise.CountModelFidelity(short, m)
	if math.Abs(fShort-pred) > 0.08 {
		t.Errorf("MC %g vs count model %g diverge too far", fShort, pred)
	}
}

func TestDecoherenceChargesDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Same gate count, different durations: 4 CX vs 4 √iSWAP.
	cx := circuit.New(2)
	si := circuit.New(2)
	for i := 0; i < 4; i++ {
		cx.CX(0, 1)
		si.SqrtISwap(0, 1)
	}
	m := noise.Model{DecoherenceRate: 0.05}
	fCX, err := noise.MonteCarloFidelity(cx, m, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	fSI, err := noise.MonteCarloFidelity(si, m, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fSI <= fCX {
		t.Fatalf("half-length pulses should decohere less: √iSWAP %g vs CX %g", fSI, fCX)
	}
}

func TestCompactionAllowsWideMachines(t *testing.T) {
	// A physical circuit on an 84-qubit machine that touches ~12 qubits
	// must simulate fine after compaction.
	m := core.Tree84SqrtISwap()
	tr, err := m.TranspileContext(context.Background(), workloads.GHZ(8), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	translated, err := transpile.TranslateToBasis(tr.Routed, m.Basis)
	if err != nil {
		t.Fatal(err)
	}
	f, err := noise.MonteCarloFidelity(translated, noise.Model{}, 3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-9 {
		t.Fatalf("noiseless physical circuit fidelity = %g", f)
	}
}

// TestCodesignFidelityAdvantage is the paper's bottom line as a simulation:
// the same workload transpiled to the SNAIL tree survives noise better than
// on Heavy-Hex, in BOTH error regimes.
func TestCodesignFidelityAdvantage(t *testing.T) {
	ghz := workloads.GHZ(8)
	translate := func(m core.Machine) *circuit.Circuit {
		tr, err := m.TranspileContext(context.Background(), ghz, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		translated, err := transpile.TranslateToBasis(tr.Routed, m.Basis)
		if err != nil {
			t.Fatal(err)
		}
		return translated
	}
	hh, tree := translate(core.HeavyHex20CX()), translate(core.Tree20SqrtISwap())
	for name, m := range map[string]noise.Model{
		"control":     {GateError: 0.01},
		"decoherence": {DecoherenceRate: 0.01},
	} {
		rng := rand.New(rand.NewSource(5))
		fHH, err := noise.MonteCarloFidelity(hh, m, 200, rng)
		if err != nil {
			t.Fatal(err)
		}
		fTree, err := noise.MonteCarloFidelity(tree, m, 200, rng)
		if err != nil {
			t.Fatal(err)
		}
		if fTree <= fHH {
			t.Errorf("%s regime: tree fidelity %g should beat heavy-hex %g", name, fTree, fHH)
		}
	}
}

func TestShotValidation(t *testing.T) {
	if _, err := noise.MonteCarloFidelity(workloads.GHZ(3), noise.Model{}, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero shots accepted")
	}
}

func TestStandardDurationsPinned(t *testing.T) {
	// The paper's pulse-length normalization, which decoherence charges on
	// every machine built without a timing table (arch.DefaultTiming): the
	// exact numbers are a contract.
	want := map[string]float64{
		"cx": 1.0, "syc": 1.0, "iswap": 1.0, "siswap": 0.5,
		"swap": 1.5, "su4": 1.0,
	}
	got := arch.DefaultTiming()
	if len(got) != len(want) {
		t.Fatalf("DefaultTiming has %d entries, want %d: %v", len(got), len(want), got)
	}
	for g, d := range want {
		if got[g] != d {
			t.Errorf("DefaultTiming[%q] = %v, want %v", g, got[g], d)
		}
	}
}
