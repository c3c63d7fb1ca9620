package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

func TestEvaluateGHZOnTree(t *testing.T) {
	m := Tree20SqrtISwap()
	c := workloads.GHZ(10)
	met, err := m.EvaluateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if met.PreRouting2Q != 9 {
		t.Errorf("GHZ(10) has %d 2Q gates, want 9", met.PreRouting2Q)
	}
	// Each CX costs 2 √iSWAPs; plus 3 per induced SWAP.
	want := 2*9 + 3*met.TotalSwaps
	if met.Total2Q != want {
		t.Errorf("Total2Q = %d, want %d (2 per CX + 3 per SWAP)", met.Total2Q, want)
	}
	if met.PulseDuration <= 0 {
		t.Error("pulse duration not positive")
	}
	// √iSWAP pulses are half-length: duration = 0.5 × critical 2Q count.
	if met.PulseDuration != 0.5*float64(met.Critical2Q) {
		t.Errorf("duration %g != 0.5×critical2Q (%d)", met.PulseDuration, met.Critical2Q)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	m := HeavyHex20CX()
	c := workloads.QFT(10, true)
	a, err := m.EvaluateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EvaluateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same options, different metrics:\n%v\n%v", a, b)
	}
}

func TestCodesignAdvantageQV(t *testing.T) {
	// The paper's headline direction at small scale: hypercube+√iSWAP needs
	// fewer total 2Q gates and less duration than Heavy-Hex+CNOT on QV.
	rng := rand.New(rand.NewSource(42))
	c := workloads.QuantumVolume(12, rng)
	opt := DefaultOptions()
	hh, err := HeavyHex20CX().EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := Hypercube16SqrtISwap().EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Total2Q >= hh.Total2Q {
		t.Errorf("hypercube total2Q (%d) should beat heavy-hex (%d)", hc.Total2Q, hh.Total2Q)
	}
	if hc.PulseDuration >= hh.PulseDuration {
		t.Errorf("hypercube duration (%g) should beat heavy-hex (%g)", hc.PulseDuration, hh.PulseDuration)
	}
	if hc.TotalSwaps >= hh.TotalSwaps {
		t.Errorf("hypercube swaps (%d) should beat heavy-hex (%d)", hc.TotalSwaps, hh.TotalSwaps)
	}
}

func TestSabreRouterOption(t *testing.T) {
	m := NewMachine("hh", topology.HeavyHex20(), weyl.BasisCX)
	c := workloads.QFT(8, true)
	opt := DefaultOptions()
	opt.Router = RouterSabre
	met, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if met.Total2Q == 0 {
		t.Error("SABRE pipeline produced empty circuit")
	}
}

func TestMachineCatalogs(t *testing.T) {
	for _, m := range Machines16() {
		if m.Graph.N() < 16 || m.Graph.N() > 20 {
			t.Errorf("%s: unexpected size %d", m.Name, m.Graph.N())
		}
	}
	for _, m := range Machines84() {
		if m.Graph.N() != 84 {
			t.Errorf("%s: size %d, want 84", m.Name, m.Graph.N())
		}
	}
}

func TestTranspiledArtifacts(t *testing.T) {
	m := Corral11SqrtISwap()
	c := workloads.TIMHamiltonian(10, 1)
	tr, err := m.TranspileContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Routed == nil {
		t.Fatal("missing artifacts")
	}
	if len(tr.Layout) != 10 {
		t.Errorf("layout size %d", len(tr.Layout))
	}
	translated, err := transpile.TranslateToBasis(tr.Routed, m.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics.Total2Q != translated.CountTwoQubit() {
		t.Error("metrics disagree with translated circuit")
	}
}

func TestErrorPaths(t *testing.T) {
	m := Machine{Name: "empty"}
	if _, err := m.EvaluateContext(context.Background(), workloads.GHZ(4), DefaultOptions()); err == nil {
		t.Error("nil topology accepted")
	}
	small := NewMachine("small", topology.SquareLattice(2, 2), weyl.BasisCX)
	if _, err := small.EvaluateContext(context.Background(), workloads.GHZ(9), DefaultOptions()); err == nil {
		t.Error("oversized circuit accepted")
	}
}
