package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// TestFacadeQuickstart exercises the documented public-API flow end to end.
func TestFacadeQuickstart(t *testing.T) {
	c := GHZ(12)
	machine := Tree20SqrtISwap()
	met, err := machine.EvaluateContext(context.Background(), c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if met.Total2Q == 0 || met.PulseDuration <= 0 {
		t.Fatalf("degenerate metrics: %v", met)
	}
}

func TestFacadeTopologyCatalog(t *testing.T) {
	for _, g := range []*Graph{
		topology.SquareLattice16(), topology.HeavyHex20(), topology.Hypercube84(), topology.Tree84(), Corral12(),
	} {
		if !g.IsConnected() {
			t.Errorf("%s disconnected", g.Name)
		}
	}
	if len(experiments.Table1()) != 8 || len(experiments.Table2()) != 7 {
		t.Error("table row counts wrong")
	}
}

func TestFacadeWeylAndSynthesis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := QuantumVolume(4, rng)
	for _, op := range c.Ops {
		if op.U == nil {
			continue
		}
		coord, err := WeylCoordinates(op.U)
		if err != nil {
			t.Fatal(err)
		}
		if k := BasisSqrtISwap.NumGates(coord); k < 2 || k > 3 {
			t.Errorf("Haar SU(4) needs %d √iSWAPs; expected 2 or 3", k)
		}
		syn, err := SynthesizeCX(op.U)
		if err != nil {
			t.Fatal(err)
		}
		if !syn.Unitary().EqualUpToPhase(op.U, 1e-6) {
			t.Fatal("public synthesis mismatch")
		}
	}
}

func TestFacadeSimulation(t *testing.T) {
	st, err := sim.RunCircuitCtx(context.Background(), GHZ(5))
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Probability(0) + st.Probability(31); p < 0.999 {
		t.Errorf("GHZ weight on extremes = %g", p)
	}
}

func TestFacadeSNAILHardware(t *testing.T) {
	hw, err := TreeHardware()
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := hw.AllocateFrequencies(4.5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.VerifyFrequencies(freqs, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeQASMRoundTrip(t *testing.T) {
	c := workloads.QFT(5, true)
	src, err := qasm.Export(c, qasm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := qasm.Import(src)
	if err != nil {
		t.Fatal(err)
	}
	if back.CountTwoQubit() != c.CountTwoQubit() {
		t.Fatal("QASM round trip changed 2Q count")
	}
}

func TestFacadeNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := GHZ(6)
	f, err := noise.MonteCarloFidelity(c, noise.Model{GateError: 0.01}, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0.5 || f > 1 {
		t.Fatalf("implausible fidelity %g", f)
	}
}

func TestFacadeChevron(t *testing.T) {
	ch, err := dynamics.ChevronMap(dynamics.ExchangeModel{G: 1.5, T1: 100}, 3, 11, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Times) != 11 || len(ch.Detunings) != 7 {
		t.Fatal("chevron grid wrong")
	}
}

func TestFacadeArchRegistry(t *testing.T) {
	a, err := arch.Parse("corral:posts=8,strides=1+1,basis=sqrtiswap,name=Corral11-sqrtISWAP")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := arch.Parse(a.String()); err != nil || !a.Equal(b) {
		t.Fatalf("spec round trip failed: %v %+v", err, b)
	}
	m, err := core.FromArch(a)
	if err != nil {
		t.Fatal(err)
	}
	catalog := Corral11SqrtISwap()
	if m.Name != catalog.Name || m.Graph.Fingerprint() != catalog.Graph.Fingerprint() || m.Basis != catalog.Basis {
		t.Fatalf("spec-built machine %q diverges from catalog %q", m.Name, catalog.Name)
	}
	if len(arch.Families()) < 8 {
		t.Fatalf("expected the 8 built-in families, got %d", len(arch.Families()))
	}
	ms, err := experiments.MachinesFromSpecs("hypercube:dim=4,basis=sqrtiswap;tree:levels=2,basis=sqrtiswap")
	if err != nil || len(ms) != 2 {
		t.Fatalf("MachinesFromSpecs: %v (%d machines)", err, len(ms))
	}
	if arch.DefaultTiming().Duration("siswap") != 0.5 {
		t.Fatal("default timing table lost the paper normalization")
	}
	if g := topology.Tree(3, 2); g.N() != 12 {
		t.Fatalf("generic topology.Tree(3,2) has %d qubits, want 12", g.N())
	}
	if g := topology.TreeRR(3, 2); g.N() != 12 {
		t.Fatalf("generic topology.TreeRR(3,2) has %d qubits, want 12", g.N())
	}
}
