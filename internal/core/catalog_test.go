package core

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// TestCatalogMatchesRegistry pins the registry-backed catalog constructors
// byte-identical to the historical hand-built machines: same machine names,
// graph names, qubit counts, structural fingerprints — and therefore the
// same EvaluateKeys, so warm -cachedir entries and the fig11 goldens are
// untouched by the registry refactor.
func TestCatalogMatchesRegistry(t *testing.T) {
	hand := func(name string, g *topology.Graph, b weyl.Basis) Machine {
		return Machine{Name: name, Graph: g, Basis: b}
	}
	cases := []struct {
		got  Machine
		want Machine
	}{
		{HeavyHex20CX(), hand("Heavy-Hex-CX", topology.HeavyHex20(), weyl.BasisCX)},
		{SquareLattice16SYC(), hand("Square-Lattice-SYC", topology.SquareLattice16(), weyl.BasisSYC)},
		{Tree20SqrtISwap(), hand("Tree-sqrtISWAP", topology.Tree20(), weyl.BasisSqrtISwap)},
		{TreeRR20SqrtISwap(), hand("Tree-RR-sqrtISWAP", topology.TreeRR20(), weyl.BasisSqrtISwap)},
		{Corral11SqrtISwap(), hand("Corral11-sqrtISWAP", topology.Corral11(), weyl.BasisSqrtISwap)},
		{Corral12SqrtISwap(), hand("Corral12-sqrtISWAP", topology.Corral12(), weyl.BasisSqrtISwap)},
		{Hypercube16SqrtISwap(), hand("Hypercube-sqrtISWAP", topology.Hypercube16(), weyl.BasisSqrtISwap)},
		{HeavyHex84CX(), hand("Heavy-Hex-CX", topology.HeavyHex84(), weyl.BasisCX)},
		{SquareLattice84SYC(), hand("Square-Lattice-SYC", topology.SquareLattice84(), weyl.BasisSYC)},
		{Tree84SqrtISwap(), hand("Tree-sqrtISWAP", topology.Tree84(), weyl.BasisSqrtISwap)},
		{TreeRR84SqrtISwap(), hand("Tree-RR-sqrtISWAP", topology.TreeRR84(), weyl.BasisSqrtISwap)},
		{Hypercube84SqrtISwap(), hand("Hypercube-sqrtISWAP", topology.Hypercube84(), weyl.BasisSqrtISwap)},
	}
	probe := circuit.New(4)
	probe.CX(0, 1)
	probe.CX(1, 2)
	probe.CX(2, 3)
	opt := DefaultOptions()
	for _, c := range cases {
		if c.got.Name != c.want.Name {
			t.Errorf("machine name %q, want %q", c.got.Name, c.want.Name)
		}
		if c.got.Basis != c.want.Basis {
			t.Errorf("%s: basis %v, want %v", c.want.Name, c.got.Basis, c.want.Basis)
		}
		if c.got.Graph.Name != c.want.Graph.Name {
			t.Errorf("%s: graph name %q, want %q", c.want.Name, c.got.Graph.Name, c.want.Graph.Name)
		}
		if c.got.Graph.N() != c.want.Graph.N() {
			t.Errorf("%s: %d qubits, want %d", c.want.Name, c.got.Graph.N(), c.want.Graph.N())
		}
		if c.got.Graph.Fingerprint() != c.want.Graph.Fingerprint() {
			t.Errorf("%s: graph fingerprint %#x, want %#x", c.want.Name, c.got.Graph.Fingerprint(), c.want.Graph.Fingerprint())
		}
		if c.got.Timing != nil {
			t.Errorf("%s: catalog machine carries a custom timing table %v, want nil (default)", c.want.Name, c.got.Timing)
		}
		if gk, wk := c.got.EvaluateKey(probe, opt), c.want.EvaluateKey(probe, opt); gk != wk {
			t.Errorf("%s: EvaluateKey %v, want historical %v", c.want.Name, gk, wk)
		}
	}
}

func TestMachinesSetsUnchanged(t *testing.T) {
	want16 := []string{
		"Heavy-Hex-CX", "Square-Lattice-SYC", "Tree-sqrtISWAP",
		"Tree-RR-sqrtISWAP", "Hypercube-sqrtISWAP", "Corral11-sqrtISWAP",
	}
	want84 := []string{
		"Heavy-Hex-CX", "Square-Lattice-SYC", "Tree-sqrtISWAP",
		"Tree-RR-sqrtISWAP", "Hypercube-sqrtISWAP",
	}
	check := func(ms []Machine, want []string, label string) {
		if len(ms) != len(want) {
			t.Fatalf("%s: %d machines, want %d", label, len(ms), len(want))
		}
		for i, m := range ms {
			if m.Name != want[i] {
				t.Errorf("%s[%d] = %q, want %q", label, i, m.Name, want[i])
			}
		}
	}
	check(Machines16(), want16, "Machines16")
	check(Machines84(), want84, "Machines84")
}

// TestEvaluateKeyTimingSeparation pins the timing-table cache-key contract:
// nil and explicitly-default tables share the historical key, any other
// table gets its own namespace, and distinct tables never collide.
func TestEvaluateKeyTimingSeparation(t *testing.T) {
	probe := circuit.New(3)
	probe.CX(0, 1)
	probe.CX(1, 2)
	opt := DefaultOptions()

	base := Tree20SqrtISwap()
	withDefault := base
	withDefault.Timing = arch.DefaultTiming()
	fast := base
	fast.Timing = arch.DefaultTiming()
	fast.Timing["siswap"] = 0.25
	faster := base
	faster.Timing = arch.DefaultTiming()
	faster.Timing["siswap"] = 0.125

	k0 := base.EvaluateKey(probe, opt)
	if k := withDefault.EvaluateKey(probe, opt); k != k0 {
		t.Errorf("explicit default table changed the key: %v vs %v", k, k0)
	}
	kf := fast.EvaluateKey(probe, opt)
	if kf == k0 {
		t.Errorf("custom timing table shares the default key")
	}
	if kff := faster.EvaluateKey(probe, opt); kff == kf || kff == k0 {
		t.Errorf("distinct timing tables collide: %v %v %v", k0, kf, kff)
	}
}

// TestFromSpecTiming checks that spec timing overrides reach the machine as
// a full effective table and change its pulse-duration metric.
func TestFromSpecTiming(t *testing.T) {
	m, err := FromSpec("tree:levels=2,basis=sqrtiswap,t-siswap=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if d := m.GateDurations().Duration("siswap"); d != 0.25 {
		t.Errorf("siswap duration = %v, want 0.25", d)
	}
	if d := m.GateDurations().Duration("cx"); d != 1.0 {
		t.Errorf("override dropped the default cx duration: %v", d)
	}

	slow := Tree20SqrtISwap()
	probe := circuit.New(3)
	probe.CX(0, 1)
	probe.CX(1, 2)
	fastT, err := m.TranspileContext(context.Background(), probe, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slowT, err := slow.TranspileContext(context.Background(), probe, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same topology+basis+seed → same routed/translated circuit; only the
	// duration weighting differs, by exactly the table ratio.
	if fastT.Metrics.Total2Q != slowT.Metrics.Total2Q {
		t.Fatalf("timing override changed gate counts: %d vs %d", fastT.Metrics.Total2Q, slowT.Metrics.Total2Q)
	}
	if want := slowT.Metrics.PulseDuration / 2; fastT.Metrics.PulseDuration != want {
		t.Errorf("PulseDuration = %v, want %v (half of default-table %v)", fastT.Metrics.PulseDuration, want, slowT.Metrics.PulseDuration)
	}
}

func TestFromSpecErrors(t *testing.T) {
	for _, bad := range []string{"", "moebius:dim=3", "grid:rows=4"} {
		if _, err := FromSpec(bad); err == nil {
			t.Errorf("FromSpec(%q) succeeded, want error", bad)
		}
	}
}
