package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// TestSweepWithVerification runs a small sweep with Options.Verify flowing
// through the embedded Config: every cell's routing is simulated against
// its logical circuit, and the verified Series must be byte-identical to
// the unverified ones (verification observes, never alters).
func TestSweepWithVerification(t *testing.T) {
	spec := SweepSpec{
		ID:   "verify-sweep",
		Kind: SwapCounts,
		Machines: []core.Machine{
			core.NewMachine("Tree", topology.Tree20(), weyl.BasisCX),
			core.NewMachine("Corral", topology.Corral11(), weyl.BasisCX),
		},
		Workloads: []string{"QuantumVolume", "GHZ"},
		Sizes:     []int{4, 6},
		Config:    QuickConfig(),
	}
	plain, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spec.Verify = true
	verified, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatalf("verified sweep: %v", err)
	}
	if len(plain) != len(verified) {
		t.Fatalf("series count %d != %d", len(plain), len(verified))
	}
	for i := range plain {
		a, b := plain[i], verified[i]
		if a.Label != b.Label || a.Workload != b.Workload || len(a.Points) != len(b.Points) {
			t.Fatalf("series %d shape mismatch", i)
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("series %d point %d: %+v != %+v", i, j, a.Points[j], b.Points[j])
			}
		}
	}
}
