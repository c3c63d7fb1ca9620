package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/optimize"
)

// serialQuickConfig is the tests' standard harness configuration: quick
// sizes, serial evaluation, optional shared store.
func serialQuickConfig(store *cache.Store[core.Metrics]) Config {
	cfg := QuickConfig()
	cfg.Parallelism = 1
	cfg.Cache = store
	return cfg
}

func TestTable1Properties(t *testing.T) {
	rows := Table1()
	byName := map[string]int{}
	for i, r := range rows {
		byName[r.Name] = i
	}
	// Exact paper matches (Table 1).
	checks := []struct {
		name    string
		qubits  int
		dia     int
		avgD    float64
		avgC    float64
		avgDTol float64
	}{
		{"Square-Lattice", 16, 6, 2.5, 3.0, 1e-9},
		{"Hypercube", 16, 4, 2.0, 4.0, 1e-9},
		{"Tree", 20, 3, 2.15, 4.6, 0.05},
		{"Tree-RR", 20, 3, 2.03, 4.6, 0.05},
		{"Corral(1,1)", 16, 4, 2.06, 5.0, 0.01},
		{"Corral(1,2)", 16, 2, 1.5, 6.0, 1e-9},
	}
	for _, c := range checks {
		i, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing row %q", c.name)
		}
		r := rows[i]
		if r.Qubits != c.qubits || r.Diameter != c.dia {
			t.Errorf("%s: qubits/dia = %d/%d, want %d/%d", c.name, r.Qubits, r.Diameter, c.qubits, c.dia)
		}
		if math.Abs(r.AvgDist-c.avgD) > c.avgDTol {
			t.Errorf("%s: AvgD = %g, want %g", c.name, r.AvgDist, c.avgD)
		}
		if math.Abs(r.AvgConn-c.avgC) > 0.01 {
			t.Errorf("%s: AvgC = %g, want %g", c.name, r.AvgConn, c.avgC)
		}
	}
}

func TestTable2Properties(t *testing.T) {
	rows := Table2()
	byName := map[string]int{}
	for i, r := range rows {
		byName[r.Name] = i
	}
	checks := []struct {
		name string
		dia  int
		avgC float64
		tolC float64
	}{
		{"Square-Lattice", 17, 3.55, 0.01},
		{"Lattice+AltDiag", 11, 5.12, 0.01},
		{"Hypercube", 7, 6.0, 1e-9},
		{"Tree", 5, 4.90, 0.01},    // paper reports 4.71; see EXPERIMENTS.md
		{"Tree-RR", 5, 4.90, 0.01}, // paper reports 4.71
	}
	for _, c := range checks {
		i, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing row %q", c.name)
		}
		r := rows[i]
		if r.Qubits != 84 {
			t.Errorf("%s: qubits = %d, want 84", c.name, r.Qubits)
		}
		if r.Diameter != c.dia {
			t.Errorf("%s: dia = %d, want %d", c.name, r.Diameter, c.dia)
		}
		if math.Abs(r.AvgConn-c.avgC) > c.tolC {
			t.Errorf("%s: AvgC = %g, want %g", c.name, r.AvgConn, c.avgC)
		}
	}
}

func TestFig11SweepShape(t *testing.T) {
	spec := Fig11Spec(true)
	spec.Workloads = []string{"GHZ", "QFT"} // keep the test fast
	series, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(spec.Machines)*2 {
		t.Fatalf("series count = %d, want %d", len(series), len(spec.Machines)*2)
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("%s/%s: empty series", s.Label, s.Workload)
		}
		for _, p := range s.Points {
			if p.Critical > p.Total {
				t.Errorf("%s/%s size %d: critical swaps %g exceed total %g",
					s.Label, s.Workload, p.Size, p.Critical, p.Total)
			}
		}
	}
	txt := FormatSeries(series, SwapCounts)
	if !strings.Contains(txt, "totalSwaps") || !strings.Contains(txt, "Corral(1,2)") {
		t.Error("formatted output missing expected fields")
	}
}

func TestFig13CodesignOrdering(t *testing.T) {
	// At 16 qubits the Corral+√iSWAP should beat Heavy-Hex+CX on QV
	// duration (the paper's co-design claim, Fig. 13).
	spec := Fig13Spec(true)
	spec.Workloads = []string{"QuantumVolume"}
	spec.Sizes = []int{12}
	series, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) Point {
		for _, s := range series {
			if s.Label == label && len(s.Points) > 0 {
				return s.Points[0]
			}
		}
		t.Fatalf("missing series %q", label)
		return Point{}
	}
	hh := get("Heavy-Hex-CX")
	corral := get("Corral11-sqrtISWAP")
	if corral.Critical >= hh.Critical {
		t.Errorf("Corral duration %g should beat Heavy-Hex %g", corral.Critical, hh.Critical)
	}
	if corral.Total >= hh.Total {
		t.Errorf("Corral total 2Q %g should beat Heavy-Hex %g", corral.Total, hh.Total)
	}
}

func TestHeadlinesDirection(t *testing.T) {
	h, err := HeadlinesContext(context.Background(), serialQuickConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2.57× / 5.63× / 3.16× / 6.11×. Exact values depend on router
	// randomness and sizes; the direction and rough scale must hold.
	if h.SwapRatio < 1.5 {
		t.Errorf("total swap ratio %.2f, expected > 1.5 (paper: 2.57)", h.SwapRatio)
	}
	if h.CriticalSwapRatio < 2.0 {
		t.Errorf("critical swap ratio %.2f, expected > 2 (paper: 5.63)", h.CriticalSwapRatio)
	}
	if h.Total2QRatio < 1.8 {
		t.Errorf("total 2Q ratio %.2f, expected > 1.8 (paper: 3.16)", h.Total2QRatio)
	}
	if h.DurationRatio < 3.0 {
		t.Errorf("duration ratio %.2f, expected > 3 (paper: 6.11)", h.DurationRatio)
	}
}

func fastDecompCfg() decomp.Config {
	return decomp.Config{Restarts: 2, Adam: optimize.AdamConfig{MaxIter: 200, LearningRate: 0.08}}
}

func TestFig15Small(t *testing.T) {
	res, err := fig15At(3, 99, fastDecompCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.assertFinite(); err != nil {
		t.Fatal(err)
	}
	// √iSWAP with k=3 decomposes anything: near-zero infidelity.
	if inf := res.AvgInfidelity[0][1]; inf > 1e-4 { // n=2, k=3
		t.Errorf("√iSWAP k=3 avg infidelity %g, want ≈0", inf)
	}
	// k=2 for n=7 cannot represent generic unitaries: visible error.
	ni := len(res.Roots) - 1
	if inf := res.AvgInfidelity[ni][0]; inf < 1e-3 {
		t.Errorf("7√iSWAP k=2 avg infidelity %g — too good to be true", inf)
	}
	// Total fidelity at perfect base gate approaches 1 for n=2.
	ft, err := res.TotalFidelityAt(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ft < 1-1e-4 {
		t.Errorf("Ft(n=2, Fb=1) = %g, want ≈1", ft)
	}
	// At Fb=0.99, some root n>2 should improve on √iSWAP (§6.3 direction).
	improved := false
	for _, n := range []int{3, 4, 5} {
		imp, err := res.InfidelityImprovement(n, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if imp > 0 {
			improved = true
		}
	}
	if !improved {
		t.Error("no fractional root improved on √iSWAP at Fb=0.99")
	}
	if out := res.Format(); !strings.Contains(out, "Fig 15") {
		t.Error("formatting broken")
	}
}

func TestCircuitForDeterminism(t *testing.T) {
	a, err := BenchmarkCircuit("QuantumVolume", 8, 2022)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchmarkCircuit("QuantumVolume", 8, 2022)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("nondeterministic circuit generation")
	}
	for i := range a.Ops {
		if !a.Ops[i].U.EqualWithin(b.Ops[i].U, 0) {
			t.Fatal("nondeterministic QV unitaries")
		}
	}
}
