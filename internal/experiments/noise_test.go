package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/par"
)

// noisySpec is chaosSpec with a sweep-level noise profile and the count
// fidelity model: the smallest noise-aware sweep. The ID (and with it every
// cell's routing seed) stays chaosSpec's, so noisy cells route exactly the
// circuits the clean sweep routes.
func noisySpec() SweepSpec {
	spec := chaosSpec()
	spec.Noise = &arch.NoiseProfile{E2Q: 0.002, TDec: 0.001}
	spec.Fidelity = core.FidelityCount
	return spec
}

// TestNoisySweepReportsFidelity: a noise-aware sweep fills every point's
// Fidelity with a value in (0,1), and both renderers grow their fidelity
// section — while the noise-off sweep's output stays free of it.
func TestNoisySweepReportsFidelity(t *testing.T) {
	series, err := noisySpec().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Fidelity <= 0 || p.Fidelity >= 1 {
				t.Fatalf("%s/%s(%d): fidelity %g, want in (0,1)", s.Label, s.Workload, p.Size, p.Fidelity)
			}
		}
	}
	text := FormatSeries(series, SwapCounts)
	if !strings.Contains(text, "[estFidelity]") {
		t.Fatal("noisy FormatSeries has no [estFidelity] block")
	}
	csv := SeriesCSV(series, SwapCounts)
	if !strings.Contains(csv, "est_fidelity") {
		t.Fatal("noisy SeriesCSV has no est_fidelity column")
	}

	clean, err := chaosSpec().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatSeries(clean, SwapCounts); strings.Contains(s, "estFidelity") {
		t.Fatal("noise-off FormatSeries leaked a fidelity block")
	}
	if s := SeriesCSV(clean, SwapCounts); strings.Contains(s, "est_fidelity") {
		t.Fatal("noise-off SeriesCSV leaked a fidelity column")
	}
	// The noisy sweep's routing numbers match the clean sweep exactly: the
	// count model only observes the routed circuit, it never perturbs it.
	want := pointIndex(clean)
	for _, s := range series {
		for _, p := range s.Points {
			w := want[[2]string{s.Label, s.Workload}][p.Size]
			if p.Total != w.Total || p.Critical != w.Critical {
				t.Fatalf("%s/%s(%d): noisy routing (%g, %g) != clean (%g, %g)",
					s.Label, s.Workload, p.Size, p.Total, p.Critical, w.Total, w.Critical)
			}
		}
	}
}

// TestNoisyFaultTolerantSweep mirrors TestFaultTolerantSweepIsolatesPanics
// for the noise-aware path, under the Monte-Carlo estimator so the panic
// injection lands while trajectories are fanned out: failures stay
// isolated to their cells, and every surviving cell — trajectory-sampled
// fidelity included — matches a clean noisy run exactly.
func TestNoisyFaultTolerantSweep(t *testing.T) {
	mc := noisySpec()
	mc.Fidelity = core.FidelityMonteCarlo
	mc.NoiseShots = 16
	clean, err := mc.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spec := mc
	spec.Tolerant = true
	spec.CellHook = faultinject.PanicCells(3, 0.5)
	got, err := spec.RunContext(context.Background())
	var ce CellErrors
	if !errors.As(err, &ce) || len(ce) == 0 {
		t.Fatalf("injected-panic noisy sweep error = %v, want non-empty CellErrors", err)
	}
	nCells := len(spec.Machines) * len(spec.Workloads) * len(spec.Sizes)
	if len(ce) >= nCells {
		t.Fatalf("all %d cells failed; injector p=0.5 should spare some", nCells)
	}
	for _, c := range ce {
		var pe *par.PanicError
		if !errors.As(c.Err, &pe) {
			t.Fatalf("cell %s error = %v, want *par.PanicError", c, c.Err)
		}
	}
	want := pointIndex(clean)
	for _, s := range got {
		for _, p := range s.Points {
			if want[[2]string{s.Label, s.Workload}][p.Size] != p {
				t.Fatalf("surviving noisy cell %s/%s(%d) diverged from clean run", s.Label, s.Workload, p.Size)
			}
		}
	}
}

// TestFig15ConfigCountPathUnchanged: without the Monte-Carlo model,
// RunFig15ConfigContext under DefaultConfig is byte-identical to the bare
// closed-form study at the same seed — the noise refactor must not move it.
func TestFig15ConfigCountPathUnchanged(t *testing.T) {
	dc := fastDecompCfg()
	want, err := fig15At(2, 42, dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	got, err := RunFig15ConfigContext(context.Background(), 2, dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunFig15ConfigContext (count path) diverged from the bare study")
	}
}

// TestFig15MonteCarlo: the trajectory-sampled bottom panel stays finite,
// agrees with the closed form at the noiseless end of the grid (Fb = 1 ⇒
// zero gate error ⇒ every trajectory is the ideal state), and is
// byte-identical at every parallelism setting.
func TestFig15MonteCarlo(t *testing.T) {
	dc := fastDecompCfg()
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Fidelity = core.FidelityMonteCarlo
	cfg.NoiseShots = 16
	mc, err := RunFig15ConfigContext(context.Background(), 2, dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.assertFinite(); err != nil {
		t.Fatal(err)
	}
	closed, err := fig15At(2, 42, dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The top panel is the same decomposition study either way.
	if !reflect.DeepEqual(mc.AvgInfidelity, closed.AvgInfidelity) {
		t.Fatal("Monte-Carlo mode changed the decomposition panel")
	}
	last := len(mc.FbGrid) - 1
	for ni := range mc.Roots {
		if mcV, cV := mc.AvgTotalFidelity[ni][last], closed.AvgTotalFidelity[ni][last]; mcV != cV {
			t.Fatalf("root %d at Fb=1: MC %g != closed form %g", mc.Roots[ni], mcV, cV)
		}
	}
	cfg.Parallelism = 1
	serial, err := RunFig15ConfigContext(context.Background(), 2, dc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc, serial) {
		t.Fatal("Monte-Carlo study diverges between parallel and serial runs")
	}
}
