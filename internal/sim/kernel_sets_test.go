//go:build amd64

package sim_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestKernelSetsSameBits: an amd64 host without AVX runs the Go loops where
// this one runs the AVX routines, and it must compute, and so cache, the
// same numbers. Routed circuits at widths 12–14 (each routed onto the
// hypercube trimmed to its width, so SWAPs the schedule relabels sit
// between the gates, and at 14 qubits the top bit lies above the layer
// pass's 128 KiB tile) run from one random state under each kernel set.
// Every amplitude must carry the same Float64bits, both stepped in the
// program's labeling (RunProgramSteps) and moved back (RunProgramCtx), and
// so must a Monte-Carlo fidelity estimate.
func TestKernelSetsSameBits(t *testing.T) {
	ctx := context.Background()
	type result struct {
		stepped, run []complex128
		fidelity     float64
	}
	type fixture struct {
		name string
		c    *circuit.Circuit
		in   []complex128
	}
	var fixtures []fixture
	for _, f := range []struct {
		name string
		gen  func(n int) *circuit.Circuit
	}{
		{"QFT", func(n int) *circuit.Circuit { return workloads.QFT(n, true) }},
		{"TIM", func(n int) *circuit.Circuit { return workloads.TIMHamiltonian(n, 2) }},
		{"QV", func(n int) *circuit.Circuit { return workloads.QuantumVolume(n, rand.New(rand.NewSource(int64(n)))) }},
	} {
		for n := 12; n <= 14; n++ {
			m, err := core.FromSpec(fmt.Sprintf("hypercube:dim=4,trim=%d", n))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := m.TranspileContext(ctx, f.gen(n), core.Options{Seed: int64(n), Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Metrics.TotalSwaps == 0 {
				t.Fatalf("%s-%d routed with no SWAPs: the fixture runs no relabel", f.name, n)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			in := make([]complex128, 1<<n)
			for i := range in {
				in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			fixtures = append(fixtures, fixture{fmt.Sprintf("%s-%d", f.name, n), tr.Routed, in})
		}
	}
	runAll := func() []result {
		out := make([]result, len(fixtures))
		for i, f := range fixtures {
			prog := sim.Schedule(f.c)
			stepped := &sim.State{N: f.c.N, Amp: append([]complex128(nil), f.in...)}
			if err := stepped.RunProgramSteps(prog, 0, prog.Steps()); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			run := &sim.State{N: f.c.N, Amp: append([]complex128(nil), f.in...)}
			if err := run.RunProgramCtx(ctx, prog); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			est, err := noise.MonteCarloEstimator{Shots: 8, Seed: int64(i)}.Estimate(ctx, f.c, noise.Model{GateError: 0.02, DecoherenceRate: 0.01})
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			out[i] = result{stepped.Amp, run.Amp, est.Fidelity}
		}
		return out
	}
	avx := runAll()
	sim.ForceGoKernels(t)
	goLoops := runAll()
	sameBits := func(name, form string, got, want []complex128) {
		t.Helper()
		for i := range got {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%s %s: amplitude %d is %v under AVX, %v under the Go loops", name, form, i, got[i], want[i])
			}
		}
	}
	for i, f := range fixtures {
		sameBits(f.name, "stepped", avx[i].stepped, goLoops[i].stepped)
		sameBits(f.name, "run", avx[i].run, goLoops[i].run)
		if a, g := avx[i].fidelity, goLoops[i].fidelity; math.Float64bits(a) != math.Float64bits(g) {
			t.Errorf("%s: Monte-Carlo fidelity %.17g under AVX, %.17g under the Go loops", f.name, a, g)
		}
	}
}
