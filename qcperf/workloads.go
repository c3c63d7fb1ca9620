package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// runSweep84 is the cold figure regeneration: the quick Fig. 12 (SWAP
// counts) and Fig. 14 (2Q gates and pulse duration) sweeps, five 84-qubit
// machines each, all six circuits at widths 16 and 32. It is bound by
// routing and never touches the simulator, noise, HTTP or disk.
func runSweep84(ctx context.Context, cfg config) (*report, error) {
	build := func() (*batch, error) {
		specs := []experiments.SweepSpec{experiments.Fig12Spec(true), experiments.Fig14Spec(true)}
		for i := range specs {
			specs[i].Seed = cfg.seed
			specs[i].Parallelism = workers
		}
		return newBatch(specs, 0)
	}
	return runBatch(ctx, cfg, build, nil)
}

// noisyRegimes are the two error regimes of the paper's §3.1: limited by
// two-qubit gate control error, or by decoherence over the pulse time.
var noisyRegimes = []struct{ name, params string }{
	{"control", "e2q=0.003,tdec=0.0002"},
	{"decoherence", "e2q=0.0005,tdec=0.002"},
}

// Monte-Carlo sweep shape. Each machine is the 16-qubit hypercube trimmed
// to the circuit's width, so a cell's state vector holds exactly 2^w
// amplitudes: 64, 128 and 256 KiB at widths 12, 13, 14, either side of
// the simulator's 128 KiB tile.
var noisyWidths = []int{12, 13, 14}

// Cell costs follow the seeded circuits and trajectories, so one seed's
// draw can be a tenth heavier than another's. Each pass evaluates
// noisyInputs input sets, drawn from seeds seed·noisyInputs+k, and a run's
// figures average over them; the set-up's warm-up pass evaluates the first
// noisyWarmup of them.
const (
	noisyShots  = 16
	noisyTrials = 5
	noisyInputs = 8
	noisyWarmup = 2
)

// fidelityBandLo and fidelityBandHi bound how far the Monte-Carlo mean may
// sit from the count model's: the tolerance noise.TestNoiseEquivalence
// documents.
const fidelityBandLo, fidelityBandHi = -0.03, 0.08

// runNoisyMC is the Monte-Carlo fidelity sweep: every cell routes a
// circuit and estimates its fidelity from noisyShots trajectories. Its
// time goes to the noise estimator and the simulator.
func runNoisyMC(ctx context.Context, cfg config) (*report, error) {
	build := func() (*batch, error) {
		var specs []experiments.SweepSpec
		for k := int64(0); k < noisyInputs; k++ {
			for _, w := range noisyWidths {
				var list []string
				for _, r := range noisyRegimes {
					list = append(list, fmt.Sprintf("hypercube:dim=4,trim=%d,%s,name=Hypercube%d-%s", w, r.params, w, r.name))
				}
				ms, err := experiments.MachinesFromSpecs(strings.Join(list, ";"))
				if err != nil {
					return nil, err
				}
				specs = append(specs, experiments.SweepSpec{
					ID:        fmt.Sprintf("noisy-mc-%d", w),
					Kind:      experiments.Codesign,
					Machines:  ms,
					Workloads: workloads.Names(),
					Sizes:     []int{w},
					Config: experiments.Config{
						Options: core.Options{
							Seed:        cfg.seed*noisyInputs + k,
							Trials:      noisyTrials,
							Parallelism: workers,
							Fidelity:    core.FidelityMonteCarlo,
							NoiseShots:  noisyShots,
						},
						Quick: true,
					},
				})
			}
		}
		return newBatch(specs, noisyWarmup*len(noisyWidths))
	}
	return runBatch(ctx, cfg, build, func(rep *report, first passOut) {
		var est, count float64
		n := 0
		for _, cs := range first.cells {
			for _, c := range cs {
				if c.err != nil {
					continue
				}
				est += c.met.EstFidelity
				count += c.met.ControlFidelity * c.met.DecoherenceFidelity
				n++
			}
		}
		mean, cm := est/float64(n), count/float64(n)
		rep.set("noise.fidelity_mean", mean)
		if d := mean - cm; d < fidelityBandLo || d > fidelityBandHi {
			rep.fail("fidelity_mean %.4f is %+.4f from the count model's %.4f, outside [%g, %+g]", mean, d, cm, fidelityBandLo, fidelityBandHi)
		} else {
			rep.info("fidelity_mean %.4f, count model %.4f (%+.4f)", mean, cm, d)
		}
	})
}
