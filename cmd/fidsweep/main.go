// Command fidsweep regenerates the paper's Fig. 15 pulse-duration
// sensitivity study: numerical decomposition of Haar-random two-qubit
// unitaries into k applications of n√iSWAP (n = 2..7, k = 2..8), and the
// Eq. 13 trade-off between decomposition error and linearly-scaling
// decoherence across iSWAP base fidelities 0.90..1.00.
//
// The paper samples N=50 targets; use -samples to trade time for smoothness.
// -parallelism bounds the decomposition worker pool (0 = all cores, 1 =
// serial; output is identical at any setting). Non-positive -samples and
// negative -parallelism are rejected with usage errors instead of being
// silently reinterpreted downstream.
//
// -model picks the bottom panel's decoherence arithmetic: count (default)
// is the paper's closed-form Fb^k (Eq. 13), byte-identical to historical
// output; montecarlo replaces it with trajectory sampling through each
// optimized template circuit (-shots trajectories per grid point, 0 =
// default), capturing the error propagation the closed form ignores. The
// top panel (decomposition infidelity) is noise-free and identical under
// both models.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/experiments"
)

func main() {
	cli.Exit("fidsweep", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single exit point, mirroring qcbench:
// flag validation happens up front with usage errors, and the study runs
// under the unified experiments.Config.
func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("fidsweep", stderr)
	samples := fs.Int("samples", 50, "Haar-random targets (paper: 50)")
	seed := fs.Int64("seed", experiments.DefaultSeed, "RNG seed")
	parallelism := fs.Int("parallelism", 0,
		"decomposition worker pool size (0 = all cores, 1 = serial; output is identical at any setting)")
	model := fs.String("model", "count",
		"bottom-panel decoherence model: count (closed-form Fb^k) or montecarlo (trajectory sampling through each template)")
	shots := fs.Int("shots", 0,
		"Monte-Carlo trajectories per grid point for -model montecarlo (0 = default)")
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments %q (fidsweep takes flags only)", fs.Args())
	}
	// Negative knob values used to be swallowed silently: the study
	// only rejected samples < 1 deep in the study, and a negative
	// parallelism quietly meant "serial". Reject both up front.
	if *samples < 1 {
		return cli.Usagef("-samples must be ≥ 1, got %d", *samples)
	}
	if *parallelism < 0 {
		return cli.Usagef("-parallelism must be ≥ 0 (0 = all cores), got %d", *parallelism)
	}
	fidelity, err := core.FidelityNames.Parse("-model", *model)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if *shots < 0 {
		return cli.Usagef("-shots must be ≥ 0 (0 = default), got %d", *shots)
	}
	if *shots > 0 && fidelity != core.FidelityMonteCarlo {
		return cli.Usagef("-shots only applies to -model montecarlo; it would be ignored otherwise")
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Parallelism = *parallelism
	cfg.Fidelity = fidelity
	cfg.NoiseShots = *shots
	// Ctrl-C / SIGTERM cancel the study's worker pools instead of being
	// ridden out: a long -samples run dies promptly and cleanly.
	ctx, stop := cli.NotifyContext(context.Background())
	defer stop()
	res, err := experiments.RunFig15ConfigContext(ctx, *samples, decomp.Config{}, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Format())
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "§6.3 claims: total-infidelity reduction vs sqrtISWAP at Fb(iSWAP)=0.99")
	for _, tc := range []struct {
		n     int
		paper string
	}{{3, "14%"}, {4, "25%"}, {5, "11%"}} {
		imp, err := res.InfidelityImprovement(tc.n, 0.99)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %d-th root: %+.1f%%   (paper: %s)\n", tc.n, 100*imp, tc.paper)
	}
	return nil
}
