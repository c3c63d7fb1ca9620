package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/decomp"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/noise"
	"repro/internal/par"
)

// Fig15Roots and Fig15Ks are the paper's sweep axes: n√iSWAP for n = 2..7
// and template sizes k = 2..8 (Fig. 15).
var Fig15Roots = []int{2, 3, 4, 5, 6, 7}
var Fig15Ks = []int{2, 3, 4, 5, 6, 7, 8}

// Fig15Result holds the pulse-duration sensitivity study data.
type Fig15Result struct {
	Samples int
	Roots   []int
	Ks      []int

	// AvgInfidelity[ni][ki] is the mean decomposition infidelity 1−Fd of
	// Haar-random targets for root Roots[ni] with Ks[ki] template gates
	// (Fig. 15 top-left; top-right uses duration = k/n on the x-axis).
	AvgInfidelity [][]float64

	// FbGrid spans iSWAP base fidelities 0.90..1.00; AvgTotalFidelity[ni][f]
	// is the mean over targets of max_k Fd·Fb^k (Eq. 13; Fig. 15 bottom).
	FbGrid           []float64
	AvgTotalFidelity [][]float64
}

// fig15CellSeed derives the decomposition RNG seed of one (n, k, sample)
// cell from its coordinates and the study's base seed via FNV — the same
// pure-function-of-coordinates scheme as SweepSpec.taskSeed, which is what
// makes the serial and parallel schedules byte-identical: no cell's draws
// depend on how many draws any other cell consumed.
func fig15CellSeed(seed int64, n, k, sample int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fig15/%d/%d/%d/%d", n, k, sample, seed)
	return int64(h.Sum64())
}

// fig15MCSeed derives the trajectory-sampling seed of one
// (n, k, sample, fb-gridpoint) noise estimate, a pure function of its
// coordinates like fig15CellSeed so the Monte-Carlo study is
// byte-identical at every parallelism setting.
func fig15MCSeed(seed int64, n, k, sample, fi int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fig15mc/%d/%d/%d/%d/%d", n, k, sample, fi, seed)
	return int64(h.Sum64())
}

// RunFig15ConfigContext reproduces the Fig. 15 study: decompose `samples`
// Haar-random 2Q unitaries into every (n, k) template, then evaluate the
// decoherence-vs-approximation trade-off across base fidelities. The paper
// uses N=50; tests use fewer. The study seeds its Haar sampling from
// cfg.Seed and fans the (n, k, sample) decomposition cells over a
// cfg.Parallelism-bounded pool (0 = auto/GOMAXPROCS, 1 = serial). Every
// cell optimizes under its own FNV-derived RNG (fig15CellSeed) and writes
// into an index-addressed slot, so the result is byte-identical at every
// parallelism setting; the Adam objective is preallocated per-Decompose
// call, so concurrent cells share no mutable state.
//
// With cfg.Fidelity set to core.FidelityMonteCarlo, the bottom panel's
// per-gate decoherence factor Fb^k is replaced by trajectory sampling
// through each optimized template (cfg.NoiseShots trajectories;
// 0 = noise.DefaultShots), capturing the error propagation the closed-form
// product ignores; any other fidelity setting keeps the Eq. 13 arithmetic.
// The study stops dispatching decomposition (and Monte-Carlo) cells once
// ctx is done and returns its error, so Ctrl-C or a scheduler's SIGTERM
// interrupts a long sensitivity sweep instead of riding it to completion.
func RunFig15ConfigContext(ctx context.Context, samples int, dc decomp.Config, cfg Config) (*Fig15Result, error) {
	// Identity resolves the shots under the Monte-Carlo model, 0 otherwise.
	return runFig15(ctx, samples, cfg.Seed, dc, cfg.Parallelism, cfg.Identity().NoiseShots)
}

// runFig15 is the shared study body. mcShots == 0 runs the closed-form
// bottom panel (Eq. 13, the historical output, byte-for-byte); mcShots > 0
// runs the Monte-Carlo bottom panel, where each (n, k, sample) template is
// rebuilt as a circuit (decomp.TemplateCircuit) and each grid point's
// per-gate base fidelity becomes a depolarizing error probability
// 1−Fb(n√iSWAP) sampled through the template. The count estimator's
// expectation of that very model is exactly Fb^k, so the two panels agree
// in the mean and differ only by propagation effects and sampling noise.
func runFig15(ctx context.Context, samples int, seed int64, cfg decomp.Config, parallelism, mcShots int) (*Fig15Result, error) {
	if samples < 1 {
		return nil, fmt.Errorf("experiments: fig15 needs ≥1 sample")
	}
	rng := rand.New(rand.NewSource(seed))
	targets := make([]*linalg.Matrix, samples)
	for i := range targets {
		targets[i] = gates.RandomSU4(rng)
	}
	res := &Fig15Result{
		Samples: samples,
		Roots:   Fig15Roots,
		Ks:      Fig15Ks,
	}
	// fidelity[ni][ki][sample] = Fd; infid holds 1−Fd as reported by the
	// optimizer so averages sum the exact optimizer output; params keeps
	// each cell's optimized template for the Monte-Carlo bottom panel.
	fid := make([][][]float64, len(res.Roots))
	infid := make([][][]float64, len(res.Roots))
	params := make([][][][]float64, len(res.Roots))
	res.AvgInfidelity = make([][]float64, len(res.Roots))
	for ni := range res.Roots {
		fid[ni] = make([][]float64, len(res.Ks))
		infid[ni] = make([][]float64, len(res.Ks))
		params[ni] = make([][][]float64, len(res.Ks))
		res.AvgInfidelity[ni] = make([]float64, len(res.Ks))
		for ki := range res.Ks {
			fid[ni][ki] = make([]float64, samples)
			infid[ni][ki] = make([]float64, samples)
			params[ni][ki] = make([][]float64, samples)
		}
	}
	nCells := len(res.Roots) * len(res.Ks) * samples
	cellAt := func(i int) (ni, ki, si int) {
		si = i % samples
		i /= samples
		ki = i % len(res.Ks)
		return i / len(res.Ks), ki, si
	}
	err := par.ForEachCtx(ctx, nCells, parallelism, func(i int) error {
		ni, ki, si := cellAt(i)
		n, k := res.Roots[ni], res.Ks[ki]
		cellRng := rand.New(rand.NewSource(fig15CellSeed(seed, n, k, si)))
		r, err := decomp.Decompose(targets[si], n, k, cellRng, cfg)
		if err != nil {
			return fmt.Errorf("experiments: fig15 n=%d k=%d: %w", n, k, err)
		}
		fid[ni][ki][si] = 1 - r.Infidelity
		infid[ni][ki][si] = r.Infidelity
		params[ni][ki][si] = r.Params
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ni := range res.Roots {
		for ki := range res.Ks {
			sum := 0.0
			for si := 0; si < samples; si++ {
				sum += infid[ni][ki][si]
			}
			res.AvgInfidelity[ni][ki] = sum / float64(samples)
		}
	}
	// Base-fidelity grid 0.90 .. 1.00.
	const gridN = 21
	res.FbGrid = make([]float64, gridN)
	for i := range res.FbGrid {
		res.FbGrid[i] = 0.90 + 0.10*float64(i)/float64(gridN-1)
	}
	// noiseFactor[cell][fi] is the per-template decoherence multiplier at
	// each grid point: nil (closed-form Fb^k inside TotalFidelity) unless
	// the Monte-Carlo panel sampled one per (n, k, sample, Fb).
	var noiseFactor [][]float64
	if mcShots > 0 {
		noiseFactor = make([][]float64, nCells)
		err := par.ForEachCtx(ctx, nCells, parallelism, func(i int) error {
			ni, ki, si := cellAt(i)
			n, k := res.Roots[ni], res.Ks[ki]
			tc, err := decomp.TemplateCircuit(n, k, params[ni][ki][si])
			if err != nil {
				return fmt.Errorf("experiments: fig15 n=%d k=%d: %w", n, k, err)
			}
			row := make([]float64, gridN)
			for fi, fbISwap := range res.FbGrid {
				// Eq. 12's per-pulse base fidelity becomes the per-gate
				// depolarizing probability.
				est := noise.MonteCarloEstimator{Shots: mcShots, Seed: fig15MCSeed(seed, n, k, si, fi)}
				m := noise.Model{GateError: 1 - decomp.BaseFidelity(fbISwap, n)}
				e, err := est.Estimate(ctx, tc, m)
				if err != nil {
					return fmt.Errorf("experiments: fig15 n=%d k=%d fb=%g: %w", n, k, fbISwap, err)
				}
				row[fi] = e.Fidelity
			}
			noiseFactor[i] = row
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	res.AvgTotalFidelity = make([][]float64, len(res.Roots))
	for ni, n := range res.Roots {
		res.AvgTotalFidelity[ni] = make([]float64, gridN)
		for fi, fbISwap := range res.FbGrid {
			fb := decomp.BaseFidelity(fbISwap, n)
			sum := 0.0
			for si := 0; si < samples; si++ {
				best := 0.0
				for ki, k := range res.Ks {
					var ft float64
					if mcShots > 0 {
						cell := (ni*len(res.Ks)+ki)*samples + si
						ft = fid[ni][ki][si] * noiseFactor[cell][fi]
					} else {
						ft = decomp.TotalFidelity(fid[ni][ki][si], fb, k)
					}
					if ft > best {
						best = ft
					}
				}
				sum += best
			}
			res.AvgTotalFidelity[ni][fi] = sum / float64(samples)
		}
	}
	return res, nil
}

// TotalFidelityAt interpolates the bottom-panel curve for root n at an
// iSWAP base fidelity.
func (r *Fig15Result) TotalFidelityAt(n int, fbISwap float64) (float64, error) {
	ni := -1
	for i, root := range r.Roots {
		if root == n {
			ni = i
		}
	}
	if ni < 0 {
		return 0, fmt.Errorf("experiments: root %d not in study", n)
	}
	if fbISwap < r.FbGrid[0] || fbISwap > r.FbGrid[len(r.FbGrid)-1] {
		return 0, fmt.Errorf("experiments: fb %g outside grid", fbISwap)
	}
	// Linear interpolation on the grid.
	for i := 1; i < len(r.FbGrid); i++ {
		if fbISwap <= r.FbGrid[i]+1e-12 {
			t := (fbISwap - r.FbGrid[i-1]) / (r.FbGrid[i] - r.FbGrid[i-1])
			return r.AvgTotalFidelity[ni][i-1]*(1-t) + r.AvgTotalFidelity[ni][i]*t, nil
		}
	}
	return r.AvgTotalFidelity[ni][len(r.FbGrid)-1], nil
}

// InfidelityImprovement returns the relative reduction in total infidelity
// of root n versus √iSWAP (n=2) at the given iSWAP base fidelity — the §6.3
// claim: at Fb=0.99, n = 3, 4, 5 reduce infidelity by ≈14%, 25%, 11%.
func (r *Fig15Result) InfidelityImprovement(n int, fbISwap float64) (float64, error) {
	base, err := r.TotalFidelityAt(2, fbISwap)
	if err != nil {
		return 0, err
	}
	ft, err := r.TotalFidelityAt(n, fbISwap)
	if err != nil {
		return 0, err
	}
	if 1-base <= 0 {
		return 0, fmt.Errorf("experiments: baseline infidelity is zero")
	}
	return ((1 - base) - (1 - ft)) / (1 - base), nil
}

// Format renders the study as text tables.
func (r *Fig15Result) Format() string {
	out := "== Fig 15 (top): avg decomposition infidelity 1-Fd ==\n"
	out += fmt.Sprintf("%-10s", "n\\k")
	for _, k := range r.Ks {
		out += fmt.Sprintf("%12d", k)
	}
	out += "\n"
	for ni, n := range r.Roots {
		out += fmt.Sprintf("%d√iSWAP   ", n)
		for ki := range r.Ks {
			out += fmt.Sprintf("%12.2e", r.AvgInfidelity[ni][ki])
		}
		out += "\n"
	}
	out += "== Fig 15 (bottom): avg total fidelity Ft vs Fb(iSWAP) ==\n"
	out += fmt.Sprintf("%-10s", "n\\Fb")
	for i := 0; i < len(r.FbGrid); i += 4 {
		out += fmt.Sprintf("%10.3f", r.FbGrid[i])
	}
	out += "\n"
	for ni, n := range r.Roots {
		out += fmt.Sprintf("%d√iSWAP   ", n)
		for i := 0; i < len(r.FbGrid); i += 4 {
			out += fmt.Sprintf("%10.4f", r.AvgTotalFidelity[ni][i])
		}
		out += "\n"
	}
	return out
}

// assertFinite is a tiny internal consistency check used by tests.
func (r *Fig15Result) assertFinite() error {
	for ni := range r.Roots {
		for ki := range r.Ks {
			if v := r.AvgInfidelity[ni][ki]; math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("experiments: infidelity out of range: %g", v)
			}
		}
		for fi := range r.FbGrid {
			if v := r.AvgTotalFidelity[ni][fi]; math.IsNaN(v) || v <= 0 || v > 1+1e-9 {
				return fmt.Errorf("experiments: total fidelity out of range: %g", v)
			}
		}
	}
	return nil
}
