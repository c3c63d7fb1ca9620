package transpile

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// PassContext is the shared state a Pipeline threads through its passes:
// the immutable problem description (graph, basis, logical circuit, seed,
// trials) plus the artifacts the stages of the paper's Fig. 10
// flow produce and consume — the routing cost matrix, the chosen layout,
// the routed circuit, the measured pressure profile, and the translation's
// counts. Passes communicate exclusively through this struct, so any stage
// can be replaced, reordered, or repeated without touching the others.
type PassContext struct {
	// Inputs. Circuit is the logical circuit and is never mutated; Seed is
	// the deterministic base every routing pass derives its RNG from (a
	// fresh rand.New(rand.NewSource(Seed)) per pass, so each pass is
	// independently reproducible); Trials parameterizes the stochastic
	// router exactly as in StochasticSwapCostCtx.
	Graph   *topology.Graph
	Basis   weyl.Basis
	Circuit *circuit.Circuit
	Seed    int64
	Trials  int

	// Ctx carries the caller's deadline/cancellation into the passes: the
	// pipeline checks it between passes, and the long-running passes (the
	// routers, verification's simulations) poll it cooperatively so a
	// timed-out cell actually stops mid-pass. nil means context.Background()
	// — existing callers and tests need no change. Ctx never influences the
	// computed artifacts, only whether the run completes, so it is excluded
	// from evaluation cache keys.
	Ctx context.Context

	// Cost is the routing cost matrix consumed by layout and routing
	// passes: nil means uniform hop distances (the baseline pipeline);
	// ReweightPass replaces it with pressure-weighted all-pairs distances.
	Cost [][]float64

	// Artifacts, in pipeline order. Counts is TranslatePass's measurement
	// of the routed circuit's translation; the translated circuit itself is
	// built only by callers that print or simulate it (TranslateToBasis).
	Layout  Layout
	Routed  *RouteResult
	Profile *EdgeProfile // pilot pressure profile (ProfileGuidedPass/ProfilePass)
	Counts  BasisCounts

	// Timings records one entry per executed pass (appended by
	// Pipeline.Run), so callers can attribute wall-clock to stages.
	Timings []PassTiming
}

// context resolves the pass context's cancellation context, mapping the
// zero value to Background so no pass needs a nil check.
func (ctx *PassContext) context() context.Context {
	if ctx.Ctx == nil {
		return context.Background()
	}
	return ctx.Ctx
}

// PassTiming is the measured wall-clock of one executed pass.
type PassTiming struct {
	Name     string
	Duration time.Duration
}

// Pass is one stage of the transpilation pipeline: a named transformation
// of the shared PassContext. Passes must be deterministic functions of the
// context (deriving any randomness from PassContext.Seed) so that a
// pipeline's output is a pure function of its inputs.
type Pass interface {
	Name() string
	Apply(ctx *PassContext) error
}

// Pipeline is an ordered sequence of passes. The zero value is an empty
// pipeline; Run on it is a no-op.
type Pipeline []Pass

// Run applies each pass in order, recording per-pass wall-clock in
// ctx.Timings. The first failing pass aborts the run with its name wrapped
// into the error. A done ctx.Ctx aborts between passes with its error
// undecorated (a deadline is the caller's verdict on the whole run, not a
// pass failure); the long passes additionally poll it internally.
func (p Pipeline) Run(ctx *PassContext) error {
	for _, pass := range p {
		if err := ctx.context().Err(); err != nil {
			return err
		}
		start := time.Now()
		if err := pass.Apply(ctx); err != nil {
			return fmt.Errorf("%s pass: %w", pass.Name(), err)
		}
		ctx.Timings = append(ctx.Timings, PassTiming{Name: pass.Name(), Duration: time.Since(start)})
	}
	return nil
}

// RouterFunc is the routing algorithm slot of RoutePass and
// ProfileGuidedPass: route c onto g from layout under cost (nil = uniform
// hops) with the caller's rng, polling rctx cooperatively so a
// deadline-bound cell can stop a long search. StochasticSwapCostCtx fills
// the slot as it is and SabreRouter adapts SABRE; alternative routers plug
// in without a new pass type.
type RouterFunc func(rctx context.Context, g *topology.Graph, c *circuit.Circuit, layout Layout, rng *rand.Rand, trials int, cost [][]float64) (*RouteResult, error)

// SabreRouter adapts SabreSwapCostCtx to the RouterFunc slot (SABRE runs
// no randomized trials, so trials is unused).
func SabreRouter(rctx context.Context, g *topology.Graph, c *circuit.Circuit, layout Layout, rng *rand.Rand, trials int, cost [][]float64) (*RouteResult, error) {
	return SabreSwapCostCtx(rctx, g, c, layout, rng, cost)
}

// LayoutPass chooses the initial placement with DenseLayoutCost under the
// context's current cost matrix (nil = uniform hop distances).
type LayoutPass struct{}

// Name implements Pass.
func (LayoutPass) Name() string { return "layout" }

// Apply implements Pass.
func (LayoutPass) Apply(ctx *PassContext) error {
	l, err := DenseLayoutCost(ctx.Graph, ctx.Circuit, ctx.Cost)
	if err != nil {
		return err
	}
	ctx.Layout = l
	return nil
}

// RoutePass inserts SWAPs with the configured router, reading the layout
// and cost matrix from the context and seeding a fresh RNG from ctx.Seed so
// the pass is independently deterministic wherever it sits in a pipeline.
type RoutePass struct {
	Router RouterFunc
}

// Name implements Pass.
func (RoutePass) Name() string { return "route" }

// Apply implements Pass.
func (p RoutePass) Apply(ctx *PassContext) error {
	router := p.Router
	if router == nil {
		router = StochasticSwapCostCtx
	}
	if ctx.Layout == nil {
		return fmt.Errorf("no layout (run a layout pass first)")
	}
	rng := rand.New(rand.NewSource(ctx.Seed))
	routed, err := router(ctx.context(), ctx.Graph, ctx.Circuit, ctx.Layout, rng, ctx.Trials, ctx.Cost)
	if err != nil {
		return err
	}
	ctx.Routed = routed
	return nil
}

// ProfilePass measures the per-edge SWAP pressure of the routed circuit
// into ctx.Profile. It is a pure measurement: deterministic for a fixed
// routed circuit, no artifact is modified.
type ProfilePass struct{}

// Name implements Pass.
func (ProfilePass) Name() string { return "profile" }

// Apply implements Pass.
func (ProfilePass) Apply(ctx *PassContext) error {
	if ctx.Routed == nil {
		return fmt.Errorf("no routed circuit (run a route pass first)")
	}
	prof, err := ProfileRoutedCircuit(ctx.Graph, ctx.Routed.Circuit)
	if err != nil {
		return err
	}
	ctx.Profile = prof
	return nil
}

// ReweightPass converts the measured pressure profile into a weighted
// all-pairs cost matrix (EdgeProfile.Weights → Graph.WeightedDistances) and
// installs it as ctx.Cost, so subsequent layout/route passes price
// congested links above idle ones. Alpha ≤ 0 uses DefaultPressureAlpha.
type ReweightPass struct {
	Alpha float64
}

// Name implements Pass.
func (ReweightPass) Name() string { return "reweight" }

// Apply implements Pass.
func (p ReweightPass) Apply(ctx *PassContext) error {
	if ctx.Profile == nil {
		return fmt.Errorf("no pressure profile (run a profile pass first)")
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = DefaultPressureAlpha
	}
	cost, err := ctx.Graph.WeightedDistances(ctx.Profile.Weights(alpha))
	if err != nil {
		return err
	}
	ctx.Cost = cost
	return nil
}

// DefaultNoiseAlpha scales how strongly per-edge error rates inflate edge
// costs in NoiseReweightPass (w = 1 + alpha·c/max where c = −ln(1−p)): 2.0
// makes the worst coupling read three hops long, enough to steer traffic
// off a bad link without making every detour free.
const DefaultNoiseAlpha = 2.0

// NoiseReweightPass is the noise-aware ReweightPass source: it converts
// per-edge two-qubit error rates into a weighted all-pairs cost matrix
// (Graph.ErrorWeights → Graph.WeightedDistances) and installs it as
// ctx.Cost, so subsequent layout/route passes prefer high-fidelity
// couplings the way pressure-weighted passes avoid congested ones. Placed
// before the first LayoutPass it routes against error rates alone ("pure"
// mode); with Blend set it multiplies the error weights into the measured
// SWAP-pressure weights of ctx.Profile, pricing a link by both its
// congestion and its quality — blend mode therefore requires a profile
// pass upstream. Errors supplies the rate per physical coupling (a, b);
// rates must lie in [0,1). Alpha ≤ 0 uses DefaultNoiseAlpha.
type NoiseReweightPass struct {
	Errors func(a, b int) float64
	Alpha  float64
	Blend  bool
}

// Name implements Pass.
func (NoiseReweightPass) Name() string { return "noise-reweight" }

// Apply implements Pass.
func (p NoiseReweightPass) Apply(ctx *PassContext) error {
	if p.Errors == nil {
		return fmt.Errorf("no error-rate source (set NoiseReweightPass.Errors)")
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = DefaultNoiseAlpha
	}
	w, err := ctx.Graph.ErrorWeights(p.Errors, alpha)
	if err != nil {
		return err
	}
	if p.Blend {
		if ctx.Profile == nil {
			return fmt.Errorf("no pressure profile to blend (run a profile pass first)")
		}
		for i, pw := range ctx.Profile.Weights(DefaultPressureAlpha) {
			w[i] *= pw
		}
	}
	cost, err := ctx.Graph.WeightedDistances(w)
	if err != nil {
		return err
	}
	ctx.Cost = cost
	return nil
}

// TranslatePass measures the routed circuit's translation into the
// context's basis into ctx.Counts: the basis-gate total, the critical-path
// basis gates and the pulse duration under Durations, each equal to what
// TranslateToBasis's circuit would give, counted without building it.
// Durations is the machine's timing table (nil prices every gate at 0).
type TranslatePass struct {
	Durations map[string]float64
}

// Name implements Pass.
func (TranslatePass) Name() string { return "translate" }

// Apply implements Pass.
func (p TranslatePass) Apply(ctx *PassContext) error {
	if ctx.Routed == nil {
		return fmt.Errorf("no routed circuit (run a route pass first)")
	}
	counts, err := countBasis(ctx.Routed.Circuit, ctx.Basis, p.Durations)
	if err != nil {
		return err
	}
	ctx.Counts = counts
	return nil
}

// ProfileGuidedPass iterates the pressure feedback loop of profile-guided
// routing to a fixed point: profile the best routing so far, re-weight the
// cost matrices, re-place and re-route under them, and keep the cheaper
// routing (by induced SWAP count, incumbent on ties). With Iterations = 1
// it is exactly the single pilot→reweight step of the original
// profile-guided pipeline; larger values let an improved routing be
// profiled again, which can expose a different congestion pattern.
//
// Invariants, preserved at every iteration:
//
//   - keep-cheapest: the incumbent routing is replaced only by a strictly
//     cheaper candidate, so N iterations never yield more induced SWAPs
//     than N−1 (the iteration sequence is deterministic, and a longer run
//     extends — never revises — a shorter one);
//   - convergence: iteration stops early when the pressure profile of the
//     incumbent produces an edge-weight vector already tried (fingerprint
//     repeat) — rerouting under identical weights is a deterministic
//     replay — or when the incumbent has zero induced SWAPs (already
//     optimal on the contested metric).
//
// ctx.Profile is set to the *pilot* profile (the pressure measured on the
// incoming routing), matching the original contract that the exposed
// profile always describes the uniform-cost pass that seeded guidance.
// ctx.Cost is left untouched: the winning routing already absorbed any
// reweighting, and downstream passes (translation) are cost-independent.
type ProfileGuidedPass struct {
	Router     RouterFunc
	Alpha      float64 // ≤ 0 → DefaultPressureAlpha
	Iterations int     // < 1 → 1
}

// Name implements Pass.
func (ProfileGuidedPass) Name() string { return "profile-guided" }

// Apply implements Pass.
func (p ProfileGuidedPass) Apply(ctx *PassContext) error {
	if ctx.Routed == nil {
		return fmt.Errorf("no pilot routing (run a route pass first)")
	}
	router := p.Router
	if router == nil {
		router = StochasticSwapCostCtx
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = DefaultPressureAlpha
	}
	iters := p.Iterations
	if iters < 1 {
		iters = 1
	}
	pilot, err := ProfileRoutedCircuit(ctx.Graph, ctx.Routed.Circuit)
	if err != nil {
		return err
	}
	ctx.Profile = pilot
	bestLayout, bestRouted := ctx.Layout, ctx.Routed
	profile := pilot
	tried := make(map[uint64]bool, iters)
	for it := 0; it < iters; it++ {
		if err := ctx.context().Err(); err != nil {
			return err
		}
		// A routing with zero induced SWAPs is already optimal on the
		// metric the guided pass competes on (total = algorithmic +
		// induced, and algorithmic SWAPs are fixed by the logical
		// circuit), so any further candidate can at best tie and lose the
		// tie.
		if bestRouted.SwapCount == 0 {
			break
		}
		weights := profile.Weights(alpha)
		fp := weights.Fingerprint()
		if tried[fp] {
			break // fixed point: identical weights replay an earlier candidate
		}
		tried[fp] = true
		cost, err := ctx.Graph.WeightedDistances(weights)
		if err != nil {
			return err
		}
		layout, err := DenseLayoutCost(ctx.Graph, ctx.Circuit, cost)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(ctx.Seed))
		routed, err := router(ctx.context(), ctx.Graph, ctx.Circuit, layout, rng, ctx.Trials, cost)
		if err != nil {
			return err
		}
		if routed.SwapCount >= bestRouted.SwapCount {
			// Candidate lost: the incumbent is unchanged, so the next
			// iteration would profile the same routing into the same
			// weights and replay this exact candidate.
			break
		}
		bestLayout, bestRouted = layout, routed
		if profile, err = ProfileRoutedCircuit(ctx.Graph, routed.Circuit); err != nil {
			return err
		}
	}
	ctx.Layout, ctx.Routed = bestLayout, bestRouted
	return nil
}
