// Package core is the paper's primary contribution as a library: the
// co-design of a quantum machine as a (coupling topology, native basis gate)
// pair, and the evaluation pipeline of Fig. 10 — placement, SWAP routing,
// basis translation, and the four-dataset metrics collection (total SWAPs,
// critical-path SWAPs, total 2Q gates, critical-path pulse duration) used
// throughout the paper's results (Figs. 4, 11–14).
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
)

// Machine is a co-designed quantum computer: a qubit-coupling topology and
// the native two-qubit basis realized by its modulator (paper Observation 1:
// CR→CNOT, FSIM→SYC, SNAIL→√iSWAP).
type Machine struct {
	Name  string
	Graph *topology.Graph
	Basis weyl.Basis

	// Timing is the machine's per-gate-type pulse-duration table. nil means
	// arch.DefaultTiming() — the paper's normalization, under which every
	// historical result and cache entry was computed — and any machine whose
	// effective table differs from the default is cache-keyed separately
	// (see EvaluateKey).
	Timing arch.Timing

	// Noise is the machine's error model (§3.1 regimes: per-2Q-gate control
	// error, decoherence per unit duration, per-edge overrides), carried
	// from the e2q=/tdec=/e2q-<a>-<b>= spec keys. nil means noiseless
	// hardware; evaluations fall back to Options.Noise when the machine has
	// no profile of its own. Like Options.Noise, it is inert unless a
	// fidelity model or noise routing is requested.
	Noise *arch.NoiseProfile
}

// NewMachine builds a machine with an explicit name (and the default
// timing table).
func NewMachine(name string, g *topology.Graph, b weyl.Basis) Machine {
	return Machine{Name: name, Graph: g, Basis: b}
}

// GateDurations resolves the machine's timing table: its own when set, else
// the paper's default normalization.
func (m Machine) GateDurations() arch.Timing {
	if m.Timing != nil {
		return m.Timing
	}
	return arch.DefaultTiming()
}

// FromArch realizes a declarative architecture spec as a machine: the
// family generator builds the coupling graph, the spec's basis, effective
// timing table, and noise profile carry over, and the machine is named by
// the spec's label (explicit name= parameter, else the canonical spec
// string).
func FromArch(a arch.Arch) (Machine, error) {
	g, err := a.Build()
	if err != nil {
		return Machine{}, err
	}
	m := Machine{Name: a.Label(), Graph: g, Basis: a.Basis, Noise: a.Noise.Clone()}
	if a.Timing != nil {
		m.Timing = a.EffectiveTiming()
	}
	return m, nil
}

// FromSpec parses a spec string (see package arch) and realizes it.
func FromSpec(spec string) (Machine, error) {
	a, err := arch.Parse(spec)
	if err != nil {
		return Machine{}, err
	}
	return FromArch(a)
}

// mustSpec is FromSpec for the compile-time catalog specs below, where a
// build error is a programming error.
func mustSpec(spec string) Machine {
	m, err := FromSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("core: catalog spec %q: %v", spec, err))
	}
	return m
}

// RouterKind selects the routing algorithm.
type RouterKind int

const (
	// RouterStochastic is Qiskit-style StochasticSwap (the paper's router).
	RouterStochastic RouterKind = iota
	// RouterSabre is the SABRE lookahead router (ablation).
	RouterSabre
)

// Names spells an enum on the command line and the daemon wire: entry i
// names value i. "" parses to the zero value, the default an unset flag or
// field selects, and is the entry of a default with no other spelling.
type Names[T ~int] []string

// String returns v's name, or its number when the table has no entry.
func (n Names[T]) String(v T) string {
	if v < 0 || int(v) >= len(n) {
		return strconv.Itoa(int(v))
	}
	return n[v]
}

// Parse returns the value named s. what names the flag or field in the
// error, which lists the accepted names.
func (n Names[T]) Parse(what, s string) (T, error) {
	if s == "" {
		return 0, nil
	}
	if i := slices.Index(n, s); i >= 0 {
		return T(i), nil
	}
	want := slices.DeleteFunc(slices.Clone(n), func(name string) bool { return name == "" })
	return 0, fmt.Errorf("unknown %s %q: want %s", what, s, strings.Join(want, " or "))
}

// The name tables of the evaluation enums, for the CLI flags and the wire.
var (
	RouterNames     = Names[RouterKind]{"stochastic", "sabre"}
	FidelityNames   = Names[FidelityModel]{"", "count", "montecarlo"}
	NoiseRouteNames = Names[NoiseRouteMode]{"", "pure", "blend"}
)

func (r RouterKind) String() string     { return RouterNames.String(r) }
func (f FidelityModel) String() string  { return FidelityNames.String(f) }
func (r NoiseRouteMode) String() string { return NoiseRouteNames.String(r) }

// FidelityModel selects how an evaluation estimates the routed circuit's
// fidelity under the machine's noise profile (Metrics.EstFidelity).
type FidelityModel int

const (
	// FidelityOff computes no fidelity (the historical default; fidelity
	// metric fields stay zero and cache keys are unchanged).
	FidelityOff FidelityModel = iota
	// FidelityCount uses the closed-form count model: gate counts and
	// duration-weighted qubit time, no simulation, any machine width.
	FidelityCount
	// FidelityMonteCarlo samples error trajectories through the routed
	// circuit (noise.MonteCarloEstimator): more faithful — it captures
	// error spreading and cancellation — but limited to circuits touching
	// at most sim.MaxQubits qubits.
	FidelityMonteCarlo
)

// NoiseRouteMode selects whether routing costs come from per-edge error
// rates (transpile.NoiseReweightPass) instead of uniform hop distances.
type NoiseRouteMode int

const (
	// NoiseRouteOff routes against hop counts (the historical default).
	NoiseRouteOff NoiseRouteMode = iota
	// NoiseRoutePure installs the error-weighted cost matrix before
	// layout, so placement and routing both prefer high-fidelity links.
	NoiseRoutePure
	// NoiseRouteBlend routes a hop-count pilot first, measures its SWAP
	// pressure, then re-places and re-routes under costs that multiply
	// error weights into pressure weights — pricing a link by both its
	// quality and its congestion.
	NoiseRouteBlend
)

// Options controls an evaluation run.
//
// Parallelism bounds the cell pool of the multi-cell drivers (sweeps,
// HeadlinesContext, CorralScalingContext, Fig. 15): 0 means auto
// (runtime.GOMAXPROCS), 1 pins the run serial, and larger values cap the
// pool explicitly. A single EvaluateContext or TranspileContext is serial
// and ignores it. Results are bit-identical across all settings — every
// cell derives its seed from its coordinates and lands in an
// index-addressed slot, so Parallelism only changes wall-clock time, never
// metrics.
type Options struct {
	Seed        int64      // RNG seed for routing (fixed per experiment)
	Trials      int        // StochasticSwap trials (0 → default 20)
	Router      RouterKind // routing algorithm
	Parallelism int        // cell-pool workers of multi-cell drivers (0 = auto, 1 = serial)

	// CellTimeout bounds the wall-clock of one evaluation (one sweep cell):
	// EvaluateContext derives a deadline child context and the pipeline's
	// cooperative polls (per routed layer, per simulation sweep) stop the
	// work shortly after it expires, failing the cell with
	// context.DeadlineExceeded instead of wedging the sweep. 0 means no
	// per-cell bound. Like Parallelism, it changes only *whether* an
	// evaluation completes, never what it computes (see Identity).
	CellTimeout time.Duration

	// ProfileGuided enables the pressure-weighted pipeline: a pilot pass
	// routes under uniform hop distances and records per-edge SWAP pressure
	// (transpile.EdgeProfile); the guided pass then lays out and routes
	// under weighted all-pairs distances that price congested links (corral
	// fences, tree roots) above idle ones. The cheaper routing — by induced
	// SWAP count, pilot on ties — is kept, so a guided run never does worse
	// than the baseline it profiled. Costs roughly 2× the routing time per
	// iteration. Off by default.
	ProfileGuided bool

	// ProfileIterations bounds the profile→reweight→reroute feedback loop
	// of guided mode (transpile.ProfileGuidedPass): each iteration profiles
	// the best routing so far, re-weights the cost matrices, and re-routes,
	// keeping the result only when strictly cheaper. 0 and 1 both mean
	// the single pilot→reweight step guided mode has always run. The
	// loop stops early at a fixed point: when the incumbent routing's
	// pressure profile reproduces an edge-weight vector already tried, or
	// when no induced SWAPs remain. Ignored unless ProfileGuided is set.
	ProfileIterations int

	// Verify appends transpile.VerifyPass to the pipeline: after routing,
	// the routed circuit is simulated against the logical circuit on the
	// fused statevector engine and the evaluation fails loudly if they
	// disagree (up to global phase and the final-layout permutation) —
	// catching router bugs at the source instead of publishing wrong
	// metrics. It is exponential in the touched-qubit count and errors
	// beyond sim.MaxQubits, so it is an opt-in assurance knob for the
	// small machines, not a default. It changes no metric, but a verified
	// EvaluateContext never *reads* the cache: a cached result may never
	// have been verified, which would skip the very check the knob asks for.
	Verify bool

	// Noise is the default noise profile for machines that carry none of
	// their own (Machine.Noise wins when both are set): one -noise flag can
	// put a whole stock comparison set under the same error model. It is
	// inert — no metric, artifact, or cache key changes — unless Fidelity
	// or NoiseRoute asks for it.
	Noise *arch.NoiseProfile

	// Fidelity selects the estimator that fills Metrics.EstFidelity /
	// ControlFidelity / DecoherenceFidelity from the routed circuit and the
	// effective noise profile. FidelityOff (the default) computes nothing;
	// the other modes require a non-zero noise profile (machine or
	// Options). Estimation runs on the *routed* circuit —
	// the semantic ground truth — not the translated one, whose placeholder
	// 1Q gates are a counting artifact.
	Fidelity FidelityModel

	// NoiseShots is the trajectory count for FidelityMonteCarlo (0 →
	// noise.DefaultShots), ignored by the count model.
	NoiseShots int

	// NoiseRoute routes against per-edge error rates instead of hop counts
	// (see NoiseRouteMode). Like Fidelity it requires a noise profile.
	NoiseRoute NoiseRouteMode

	// Cache, when non-nil, memoizes EvaluateContext results under
	// EvaluateKey: the machine and circuit plus the options' Identity.
	// Because an evaluation is a pure function of those, a hit is
	// byte-identical to recomputing. Concurrent EvaluateContext calls on
	// the same key compute once and share the result.
	Cache *cache.Store[Metrics]
}

// Identity returns the form of opt an evaluation's numbers depend on, the
// one EvaluateKey hashes: the runtime-only fields (Parallelism,
// CellTimeout, Verify, Cache) zeroed, Trials defaulted, NoiseShots
// defaulted under the Monte-Carlo model and zeroed under the others,
// ProfileIterations 0 unless guided with more than one iteration, and
// Noise nil unless a fidelity model or noise routing reads it.
func (opt Options) Identity() Options {
	id := opt
	id.Parallelism, id.CellTimeout, id.Verify, id.Cache = 0, 0, false, nil
	if id.Trials <= 0 {
		id.Trials = transpile.DefaultTrials
	}
	if !id.ProfileGuided || id.ProfileIterations <= 1 {
		id.ProfileIterations = 0
	}
	switch {
	case id.Fidelity != FidelityMonteCarlo:
		id.NoiseShots = 0
	case id.NoiseShots <= 0:
		id.NoiseShots = noise.DefaultShots
	}
	if id.Fidelity == FidelityOff && id.NoiseRoute == NoiseRouteOff {
		id.Noise = nil
	}
	return id
}

// MetricsCache is the content-addressed Evaluate result cache behind
// Options.Cache.
type MetricsCache = cache.Store[Metrics]

// NewMetricsCache builds a cache suitable for Options.Cache: maxEntries
// bounds the in-memory LRU (0 = default), dir adds an on-disk JSON tier
// ("" = memory-only) so warm results survive across processes. Options
// tune the disk tier's robustness machinery (retry policy, error budget,
// health-probe interval, filesystem seam) and default sensibly.
func NewMetricsCache(maxEntries int, dir string, opts ...cache.Option) (*MetricsCache, error) {
	return cache.New[Metrics](maxEntries, dir, opts...)
}

// DefaultOptions is the configuration used by the experiment harnesses.
func DefaultOptions() Options { return Options{Seed: 2022, Trials: transpile.DefaultTrials} }

// Metrics is the paper's four-dataset measurement of one transpiled circuit
// (plus context). SWAP counts are taken after routing, 2Q counts and pulse
// duration after basis translation (Fig. 10).
type Metrics struct {
	Machine  string
	Workload string
	Width    int

	PreRouting2Q  int     // 2Q gates before routing
	TotalSwaps    int     // SWAP gates in the routed circuit (induced + algorithmic)
	InducedSwaps  int     // SWAPs inserted by the router alone
	CriticalSwaps int     // SWAPs on the critical path
	Total2Q       int     // basis gates after translation
	Critical2Q    int     // basis gates on the critical path
	PulseDuration float64 // duration-weighted critical path (1Q free)

	// EstFidelity is the selected estimator's fidelity prediction for the
	// routed circuit under the effective noise profile, with
	// ControlFidelity and DecoherenceFidelity the closed-form count-model
	// factors reported alongside it (their product is the count-model
	// prediction even when EstFidelity is Monte-Carlo sampled). All three
	// are zero when Options.Fidelity is FidelityOff — the default — so
	// historical metrics, goldens, and cache entries are unchanged.
	EstFidelity         float64
	ControlFidelity     float64
	DecoherenceFidelity float64
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s/%s n=%d: swaps=%d critSwaps=%d 2q=%d crit2q=%d dur=%.1f",
		m.Machine, m.Workload, m.Width, m.TotalSwaps, m.CriticalSwaps, m.Total2Q, m.Critical2Q, m.PulseDuration)
}

// Transpiled bundles the full pipeline output for callers that need the
// physical circuit (e.g. simulation-backed examples), not just counts.
// The pipeline counts the translation without building it; a caller that
// prints or simulates the translated circuit builds it from Routed with
// transpile.TranslateToBasis.
type Transpiled struct {
	Layout  transpile.Layout
	Routed  *circuit.Circuit
	Metrics Metrics

	// Profile is the pilot pass's measured per-edge SWAP pressure when
	// Options.ProfileGuided was set (nil otherwise). It always describes
	// the pilot routing — the uniform-cost pass that was profiled — not
	// the possibly-guided routing returned in Routed.
	Profile *transpile.EdgeProfile

	// Timings records the wall-clock of each executed pipeline pass, in
	// order (layout, route, optionally profile-guided, translate), so
	// callers and benchmarks can attribute transpilation time to stages.
	Timings []transpile.PassTiming
}

// EvaluateContext runs the full Fig. 10 flow on a logical circuit and
// returns the paper's metrics. With Options.Cache set, the result is served
// from the content-addressed cache when an identical evaluation already ran
// (or is running concurrently); cold and warm calls return identical
// Metrics.
//
// The effective context is the caller's, tightened by Options.CellTimeout
// when one is set. A cancelled or expired evaluation fails with the
// context's error (never cached — errors are not cacheable — so a later
// retry under a looser budget recomputes cleanly). Concurrent deduplicated
// callers of the same key share the first caller's outcome, including its
// timeout error.
func (m Machine) EvaluateContext(ctx context.Context, c *circuit.Circuit, opt Options) (Metrics, error) {
	if opt.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.CellTimeout)
		defer cancel()
	}
	eval := func() (Metrics, error) {
		t, err := m.TranspileContext(ctx, c, opt)
		if err != nil {
			return Metrics{}, err
		}
		return t.Metrics, nil
	}
	// Verify must actually verify: a cache hit would return metrics from
	// an evaluation whose routing may never have been simulated, so
	// verified runs bypass the cache entirely (the metrics they produce
	// are identical to cached ones, just independently checked).
	if opt.Cache == nil || m.Graph == nil || opt.Verify {
		return eval()
	}
	return opt.Cache.Do(m.EvaluateKey(c, opt), eval)
}

// evaluateKeyDomain versions the Evaluate cache key. The key hashes the
// call's *inputs*; the pipeline's *code* is represented only by this tag.
// BUMP THE SUFFIX whenever a change alters what Evaluate computes for the
// same inputs (router cost functions, translation counting rules, metric
// definitions, seed derivation) — otherwise a persistent -cachedir from an
// older build serves the old algorithm's numbers as if freshly computed.
const evaluateKeyDomain = "core.Evaluate/v2"

// EvaluateKey derives the content hash of one Evaluate call: everything the
// metrics depend on and nothing else — the machine, the circuit, and
// opt.Identity(), so options that evaluate identically share an entry.
// Exported so the sweep journal can address completed cells by the same
// identity the cache uses — a resumed run replays exactly the cells an
// uninterrupted run would have served warm.
func (m Machine) EvaluateKey(c *circuit.Circuit, opt Options) cache.Key {
	opt = opt.Identity()
	h := cache.NewHasher(evaluateKeyDomain)
	h.WriteString(m.Name)
	h.WriteUint(m.Graph.Fingerprint())
	h.WriteInt(int64(m.Basis))
	h.WriteUint(c.Fingerprint())
	h.WriteInt(opt.Seed)
	h.WriteInt(int64(opt.Trials))
	h.WriteInt(int64(opt.Router))
	// Profile-guided mode computes different numbers from the same inputs,
	// so it must never share entries with the baseline. Appending a tagged
	// field only in guided mode keeps every baseline key bit-identical to
	// earlier builds (warm -cachedir entries stay valid) while guided keys
	// live in their own namespace: Hasher fields are tagged and length-
	// delimited, so a truncated guided key can never collide with a baseline
	// key. Bump the suffix if the guided pipeline's behavior changes.
	if opt.ProfileGuided {
		h.WriteString("profile-guided/v1")
		// Multi-iteration guided runs compute different numbers again, so
		// they get their own tagged field — appended only for iterations
		// > 1 (Identity folds 0 and 1 to 0): warm guided entries from
		// earlier builds keep hitting.
		if opt.ProfileIterations != 0 {
			h.WriteString("profile-iterations")
			h.WriteInt(int64(opt.ProfileIterations))
		}
	}
	// A custom timing table changes PulseDuration for the same inputs, so
	// it gets its own tagged field — appended only when the effective table
	// differs from the default, because nil and an explicit default table
	// mean the normalization every historical entry was computed under:
	// default-timed keys stay bit-identical to earlier builds.
	if m.Timing != nil && !m.Timing.Equal(arch.DefaultTiming()) {
		h.WriteString("gate-timing/v1")
		gates := make([]string, 0, len(m.Timing))
		for g := range m.Timing {
			gates = append(gates, g)
		}
		sort.Strings(gates)
		for _, g := range gates {
			h.WriteString(g)
			h.WriteFloat(m.Timing[g])
		}
	}
	// Noise-aware evaluation computes additional numbers (fidelity metrics)
	// or different ones (error-weighted routing) from the same inputs, so it
	// gets its own tagged field — appended only when a fidelity model or
	// noise routing is enabled, never for a machine that merely *carries* a
	// profile, because an inert profile changes nothing: every baseline key
	// (and both fig11 goldens' warm caches) stays bit-identical to earlier
	// builds. The field hashes the mode selections plus the effective
	// profile's parameters, and the shots under the Monte-Carlo model.
	if opt.Fidelity != FidelityOff || opt.NoiseRoute != NoiseRouteOff {
		h.WriteString("noise/v1")
		h.WriteInt(int64(opt.Fidelity))
		h.WriteInt(int64(opt.NoiseRoute))
		if opt.Fidelity == FidelityMonteCarlo {
			h.WriteString("shots")
			h.WriteInt(int64(opt.NoiseShots))
			// The trajectory algorithm's version: a change that moves
			// Monte-Carlo fidelities (even in the last bits) bumps it, so
			// disk tiers warmed by an older build recompute instead of
			// serving its numbers. Count-model and noise-free keys never
			// carry it.
			h.WriteString(noise.MonteCarloVersion)
		}
		p := m.effectiveNoise(opt)
		if !p.IsZero() {
			h.WriteFloat(p.E2Q)
			h.WriteFloat(p.TDec)
			for _, e := range p.Edges() {
				h.WriteInt(int64(e[0]))
				h.WriteInt(int64(e[1]))
				h.WriteFloat(p.EdgeE2Q[e])
			}
		}
	}
	return h.Sum()
}

// effectiveNoise resolves the noise profile an evaluation runs under: the
// machine's own when it has one, else the Options-level default (nil when
// neither is set).
func (m Machine) effectiveNoise(opt Options) *arch.NoiseProfile {
	if !m.Noise.IsZero() {
		return m.Noise
	}
	return opt.Noise
}

// estimator resolves the Options fidelity-model selection to a
// noise.Estimator. Monte-Carlo seeds from opt.Seed — the same per-cell
// derived seed routing uses — and samples serially like the rest of the
// evaluation.
func (opt Options) estimator() (noise.Estimator, error) {
	switch opt.Fidelity {
	case FidelityCount:
		return noise.CountEstimator{}, nil
	case FidelityMonteCarlo:
		return noise.MonteCarloEstimator{Shots: opt.NoiseShots, Seed: opt.Seed}, nil
	default:
		return nil, fmt.Errorf("core: unknown fidelity model %d", opt.Fidelity)
	}
}

// routerFunc resolves the Options router selection to the pipeline's
// RouterFunc slot.
func (opt Options) routerFunc() (transpile.RouterFunc, error) {
	switch opt.Router {
	case RouterStochastic:
		return transpile.StochasticSwapCostCtx, nil
	case RouterSabre:
		return transpile.SabreRouter, nil
	default:
		return nil, fmt.Errorf("core: unknown router %d", opt.Router)
	}
}

// Pipeline builds the pass sequence an evaluation with these options runs:
// dense layout, routing, optionally the profile-guided feedback loop, then
// basis translation (Fig. 10, as composable transpile.Pass stages). The
// default (ProfileGuided off) pipeline is layout → route → translate —
// byte-identical to the historical monolithic Transpile. With NoiseRoute
// set, the error-weighted cost matrix is installed before layout (pure
// mode) or after a hop-count pilot whose pressure profile it blends with
// (blend mode: layout → route → profile → noise-reweight → layout →
// route); profile-guided iteration, when also requested, stacks on top of
// the noise-routed result. Callers composing custom pipelines (extra
// passes, different order) can run them directly over a
// transpile.PassContext; this is only the stock arrangement.
func (m Machine) Pipeline(opt Options) (transpile.Pipeline, error) {
	router, err := opt.routerFunc()
	if err != nil {
		return nil, err
	}
	var noiseErrors func(a, b int) float64
	if opt.NoiseRoute != NoiseRouteOff {
		if opt.NoiseRoute != NoiseRoutePure && opt.NoiseRoute != NoiseRouteBlend {
			return nil, fmt.Errorf("core: unknown noise-route mode %d", opt.NoiseRoute)
		}
		p := m.effectiveNoise(opt)
		if p.IsZero() {
			return nil, fmt.Errorf("core: %s: noise routing requested but no noise profile (set Options.Noise or the machine's e2q=/tdec= spec keys)", m.Name)
		}
		noiseErrors = p.EdgeError
	}
	var pipe transpile.Pipeline
	if opt.NoiseRoute == NoiseRoutePure {
		pipe = append(pipe, transpile.NoiseReweightPass{Errors: noiseErrors})
	}
	pipe = append(pipe,
		transpile.LayoutPass{},
		transpile.RoutePass{Router: router},
	)
	if opt.NoiseRoute == NoiseRouteBlend {
		pipe = append(pipe,
			transpile.ProfilePass{},
			transpile.NoiseReweightPass{Errors: noiseErrors, Blend: true},
			transpile.LayoutPass{},
			transpile.RoutePass{Router: router},
		)
	}
	if opt.ProfileGuided {
		pipe = append(pipe, transpile.ProfileGuidedPass{
			Router:     router,
			Alpha:      transpile.DefaultPressureAlpha,
			Iterations: opt.ProfileIterations,
		})
	}
	if opt.Verify {
		// After the final routing (pilot or guided), before translation:
		// translation only counts basis gates, so the routed circuit is
		// the semantic ground truth.
		pipe = append(pipe, transpile.VerifyPass{})
	}
	return append(pipe, transpile.TranslatePass{Durations: m.GateDurations()}), nil
}

// TranspileContext runs the machine's pass pipeline — placement, routing,
// optionally profile-guided re-routing, and basis translation — returning
// all intermediate artifacts and metrics. With Options.ProfileGuided set,
// the first routing acts as a pilot whose measured per-edge SWAP pressure
// re-weights the cost matrices for up to Options.ProfileIterations further
// placement+routing passes; the cheapest routing wins (incumbent on ties),
// so guided mode is never worse than the baseline on the metric it
// optimizes.
//
// ctx is threaded into the pass pipeline (checked between passes and
// polled inside the routers and verification). CellTimeout is
// EvaluateContext's concern; this method honors only the context it is
// given.
func (m Machine) TranspileContext(ctx context.Context, c *circuit.Circuit, opt Options) (*Transpiled, error) {
	if m.Graph == nil {
		return nil, fmt.Errorf("core: machine %q has no topology", m.Name)
	}
	pipe, err := m.Pipeline(opt)
	if err != nil {
		return nil, err
	}
	pctx := &transpile.PassContext{
		Graph:   m.Graph,
		Basis:   m.Basis,
		Circuit: c,
		Seed:    opt.Seed,
		Trials:  opt.Trials,
		Ctx:     ctx,
	}
	if err := pipe.Run(pctx); err != nil {
		return nil, fmt.Errorf("core: %s: %w", m.Name, err)
	}
	routed, counts := pctx.Routed, pctx.Counts
	met := Metrics{
		Machine:       m.Name,
		Width:         c.N,
		PreRouting2Q:  c.CountTwoQubit(),
		TotalSwaps:    routed.Circuit.CountByName("swap"),
		InducedSwaps:  routed.SwapCount,
		CriticalSwaps: routed.Circuit.CriticalSwaps(),
		Total2Q:       counts.Total2Q,
		Critical2Q:    counts.Critical2Q,
		PulseDuration: counts.PulseDuration,
	}
	if opt.Fidelity != FidelityOff {
		prof := m.effectiveNoise(opt)
		if prof.IsZero() {
			return nil, fmt.Errorf("core: %s: fidelity estimation requested but no noise profile (set Options.Noise or the machine's e2q=/tdec= spec keys)", m.Name)
		}
		est, err := opt.estimator()
		if err != nil {
			return nil, err
		}
		// Estimate on the routed circuit — the semantic ground truth the
		// verifier also checks — charging decoherence with the machine's
		// timing table, the same source PulseDuration reads.
		e, err := est.Estimate(ctx, routed.Circuit, noise.FromProfile(prof, m.GateDurations()))
		if err != nil {
			return nil, fmt.Errorf("core: %s: %s fidelity: %w", m.Name, est.Name(), err)
		}
		met.EstFidelity = e.Fidelity
		met.ControlFidelity = e.Control
		met.DecoherenceFidelity = e.Decoherence
	}
	return &Transpiled{
		Layout:  pctx.Layout,
		Routed:  routed.Circuit,
		Metrics: met,
		Profile: pctx.Profile,
		Timings: pctx.Timings,
	}, nil
}

// ---- Machine catalog (the paper's comparison systems) ----
//
// Every catalog machine is a registry lookup: its spec string is the single
// definition, and the named constructor is a pinned alias whose graph
// fingerprint, machine name, and EvaluateKeys are byte-identical to the
// historical hand-built versions (TestCatalogMatchesRegistry).

// HeavyHex20CX is IBM's representative small machine: Heavy-Hex + CR/CNOT.
func HeavyHex20CX() Machine { return mustSpec("heavyhex:fragment=20,name=Heavy-Hex-CX") }

// SquareLattice16SYC is Google's representative small machine:
// Square-Lattice + FSIM/SYC.
func SquareLattice16SYC() Machine {
	return mustSpec("grid:rows=4,cols=4,basis=syc,name=Square-Lattice-SYC")
}

// Tree20SqrtISwap is the SNAIL 4-ary tree with its native √iSWAP.
func Tree20SqrtISwap() Machine {
	return mustSpec("tree:levels=2,basis=sqrtiswap,name=Tree-sqrtISWAP")
}

// TreeRR20SqrtISwap is the round-robin tree with √iSWAP.
func TreeRR20SqrtISwap() Machine {
	return mustSpec("tree-rr:levels=2,basis=sqrtiswap,name=Tree-RR-sqrtISWAP")
}

// Corral11SqrtISwap is the stride-(1,1) corral with √iSWAP. The graph keeps
// its historical stride-set label (the fingerprint is name-independent).
func Corral11SqrtISwap() Machine {
	m := mustSpec("corral:posts=8,strides=1+1,basis=sqrtiswap,name=Corral11-sqrtISWAP")
	m.Graph.Name = "Corral(1,1)"
	return m
}

// Corral12SqrtISwap is the long-stride corral with √iSWAP (stride set {1,3},
// labeled by the paper's "configuration 2"; see topology.Corral12).
func Corral12SqrtISwap() Machine {
	m := mustSpec("corral:posts=8,strides=1+3,basis=sqrtiswap,name=Corral12-sqrtISWAP")
	m.Graph.Name = "Corral(1,2)"
	return m
}

// Hypercube16SqrtISwap is the aspirational 4-cube with √iSWAP.
func Hypercube16SqrtISwap() Machine {
	return mustSpec("hypercube:dim=4,basis=sqrtiswap,name=Hypercube-sqrtISWAP")
}

// HeavyHex84CX, SquareLattice84SYC, Tree84SqrtISwap, TreeRR84SqrtISwap and
// Hypercube84SqrtISwap are the scaled (Table 2 / Fig. 14) machines.

func HeavyHex84CX() Machine { return mustSpec("heavyhex:rows=5,cols=14,name=Heavy-Hex-CX") }

func SquareLattice84SYC() Machine {
	return mustSpec("grid:rows=7,cols=12,basis=syc,name=Square-Lattice-SYC")
}

func Tree84SqrtISwap() Machine {
	return mustSpec("tree:levels=3,basis=sqrtiswap,name=Tree-sqrtISWAP")
}

func TreeRR84SqrtISwap() Machine {
	return mustSpec("tree-rr:levels=3,basis=sqrtiswap,name=Tree-RR-sqrtISWAP")
}

func Hypercube84SqrtISwap() Machine {
	return mustSpec("hypercube:dim=7,trim=84,basis=sqrtiswap,name=Hypercube-sqrtISWAP")
}

// Machines16 returns the co-design comparison set of Fig. 13.
func Machines16() []Machine {
	return []Machine{
		HeavyHex20CX(),
		SquareLattice16SYC(),
		Tree20SqrtISwap(),
		TreeRR20SqrtISwap(),
		Hypercube16SqrtISwap(),
		Corral11SqrtISwap(),
	}
}

// Machines84 returns the co-design comparison set of Fig. 14.
func Machines84() []Machine {
	return []Machine{
		HeavyHex84CX(),
		SquareLattice84SYC(),
		Tree84SqrtISwap(),
		TreeRR84SqrtISwap(),
		Hypercube84SqrtISwap(),
	}
}
