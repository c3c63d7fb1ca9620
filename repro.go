// Package repro is a from-scratch Go reproduction of "Co-Designed
// Architectures for Modular Superconducting Quantum Computers" (McKinney,
// Xia, Zhou, Lu, Hatridge, Jones — HPCA 2023, arXiv:2205.04387).
//
// It provides, as a library:
//
//   - the co-design core: machines as (coupling topology, native basis gate)
//     pairs and the full evaluation pipeline of the paper's Fig. 10
//     (dense placement → stochastic SWAP routing → KAK basis translation →
//     SWAP/2Q/pulse-duration metrics);
//   - every topology of Tables 1–2: Square/Hex/Heavy-Hex lattices,
//     Lattice+AltDiagonals, Hypercube (incl. the Harper-trimmed 84-qubit
//     cube), and the SNAIL-enabled 4-ary Tree, Round-Robin Tree, and
//     Corral rings;
//   - the Cartan/Weyl machinery: canonical coordinates, full KAK
//     factorization, per-basis gate-count rules (CNOT, √iSWAP, SYC, iSWAP),
//     and exact minimal-CNOT circuit synthesis;
//   - the six scalable NISQ workloads (QuantumVolume, QFT, QAOA-Vanilla,
//     TIM Hamiltonian simulation, CDKM adder, GHZ);
//   - a statevector simulator for semantic verification;
//   - the NuOp-style numerical decomposition engine behind the n√iSWAP
//     pulse-duration sensitivity study (Fig. 15) with the Eq. 12–13
//     decoherence/approximation fidelity model;
//   - the SNAIL hardware model (module capacity limits, parametric
//     frequency allocation, neighborhood-parallel gate scheduling) and the
//     driven-exchange chevron physics of Fig. 6;
//   - experiment harnesses that regenerate every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	c := repro.GHZ(12)
//	machine := repro.Tree20SqrtISwap()
//	metrics, err := machine.Evaluate(c, repro.DefaultOptions())
//
// See the examples/ directory and the cmd/ tools (topostat, qcbench,
// fidsweep, chevron) for complete programs.
package repro

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/snail"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// ---- Core co-design types ----

// Machine is a co-designed quantum computer (topology + native basis).
type Machine = core.Machine

// Metrics is the paper's four-dataset measurement of a transpiled circuit.
type Metrics = core.Metrics

// Options configures an evaluation (router, seed, trials).
type Options = core.Options

// Transpiled bundles the layout, routed, and translated artifacts.
type Transpiled = core.Transpiled

// MetricsCache is the content-addressed Evaluate result cache: set it on
// Options.Cache (or SweepSpec.Cache / the Headlines and CorralScaling store
// parameter) so identical evaluations — across overlapping sweeps, repeated
// figure regenerations, or concurrent cells — route once. Entries never
// need invalidation: keys are hashes of everything the result depends on.
type MetricsCache = cache.Store[core.Metrics]

// CacheStats is a snapshot of a MetricsCache's hit/miss/fill counters.
type CacheStats = cache.Stats

// NewMetricsCache builds an Evaluate result cache. maxEntries bounds the
// in-memory LRU tier (0 = default); dir, when non-empty, adds an on-disk
// JSON tier so warm results survive across processes. Options tune the
// disk tier's robustness machinery — see WithCacheRetry and friends.
func NewMetricsCache(maxEntries int, dir string, opts ...CacheOption) (*MetricsCache, error) {
	return core.NewMetricsCache(maxEntries, dir, opts...)
}

// Circuit is the gate-list IR accepted by the pipeline.
type Circuit = circuit.Circuit

// Graph is a qubit-coupling topology.
type Graph = topology.Graph

// Stats is a Table 1/2 row (qubits, diameter, avg distance, avg degree).
type Stats = topology.Stats

// Basis identifies a native two-qubit basis gate.
type Basis = weyl.Basis

// Coord is a canonical Weyl-chamber coordinate triple.
type Coord = weyl.Coord

// Matrix is a dense complex matrix (unitaries, states).
type Matrix = linalg.Matrix

// Basis gates (paper Observation 1).
const (
	BasisCX        = weyl.BasisCX
	BasisSqrtISwap = weyl.BasisSqrtISwap
	BasisSYC       = weyl.BasisSYC
	BasisISwap     = weyl.BasisISwap
)

// NewMachine builds a machine from a topology and basis.
func NewMachine(name string, g *Graph, b Basis) Machine { return core.NewMachine(name, g, b) }

// DefaultOptions returns the experiment-default pipeline options.
func DefaultOptions() Options { return core.DefaultOptions() }

// ---- Architecture registry (declarative machine specs) ----

// Arch is a declarative architecture spec: a registered topology family,
// its parameters, a native basis, and a per-gate-type timing table,
// parseable from the "family:key=value,..." grammar (see ParseArch).
type Arch = arch.Arch

// ArchFamily is one registered topology family (name, parameter keys,
// smoke spec, and graph builder).
type ArchFamily = arch.Family

// GateTiming maps gate names to relative pulse durations (iSWAP = 1.0);
// Machine.Timing and the noise model's duration charges both read it.
type GateTiming = arch.Timing

var (
	// ParseArch decodes one spec string ("corral:posts=11,basis=sqrtiswap");
	// ParseArchList decodes a ';'- or ','-separated list of them. Arch.String
	// round-trips: ParseArch(a.String()) reproduces a exactly.
	ParseArch     = arch.Parse
	ParseArchList = arch.ParseList

	// ArchFamilies lists the registered families sorted by name;
	// RegisterArchFamily adds one (duplicate names rejected).
	ArchFamilies       = arch.Families
	RegisterArchFamily = arch.Register

	// DefaultGateTiming is the paper's pulse-length normalization — the
	// single source of truth behind StandardDurations and every machine
	// built without an explicit table.
	DefaultGateTiming = arch.DefaultTiming

	// MachineFromArch realizes a parsed spec as a Machine; MachineFromSpec
	// parses and realizes in one step. MachinesFromSpecs builds a whole
	// comparison set (unique names enforced) for SweepSpec.Machines — the
	// engine behind qcbench -machines.
	MachineFromArch   = core.FromArch
	MachineFromSpec   = core.FromSpec
	MachinesFromSpecs = experiments.MachinesFromSpecs
)

// Machine catalog (paper Figs. 13–14).
var (
	HeavyHex20CX         = core.HeavyHex20CX
	SquareLattice16SYC   = core.SquareLattice16SYC
	Tree20SqrtISwap      = core.Tree20SqrtISwap
	TreeRR20SqrtISwap    = core.TreeRR20SqrtISwap
	Corral11SqrtISwap    = core.Corral11SqrtISwap
	Corral12SqrtISwap    = core.Corral12SqrtISwap
	Hypercube16SqrtISwap = core.Hypercube16SqrtISwap
	HeavyHex84CX         = core.HeavyHex84CX
	SquareLattice84SYC   = core.SquareLattice84SYC
	Tree84SqrtISwap      = core.Tree84SqrtISwap
	TreeRR84SqrtISwap    = core.TreeRR84SqrtISwap
	Hypercube84SqrtISwap = core.Hypercube84SqrtISwap
	Machines16           = core.Machines16
	Machines84           = core.Machines84
)

// ---- Topologies (Tables 1–2) ----

var (
	SquareLattice    = topology.SquareLattice
	SquareLattice16  = topology.SquareLattice16
	SquareLattice84  = topology.SquareLattice84
	HexLattice20     = topology.HexLattice20
	HexLattice84     = topology.HexLattice84
	HeavyHex20       = topology.HeavyHex20
	HeavyHex84       = topology.HeavyHex84
	LatticeAltDiag84 = topology.LatticeAltDiag84
	Hypercube        = topology.Hypercube
	Hypercube16      = topology.Hypercube16
	Hypercube84      = topology.Hypercube84
	Tree20           = topology.Tree20
	TreeRR20         = topology.TreeRR20
	Tree84           = topology.Tree84
	TreeRR84         = topology.TreeRR84
	Tree             = topology.Tree
	TreeRR           = topology.TreeRR
	MakeTree         = topology.MakeTree
	Corral11         = topology.Corral11
	Corral12         = topology.Corral12
	CorralRing       = topology.CorralRing
)

// ---- Workloads (paper §5) ----

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// Op is a single gate application in the circuit IR.
type Op = circuit.Op

// OpUnitary resolves an op to its 2x2 or 4x4 unitary.
var OpUnitary = circuit.Unitary

var (
	QuantumVolume  = workloads.QuantumVolume
	QFT            = workloads.QFT
	QAOAVanilla    = workloads.QAOAVanilla
	TIMHamiltonian = workloads.TIMHamiltonian
	Adder          = workloads.Adder
	AdderForWidth  = workloads.AdderForWidth
	GHZ            = workloads.GHZ
	WorkloadNames  = workloads.Names
)

// GenerateWorkload builds a named benchmark at the given width.
func GenerateWorkload(name string, n int, rng *rand.Rand) (*Circuit, error) {
	return workloads.Generate(name, n, rng)
}

// ---- Transpilation primitives ----

// Layout maps virtual qubits to physical vertices.
type Layout = transpile.Layout

// EdgeProfile is the per-edge SWAP pressure measured by a pilot routing
// pass; its Weights feed Graph.WeightedDistances to build the cost matrices
// behind profile-guided routing (Options.ProfileGuided, qcbench -profile).
type EdgeProfile = transpile.EdgeProfile

// EdgeWeights assigns positive routing costs to a Graph's edges.
type EdgeWeights = topology.EdgeWeights

var (
	DenseLayout      = transpile.DenseLayout
	TrivialLayout    = transpile.TrivialLayout
	StochasticSwap   = transpile.StochasticSwap
	SabreSwap        = transpile.SabreSwap
	TranslateToBasis = transpile.TranslateToBasis
	TranslateExactCX = transpile.TranslateExactCX
	PulseDuration    = transpile.PulseDuration

	// PulseDurationTable prices a circuit's critical path by a per-gate-type
	// timing table (Machine.GateDurations / DefaultGateTiming) instead of a
	// single basis-global constant.
	PulseDurationTable = transpile.PulseDurationTable

	// Cost-matrix variants of the placement and routing passes: a nil cost
	// reproduces the uniform-hop baseline exactly; a weighted matrix (from
	// EdgeProfile.Weights via Graph.WeightedDistances) steers traffic off
	// congested links.
	DenseLayoutCost      = transpile.DenseLayoutCost
	StochasticSwapCost   = transpile.StochasticSwapCost
	SabreSwapCost        = transpile.SabreSwapCost
	NewEdgeProfile       = transpile.NewEdgeProfile
	ProfileRoutedCircuit = transpile.ProfileRoutedCircuit

	// TranslateHetero is the §7 heterogeneous-basis extension: per-gate
	// choice between the SNAIL's full and half iSWAP pulses.
	TranslateHetero     = transpile.TranslateHetero
	HeteroPulseDuration = transpile.HeteroPulseDuration

	// Peephole merges adjacent 1Q gates and cancels self-inverse 2Q pairs.
	Peephole = transpile.Peephole
)

// ---- Pass pipeline (the Fig. 10 flow as composable stages) ----

// Pass is one named stage of the transpilation pipeline.
type Pass = transpile.Pass

// PassContext is the shared state a Pipeline threads through its passes.
type PassContext = transpile.PassContext

// Pipeline is an ordered sequence of passes; Machine.Pipeline builds the
// stock arrangement (layout → route → [profile-guided] → translate) and
// custom pipelines compose freely from the exported passes.
type Pipeline = transpile.Pipeline

// PassTiming is the measured wall-clock of one executed pass
// (Transpiled.Timings).
type PassTiming = transpile.PassTiming

// RouterFunc is the pluggable routing-algorithm slot of RoutePass and
// ProfileGuidedPass.
type RouterFunc = transpile.RouterFunc

// The stock passes: initial placement, SWAP routing, pressure profiling,
// cost reweighting, the profile-guided fixed-point loop, simulation-backed
// routing verification (Options.Verify), basis translation, and peephole
// clean-up.
type (
	LayoutPass        = transpile.LayoutPass
	RoutePass         = transpile.RoutePass
	ProfilePass       = transpile.ProfilePass
	ReweightPass      = transpile.ReweightPass
	NoiseReweightPass = transpile.NoiseReweightPass
	ProfileGuidedPass = transpile.ProfileGuidedPass
	VerifyPass        = transpile.VerifyPass
	TranslatePass     = transpile.TranslatePass
	PeepholePass      = transpile.PeepholePass
)

var (
	// StochasticRouter and SabreRouter fill the RouterFunc slot with the
	// in-tree routers (StochasticRouter is StochasticSwapCostCtx itself).
	StochasticRouter = transpile.StochasticSwapCostCtx
	SabreRouter      = transpile.SabreRouter
)

// ---- Weyl / KAK ----

// KAKDecomposition is a full Cartan factorization of a 2Q unitary.
type KAKDecomposition = weyl.Decomposition

// CXSynthesis is an exact minimal-CNOT circuit for a 2Q unitary.
type CXSynthesis = weyl.Synthesis

var (
	WeylCoordinates   = weyl.Coordinates
	KAK               = weyl.KAK
	SynthesizeCX      = weyl.SynthesizeCX
	LocallyEquivalent = weyl.LocallyEquivalent
	MakhlinInvariants = weyl.MakhlinInvariants
)

// ---- Simulation and noise ----

// State is a dense statevector.
type State = sim.State

// SimProgram is a compiled, fusion-scheduled circuit: ScheduleCircuit
// once, run it on many states with State.RunProgram (State.Run schedules
// internally; State.RunUnfused is the op-by-op debugging path).
type SimProgram = sim.Program

// ScheduleCircuit builds the gate-fusion schedule of a circuit: maximal 1Q
// runs collapse to single 2×2 sweeps, adjacent diagonals merge into phase
// sweeps, and 1Q runs absorb into neighboring generic 4×4 gates.
var ScheduleCircuit = sim.Schedule

// NoiseModel is a gate-attached Pauli/depolarizing error model covering the
// paper's two §3.1 error regimes (per-gate control error, duration-
// proportional decoherence).
type NoiseModel = noise.Model

// NoiseProfile is the declarative per-architecture noise description the
// spec grammar's e2q=/tdec=/e2q-<a>-<b>= keys parse into; Machine.Noise and
// Options.Noise carry it, and NoiseModelFromProfile turns it into a
// NoiseModel charged with a machine's timing table.
type NoiseProfile = arch.NoiseProfile

// FidelityEstimator predicts circuit fidelity under a NoiseModel: the
// closed-form CountEstimator or the trajectory-sampling
// MonteCarloEstimator (Options.Fidelity picks one inside the evaluation
// pipeline; custom pipelines can call either directly).
type FidelityEstimator = noise.Estimator

// CountEstimator and MonteCarloEstimator are the two stock fidelity
// estimators behind FidelityCount and FidelityMonteCarlo.
type (
	CountEstimator      = noise.CountEstimator
	MonteCarloEstimator = noise.MonteCarloEstimator
)

// FidelityModel selects the evaluation pipeline's fidelity estimator
// (Options.Fidelity); NoiseRouteMode selects error-weighted routing
// (Options.NoiseRoute).
type (
	FidelityModel  = core.FidelityModel
	NoiseRouteMode = core.NoiseRouteMode
)

// The noise-aware evaluation modes: fidelity estimation off / closed-form /
// Monte-Carlo, and noise routing off / purely error-weighted / error
// weights blended into measured SWAP pressure.
const (
	FidelityOff        = core.FidelityOff
	FidelityCount      = core.FidelityCount
	FidelityMonteCarlo = core.FidelityMonteCarlo

	NoiseRouteOff   = core.NoiseRouteOff
	NoiseRoutePure  = core.NoiseRoutePure
	NoiseRouteBlend = core.NoiseRouteBlend
)

// DefaultNoiseShots is the Monte-Carlo trajectory count used when
// Options.NoiseShots is zero.
const DefaultNoiseShots = noise.DefaultShots

var (
	NewState      = sim.NewState
	NewBasisState = sim.NewBasisState
	RunCircuit    = sim.RunCircuit

	MonteCarloFidelity = noise.MonteCarloFidelity
	StandardDurations  = noise.StandardDurations

	// ParseNoise parses a standalone noise-profile string in the spec
	// grammar ("e2q=0.002,tdec=0.001,e2q-0-1=0.05") — the qcbench -noise
	// flag's parser.
	ParseNoise = arch.ParseNoise
	// NoiseModelFromProfile builds the gate-attached NoiseModel a profile
	// describes, charging decoherence with the given timing table
	// (typically Machine.GateDurations()).
	NoiseModelFromProfile = noise.FromProfile
	// ValidateForSim rejects circuits the trajectory simulators cannot
	// run (bad arities, repeated or out-of-range qubits, too wide after
	// compaction) with descriptive errors.
	ValidateForSim = noise.ValidateForSim
)

// ---- OpenQASM 2.0 interop ----

// QASMOptions controls export (ExpandNonStandard synthesizes non-qelib
// gates into exact u3+cx sequences).
type QASMOptions = qasm.Options

var (
	ExportQASM = qasm.Export
	ImportQASM = qasm.Import
)

// ---- Numerical decomposition (Fig. 15 engine) ----

// DecompResult is an optimized n√iSWAP template.
type DecompResult = decomp.Result

// DecompConfig tunes the template optimizer.
type DecompConfig = decomp.Config

var (
	Decompose     = decomp.Decompose
	BestTemplate  = decomp.BestTemplate
	HSFidelity    = decomp.HSFidelity
	BaseFidelity  = decomp.BaseFidelity
	TotalFidelity = decomp.TotalFidelity

	// MinDurationExact finds the shortest-duration exact n√iSWAP template
	// for a unitary — discrete pulse sequences approaching the continuous
	// interaction-cost bound (§6.3 made operational).
	MinDurationExact = decomp.MinDurationExact
)

// ---- SNAIL hardware model ----

// SNAILHardware is a modular machine description (SNAIL scopes over qubits).
type SNAILHardware = snail.Hardware

// SNAILModule is one SNAIL and its attached qubits.
type SNAILModule = snail.Module

var (
	BuildSNAIL     = snail.Build
	TreeHardware   = snail.TreeHardware
	Tree84Hardware = snail.Tree84Hardware
	CorralHardware = snail.CorralHardware
)

// ---- Driven-exchange physics (Fig. 6) ----

// ExchangeModel is the parametric qubit-qubit exchange model.
type ExchangeModel = dynamics.ExchangeModel

// ChevronData is the sampled transfer-probability map.
type ChevronData = dynamics.Chevron

// ChevronMap samples the Fig. 6 chevron pattern.
var ChevronMap = dynamics.ChevronMap

// ---- Experiments (tables, figures, headlines) ----

// Series is one curve of a reproduced figure.
type Series = experiments.Series

// SweepSpec describes a figure's sweep.
type SweepSpec = experiments.SweepSpec

// ExperimentConfig is the unified experiment configuration threaded through
// every harness (SweepSpec, Headlines, CorralScaling, RunFig15Config) and
// both CLIs: core.Options (seed, trials, router, parallelism, cache,
// profile-guided mode and iterations) plus the Quick size switch. It
// replaces the old positional (quick, parallelism, store, profileGuided)
// parameter lists.
type ExperimentConfig = experiments.Config

var (
	// DefaultExperimentConfig is the paper-default configuration (full
	// sizes, seed 2022, mode-derived trial count).
	DefaultExperimentConfig = experiments.DefaultConfig
	// QuickExperimentConfig is DefaultExperimentConfig at test/benchmark
	// sizes.
	QuickExperimentConfig = experiments.QuickConfig
)

// Fig15Result is the pulse-duration sensitivity study output.
type Fig15Result = experiments.Fig15Result

// HeadlineRatios summarizes the paper's §1/§6 comparison claims.
type HeadlineRatios = experiments.Headline

var (
	Table1    = experiments.Table1
	Table2    = experiments.Table2
	Fig4Spec  = experiments.Fig4Spec
	Fig11Spec = experiments.Fig11Spec
	Fig12Spec = experiments.Fig12Spec
	Fig13Spec = experiments.Fig13Spec
	Fig14Spec = experiments.Fig14Spec
	RunFig15  = experiments.RunFig15
	// RunFig15Parallel bounds the decomposition worker pool explicitly
	// (RunFig15 = auto); output is byte-identical at every setting.
	RunFig15Parallel = experiments.RunFig15Parallel
	// RunFig15Config drives the study from an ExperimentConfig (seed +
	// parallelism).
	RunFig15Config = experiments.RunFig15Config
	Headlines      = experiments.Headlines

	// CorralScaling grows the fence-post ring beyond the paper's 8 posts
	// (the §7 scaling question) and measures structure + routed QV cost.
	CorralScaling = experiments.CorralScaling
	SeriesCSV     = experiments.SeriesCSV

	// HeadlinesContext and CorralScalingContext are the cancellable
	// variants: the context (tightened by ExperimentConfig.Deadline)
	// threads into every evaluation's cooperative polls without ever
	// changing what a completed study reports.
	HeadlinesContext     = experiments.HeadlinesContext
	CorralScalingContext = experiments.CorralScalingContext
)

// ---- Robustness (fault isolation, deadlines, degradation, crash-resume) ----

// CellError locates one failed cell of a tolerant sweep (workload,
// machine, size, cause).
type CellError = experiments.CellError

// CellErrors is the aggregate failure of a tolerant sweep
// (ExperimentConfig.Tolerant): one entry per failed cell, returned
// alongside the partial Series, unwrapping to its causes for errors.Is.
type CellErrors = experiments.CellErrors

// CellHook runs immediately before each sweep cell's evaluation
// (SweepSpec.CellHook); returning an error fails that cell. It is the
// seam deterministic fault-injection harnesses plug into.
type CellHook = experiments.CellHook

// SweepJournal is the crash-resume log of a sweep (SweepSpec.Journal):
// every completed cell is appended atomically, and a restarted sweep
// replays recorded cells for byte-identical output while recomputing only
// what is missing.
type SweepJournal = experiments.Journal

// OpenSweepJournal opens (or creates) a sweep journal, tolerating the
// torn final line a crash mid-append leaves behind.
var OpenSweepJournal = experiments.OpenJournal

// CacheFS is the filesystem seam of the cache's disk tier: tests and
// chaos harnesses substitute failing or corrupting implementations for
// the real disk (see internal/faultinject).
type CacheFS = cache.FS

// CacheOption tunes a MetricsCache's disk tier.
type CacheOption = cache.Option

var (
	// WithCacheRetry bounds transient-fault retries per disk operation
	// (with jittered exponential backoff); WithCacheErrorBudget sets how
	// many consecutive disk failures quarantine the tier (the store then
	// degrades to memory-only instead of failing evaluations, and a
	// periodic probe — WithCacheProbeInterval — re-enables a healed
	// disk); WithCacheFS substitutes the disk tier's filesystem.
	WithCacheRetry         = cache.WithRetry
	WithCacheErrorBudget   = cache.WithErrorBudget
	WithCacheProbeInterval = cache.WithProbeInterval
	WithCacheFS            = cache.WithFS
)
