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
//	metrics, err := machine.EvaluateContext(ctx, c, repro.DefaultOptions())
//
// The package re-exports only what the examples/ programs and the cmd/
// tools use; the full API lives in the internal packages. See the
// examples/ directory and the cmd/ tools (topostat, qcbench, fidsweep,
// chevron) for complete programs.
package repro

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/linalg"
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
)

// DefaultOptions returns the experiment-default pipeline options.
func DefaultOptions() Options { return core.DefaultOptions() }

// MachineFromSpec parses a declarative architecture spec
// ("corral:posts=11,basis=sqrtiswap") and realizes it as a Machine.
var MachineFromSpec = core.FromSpec

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
)

// ---- Topologies (Tables 1–2) ----

var (
	Corral11 = topology.Corral11
	Corral12 = topology.Corral12
)

// ---- Workloads (paper §5) ----

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// Op is a single gate application in the circuit IR.
type Op = circuit.Op

// OpUnitary resolves an op to its 2x2 or 4x4 unitary.
var OpUnitary = circuit.Unitary

var (
	QuantumVolume = workloads.QuantumVolume
	QAOAVanilla   = workloads.QAOAVanilla
	Adder         = workloads.Adder
	GHZ           = workloads.GHZ
	WorkloadNames = workloads.Names
)

// GenerateWorkload builds a named benchmark at the given width.
func GenerateWorkload(name string, n int, rng *rand.Rand) (*Circuit, error) {
	return workloads.Generate(name, n, rng)
}

// ---- Transpilation primitives ----

// Layout maps virtual qubits to physical vertices.
type Layout = transpile.Layout

var (
	DenseLayout = transpile.DenseLayout
	// StochasticSwap is the paper's router (transpile.StochasticSwapCostCtx):
	// pass context.Background() and a nil cost for uniform hop distances.
	StochasticSwap   = transpile.StochasticSwapCostCtx
	TranslateExactCX = transpile.TranslateExactCX
)

// ---- Weyl / KAK ----

// CXSynthesis is an exact minimal-CNOT circuit for a 2Q unitary.
type CXSynthesis = weyl.Synthesis

var (
	WeylCoordinates = weyl.Coordinates
	SynthesizeCX    = weyl.SynthesizeCX
)

// ---- Simulation ----

// State is a dense statevector.
type State = sim.State

var (
	NewState      = sim.NewState
	NewBasisState = sim.NewBasisState
	// RunCircuit simulates a circuit from |0...0⟩ (sim.RunCircuitCtx).
	RunCircuit = sim.RunCircuitCtx
)

// ---- Numerical decomposition (Fig. 15 engine) ----

// DecompResult is an optimized n√iSWAP template.
type DecompResult = decomp.Result

// DecompConfig tunes the template optimizer.
type DecompConfig = decomp.Config

var (
	Decompose    = decomp.Decompose
	BestTemplate = decomp.BestTemplate
)

// ---- SNAIL hardware model ----

// SNAILHardware is a modular machine description (SNAIL scopes over qubits).
type SNAILHardware = snail.Hardware

// TreeHardware is the 20-qubit SNAIL Tree's module description.
var TreeHardware = snail.TreeHardware
