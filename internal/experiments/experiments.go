// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1/2 (topology properties), Fig. 4/11/12 (SWAP-count
// sweeps), Fig. 13/14 (co-designed 2Q-gate and pulse-duration sweeps),
// Fig. 15 (the n√iSWAP fidelity study), the §6 headline ratios, and the
// ablations called out in DESIGN.md. Every experiment is deterministic via
// fixed seeds; `quick` variants shrink sizes for tests and benchmarks.
//
// Every sweep runs on one engine, SweepSpec.Stream, whose cell evaluation
// is a parameter: RunContext evaluates in-process, the qcbenchd daemon
// through its cache and admission slots. Sweeps are deterministic by
// construction: every circuit and every cell derives its RNG seed by
// FNV-hashing its coordinates with the spec ID and base seed, and Assemble
// builds results in fixed nested-loop order, so serial, parallel
// (SweepSpec.Parallelism) and remote runs produce byte-identical Series.
//
// The harnesses are built for long unattended runs: Config.Deadline bounds
// a whole study and core.Options.CellTimeout bounds each cell,
// Config.Tolerant completes a sweep around failing cells (reporting the
// casualties as CellErrors next to the partial Series), SweepSpec.Journal
// makes an interrupted sweep crash-resumable with byte-identical output,
// and SweepSpec.CellHook gives fault-injection harnesses a seam to break
// individual cells deterministically.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// DefaultSeed is the fixed base seed every paper experiment uses.
const DefaultSeed = 2022

// Config is the unified experiment configuration shared by every harness in
// this package (SweepSpec, HeadlinesContext, CorralScalingContext,
// RunFig15ConfigContext) and threaded through the qcbench/fidsweep CLIs. It
// embeds core.Options (the knobs that change results are its Identity) and
// adds the experiment-level switches below, so a new evaluation knob lands
// in exactly one struct instead of another positional parameter at every
// call site.
type Config struct {
	core.Options

	// Quick shrinks sweep sizes and trial counts to the test/benchmark
	// configuration; false runs the paper's full sizes.
	Quick bool

	// Deadline, when positive, bounds the whole run's wall-clock: the
	// harness derives a timeout context and every cell inherits it.
	// Complementary to core.Options.CellTimeout, which bounds each cell
	// individually. Like CellTimeout, it changes only whether a run
	// completes, never the numbers a completed run reports.
	Deadline time.Duration

	// Tolerant makes sweeps fault-isolating instead of fail-fast: every
	// cell runs regardless of other cells' failures (panics included —
	// the worker pool recovers them into *par.PanicError), failed cells
	// are dropped from the returned Series, and the casualties are
	// reported as a CellErrors aggregate alongside the partial results.
	Tolerant bool
}

// DefaultConfig returns the experiment-default configuration: the paper's
// fixed seed, full sizes, and a mode-derived trial count (Trials = 0 means
// "use the quick/full default", letting Evaluate's key normalization and
// the historical per-harness trial choices keep their exact behavior).
func DefaultConfig() Config {
	return Config{Options: core.Options{Seed: DefaultSeed}}
}

// QuickConfig is DefaultConfig with Quick set.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Quick = true
	return cfg
}

// effectiveTrials resolves the router trial count: an explicit Trials wins,
// otherwise the historical quick/full defaults (5/20).
func (c Config) effectiveTrials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return trials(c.Quick)
}

// SweepKind selects which pair of metrics a sweep reports.
type SweepKind int

const (
	// SwapCounts reports (total SWAPs, critical-path SWAPs) — the
	// gate-agnostic topology comparison of Figs. 4, 11, 12.
	SwapCounts SweepKind = iota
	// Codesign reports (total 2Q gates, pulse duration) after basis
	// translation — the co-design comparison of Figs. 13, 14.
	Codesign
)

// KindNames spells the sweep kinds for the daemon wire ("" is SwapCounts).
var KindNames = core.Names[SweepKind]{"swaps", "codesign"}

func (k SweepKind) String() string { return KindNames.String(k) }

// Point is one (circuit size → metrics) sample. Fidelity is the cell's
// estimated output-state fidelity (core.Metrics.EstFidelity); it is zero —
// and omitted from every rendering — unless the sweep's Config enables a
// fidelity model, so noise-off output stays byte-identical to historical
// runs.
type Point struct {
	Size     int
	Total    float64
	Critical float64
	Fidelity float64
}

// Series is one curve of a figure: a machine/topology on a workload.
type Series struct {
	Label    string
	Workload string
	Points   []Point
}

// SweepSpec describes one figure's sweep. The embedded Config supplies the
// evaluation knobs, promoted (spec.Seed, spec.Trials, spec.Parallelism,
// spec.Cache, ...). Parallelism bounds the sweep's worker pool (0 =
// auto/GOMAXPROCS, 1 = serial) with identical output at every setting (see
// the package comment); Cache memoizes cells under core.Machine.EvaluateKey,
// so overlapping sweeps (Fig. 4/11/12 share workloads and machines) skip
// identical routing, and guided, noisy and baseline cells can share one
// store (or -cachedir) without contamination.
type SweepSpec struct {
	ID        string
	Kind      SweepKind
	Machines  []core.Machine
	Workloads []string
	Sizes     []int

	// Journal, when non-nil, records every completed cell and replays
	// already-recorded cells without recomputing them (and without
	// re-running CellHook), making an interrupted sweep crash-resumable:
	// see Journal. Replayed output is byte-identical to an uninterrupted
	// run because cells are addressed by the same content hash the
	// Evaluate cache uses.
	Journal *Journal

	// CellHook, when non-nil, runs immediately before each cell's
	// evaluation, under the cell's context (bounded by CellTimeout when
	// one is set); a non-nil return fails the cell as if its evaluation
	// had failed, and a panic fails only that cell (a *par.PanicError).
	// It is the seam the fault-injection harness plugs into
	// (see internal/faultinject) and must never mutate sweep state.
	CellHook CellHook

	Config
}

// CellHook observes one sweep cell immediately before it is evaluated and
// may veto it by returning an error. The signature is structurally shared
// with internal/faultinject.CellHook so injectors plug in without this
// package importing the harness (or vice versa).
type CellHook func(ctx context.Context, workload string, size int, machine string) error

// CellError records the failure of one sweep cell in a tolerant run,
// carrying the cell's coordinates so a partial sweep's casualties are
// attributable without parsing error strings.
type CellError struct {
	Workload string
	Machine  string
	Size     int
	Err      error
}

// Error implements error.
func (e CellError) Error() string {
	return fmt.Sprintf("%s/%s(%d): %v", e.Machine, e.Workload, e.Size, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e CellError) Unwrap() error { return e.Err }

// CellErrors is the aggregate failure of a tolerant sweep: one entry per
// failed cell, in the sweep's fixed cell order. It is returned alongside
// the partial Series, and unwraps to its elements so
// errors.Is(err, context.DeadlineExceeded) answers "did any cell time
// out?" directly.
type CellErrors []CellError

// Error implements error with a count-first summary (individual cells are
// available on the slice).
func (e CellErrors) Error() string {
	if len(e) == 1 {
		return fmt.Sprintf("experiments: 1 cell failed: %s", e[0])
	}
	return fmt.Sprintf("experiments: %d cells failed (first: %s)", len(e), e[0])
}

// Unwrap exposes every cell failure to errors.Is/As traversal.
func (e CellErrors) Unwrap() []error {
	out := make([]error, len(e))
	for i := range e {
		out[i] = e[i]
	}
	return out
}

// BenchmarkCircuit builds the benchmark circuit deterministically per
// (workload, size), independent of machine, so every machine routes the
// exact same logical circuit. Exported because it is half of the sweep
// determinism contract: any process that reproduces a sweep cell —
// including the qcbenchd evaluation service — must generate the identical
// circuit from the identical coordinates.
func BenchmarkCircuit(name string, size int, baseSeed int64) (*circuit.Circuit, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, size, baseSeed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return workloads.Generate(name, size, rng)
}

// TaskSeed derives the routing seed of one (workload, size, machine) cell
// from the sweep coordinates via FNV, mirroring BenchmarkCircuit: the
// seed is a pure function of what is being evaluated, never of execution
// order. It is the other half of the determinism contract (see
// BenchmarkCircuit) — a remote evaluation service seeding cells with
// TaskSeed produces metrics byte-identical to a local sweep's.
func TaskSeed(id, workload string, size int, machine string, baseSeed int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%s/%d", id, workload, size, machine, baseSeed)
	return int64(h.Sum64())
}

// taskSeed applies TaskSeed to this sweep's ID and base seed.
func (s SweepSpec) taskSeed(workload string, size int, machine string) int64 {
	return TaskSeed(s.ID, workload, size, machine, s.Seed)
}

// PointFromMetrics projects one cell's metrics onto the pair of values a
// sweep Kind reports, as Assemble does.
func PointFromMetrics(kind SweepKind, size int, met core.Metrics) Point {
	p := Point{Size: size, Fidelity: met.EstFidelity}
	switch kind {
	case SwapCounts:
		p.Total = float64(met.TotalSwaps)
		p.Critical = float64(met.CriticalSwaps)
	case Codesign:
		p.Total = float64(met.Total2Q)
		p.Critical = met.PulseDuration
	}
	return p
}

// SweepCell locates one evaluation of a sweep: indices into the spec's
// Workloads and Machines, the circuit size, the cell's position in the
// sweep's fixed enumeration order, and which output Series it lands in.
type SweepCell struct {
	Index    int // position in the fixed (workload, machine, size) order
	Workload int // index into SweepSpec.Workloads
	Machine  int // index into SweepSpec.Machines
	Series   int // index into the RunContext result slice
	Size     int
}

// Cells enumerates the sweep's evaluations in the fixed nested-loop order
// — workload outermost, then machine, then size, skipping sizes that
// exceed a machine's qubit count. This order is part of the determinism
// contract: Stream emits cells in it, Assemble builds Series by it, and
// the daemon's /sweep endpoint streams cells indexed by it, so both sides
// agree on which cell is which without shipping coordinates out of band.
func (s SweepSpec) Cells() []SweepCell {
	var cells []SweepCell
	series := 0
	for wi := range s.Workloads {
		for mi := range s.Machines {
			for _, size := range s.Sizes {
				if size > s.Machines[mi].Graph.N() {
					continue
				}
				cells = append(cells, SweepCell{
					Index:    len(cells),
					Workload: wi,
					Machine:  mi,
					Series:   series,
					Size:     size,
				})
			}
			series++
		}
	}
	return cells
}

// NumSeries reports how many Series RunContext returns: one per
// (workload, machine) pair, whether or not any cell fits the machine.
func (s SweepSpec) NumSeries() int { return len(s.Workloads) * len(s.Machines) }

// CellOptions resolves the evaluation options of one cell: the spec's
// Options with the cell's FNV-derived seed and the mode-resolved trial
// count. Every evaluator of a sweep cell — the local engine and the
// remote daemon — must build its options exactly this way for cache keys
// and metrics to agree.
func (s SweepSpec) CellOptions(c SweepCell) core.Options {
	opt := s.Options
	opt.Seed = s.taskSeed(s.Workloads[c.Workload], c.Size, s.Machines[c.Machine].Name)
	opt.Trials = s.effectiveTrials()
	return opt
}

// CellJob is one cell as Stream hands it to a CellEval: its coordinates,
// machine, shared (workload, size) circuit and CellOptions, whose
// CellTimeout Stream has already applied to the context.
type CellJob struct {
	Workload string
	Size     int
	Machine  core.Machine
	Circuit  *circuit.Circuit
	Options  core.Options

	key   cache.Key
	keyed bool
}

// Key returns the job's core.Machine.EvaluateKey, hashed once, so a
// journal lookup and a store fill share one hash.
func (j *CellJob) Key() cache.Key {
	if !j.keyed {
		j.key, j.keyed = j.Machine.EvaluateKey(j.Circuit, j.Options), true
	}
	return j.key
}

// CellEval evaluates one sweep cell for Stream.
type CellEval func(ctx context.Context, job *CellJob) (core.Metrics, error)

// evaluate is RunContext's CellEval: core.Machine.EvaluateContext,
// through the spec's Cache when one is set.
func evaluate(ctx context.Context, job *CellJob) (core.Metrics, error) {
	return job.Machine.EvaluateContext(ctx, job.Circuit, job.Options)
}

// CellOutcome is one cell's result as Stream emits it: the metrics, or
// the error that failed the cell, and whether the journal replayed it.
type CellOutcome struct {
	SweepCell
	Metrics  core.Metrics
	Err      error
	Replayed bool
}

// Stream is the sweep engine: it generates each (workload, size) circuit
// once, runs the cells with eval on the Parallelism pool in Cells() order,
// and hands each outcome to emit, on the calling goroutine, in that order.
// A cell the Journal holds replays without CellHook or eval; any other
// runs CellHook then eval under its CellTimeout and is journaled (a
// Record error fails it). A panic fails its cell as a *par.PanicError.
//
// Cell failures are outcomes, never Stream's error. A tolerant spec
// emits every cell; once ctx is done no cell starts, and the unstarted
// ones carry ctx's error. Otherwise a failure stops dispatch and is the
// last outcome emitted, and a done ctx ends the stream with its error.
// An emit error stops dispatch and is returned. Stream returns only once
// every cell it started has finished; Deadline bounds the whole call.
func (s SweepSpec) Stream(ctx context.Context, eval CellEval, emit func(CellOutcome) error) error {
	if s.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Deadline)
		defer cancel()
	}
	circs := make([]*circuit.Circuit, len(s.Workloads)*len(s.Sizes))
	err := par.ForEachCtx(ctx, len(circs), s.Parallelism, func(i int) error {
		w, size := s.Workloads[i/len(s.Sizes)], s.Sizes[i%len(s.Sizes)]
		c, err := BenchmarkCircuit(w, size, s.Seed)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s(%d): %w", s.ID, w, size, err)
		}
		circs[i] = c
		return nil
	})
	if err != nil {
		return err
	}
	cells := s.Cells()
	outs := make([]CellOutcome, len(cells))
	ran := make([]bool, len(cells))
	ready := make([]chan struct{}, len(cells))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	// The pool dispatches under its own context, so stopping it never
	// cancels a started cell; the cells it never ran come back carrying
	// ctx's error.
	dispatch, stop := context.WithCancel(ctx)
	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		// The outcomes carry every error.
		_ = par.ForEachCtx(dispatch, len(cells), s.Parallelism, func(i int) error {
			c := cells[i]
			circ := circs[c.Workload*len(s.Sizes)+slices.Index(s.Sizes, c.Size)]
			outs[i], ran[i] = s.runCell(ctx, eval, c, circ), true
			close(ready[i])
			if s.Tolerant {
				return nil
			}
			return outs[i].Err
		})
		for i := range cells {
			if !ran[i] {
				outs[i] = CellOutcome{SweepCell: cells[i], Err: ctx.Err()}
				close(ready[i])
			}
		}
	}()
	defer func() {
		stop()
		<-poolDone
	}()
	for i := range cells {
		<-ready[i]
		o := outs[i]
		if !ran[i] && !s.Tolerant {
			return o.Err
		}
		if err := emit(o); err != nil {
			return err
		}
		if o.Err != nil && !s.Tolerant {
			return nil
		}
	}
	return nil
}

// runCell runs one dispatched cell: a journal replay, or CellHook and
// eval under the cell timeout followed by a journal record.
func (s SweepSpec) runCell(ctx context.Context, eval CellEval, c SweepCell, circ *circuit.Circuit) CellOutcome {
	o := CellOutcome{SweepCell: c}
	job := &CellJob{
		Workload: s.Workloads[c.Workload],
		Size:     c.Size,
		Machine:  s.Machines[c.Machine],
		Circuit:  circ,
		Options:  s.CellOptions(c),
	}
	o.Err = par.Call(func(int) error {
		// Resume: a journaled cell replays its recorded metrics verbatim —
		// no evaluation, no CellHook — so a restarted sweep neither redoes
		// nor re-breaks work it already finished.
		if s.Journal != nil {
			if met, ok := s.Journal.Lookup(job.Key()); ok {
				o.Metrics, o.Replayed = met, true
				return nil
			}
		}
		if timeout := job.Options.CellTimeout; timeout > 0 {
			// The per-cell budget covers the hook too, and is applied here
			// once rather than again inside the evaluation.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
			job.Options.CellTimeout = 0
		}
		if s.CellHook != nil {
			if err := s.CellHook(ctx, job.Workload, job.Size, job.Machine.Name); err != nil {
				return err
			}
		}
		met, err := eval(ctx, job)
		if err != nil {
			return err
		}
		if s.Journal != nil {
			if err := s.Journal.Record(job.Key(), met); err != nil {
				return err
			}
		}
		o.Metrics = met
		return nil
	}, c.Index)
	return o
}

// RunContext executes the sweep in-process, returning one Series per
// (workload, machine): Stream with evaluate, assembled by Assemble.
func (s SweepSpec) RunContext(ctx context.Context) ([]Series, error) {
	var outcomes []CellOutcome
	err := s.Stream(ctx, evaluate, func(o CellOutcome) error {
		outcomes = append(outcomes, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.Assemble(outcomes)
}

// Assemble builds a sweep's result from its outcomes in Cells() order,
// for RunContext and for a remote client alike: one Series per (workload,
// machine). A tolerant spec leaves a failed cell's hole (never a shifted
// or zero-filled point) and reports the failures as CellErrors beside the
// partial Series. Otherwise the first failed outcome is the error, as
// "experiments: id/machine/workload(size): err", so serial, parallel and
// remote runs name the same cell.
func (s SweepSpec) Assemble(outcomes []CellOutcome) ([]Series, error) {
	out := make([]Series, s.NumSeries())
	for wi, w := range s.Workloads {
		for mi, m := range s.Machines {
			out[wi*len(s.Machines)+mi] = Series{Label: m.Name, Workload: w}
		}
	}
	var cellErrs CellErrors
	for _, o := range outcomes {
		w, m := s.Workloads[o.Workload], s.Machines[o.Machine].Name
		switch {
		case o.Err == nil:
			out[o.Series].Points = append(out[o.Series].Points, PointFromMetrics(s.Kind, o.Size, o.Metrics))
		case s.Tolerant:
			cellErrs = append(cellErrs, CellError{Workload: w, Machine: m, Size: o.Size, Err: o.Err})
		default:
			return nil, fmt.Errorf("experiments: %s/%s/%s(%d): %w", s.ID, m, w, o.Size, o.Err)
		}
	}
	if len(cellErrs) > 0 {
		return out, cellErrs
	}
	return out, nil
}

// CheckSimulable refuses, before anything is routed, a Monte-Carlo size
// whose logical width alone exceeds the sim.MaxQubits the estimator can
// simulate: every cell of that size would route and then fail. A routed
// circuit that spreads a narrower workload over more physical qubits than
// that is still a cell failure, since only routing can tell. qcbench -fig
// (local or -server) and qcbenchd's /evaluate and /sweep refuse with this
// one check, so they refuse alike.
func CheckSimulable(opt core.Options, sizes ...int) error {
	if opt.Fidelity != core.FidelityMonteCarlo {
		return nil
	}
	for _, size := range sizes {
		if size > sim.MaxQubits {
			return fmt.Errorf("size %d exceeds the %d qubits noise_model montecarlo can simulate", size, sim.MaxQubits)
		}
	}
	return nil
}

// sizes16 and sizes84 are the x-axes for small and scaled machines.
func sizes16(quick bool) []int {
	if quick {
		return []int{6, 10, 16}
	}
	return []int{4, 6, 8, 10, 12, 14, 16}
}

func sizes84(quick bool) []int {
	if quick {
		return []int{16, 32}
	}
	return []int{16, 32, 48, 64, 80}
}

func trials(quick bool) int {
	if quick {
		return 5
	}
	return 20
}

// sweepConfig is the Config every figure spec starts from: the fixed paper
// seed and the mode's explicit trial count (spelled out, not left to
// effectiveTrials, so sweep cache keys stay bit-identical to earlier
// builds' explicit Trials values).
func sweepConfig(quick bool) Config {
	return Config{
		Options: core.Options{Seed: DefaultSeed, Trials: trials(quick)},
		Quick:   quick,
	}
}

// machinesTopoOnly wraps bare topologies with the CX basis: SWAP counting
// is basis-independent (the paper: "independent of choice of basis gate").
func machinesTopoOnly(graphs ...*topology.Graph) []core.Machine {
	out := make([]core.Machine, len(graphs))
	for i, g := range graphs {
		out[i] = core.NewMachine(g.Name, g, weyl.BasisCX)
	}
	return out
}

// Fig4Spec is the 84-qubit topology SWAP sweep over the standard lattices
// plus the hypercube (paper Fig. 4).
func Fig4Spec(quick bool) SweepSpec {
	return SweepSpec{
		ID:   "fig4",
		Kind: SwapCounts,
		Machines: machinesTopoOnly(
			topology.HeavyHex84(),
			topology.HexLattice84(),
			topology.SquareLattice84(),
			topology.LatticeAltDiag84(),
			topology.Hypercube84(),
		),
		Workloads: workloads.Names(),
		Sizes:     sizes84(quick),
		Config:    sweepConfig(quick),
	}
}

// Fig11Spec is the 16-qubit SNAIL-topology SWAP sweep (paper Fig. 11).
func Fig11Spec(quick bool) SweepSpec {
	return SweepSpec{
		ID:   "fig11",
		Kind: SwapCounts,
		Machines: machinesTopoOnly(
			topology.SquareLattice16(),
			topology.Hypercube16(),
			topology.Tree20(),
			topology.TreeRR20(),
			topology.Corral11(),
			topology.Corral12(),
		),
		Workloads: workloads.Names(),
		Sizes:     sizes16(quick),
		Config:    sweepConfig(quick),
	}
}

// Fig12Spec is the 84-qubit sweep including the SNAIL trees (paper Fig. 12).
func Fig12Spec(quick bool) SweepSpec {
	return SweepSpec{
		ID:   "fig12",
		Kind: SwapCounts,
		Machines: machinesTopoOnly(
			topology.HeavyHex84(),
			topology.SquareLattice84(),
			topology.Tree84(),
			topology.TreeRR84(),
			topology.Hypercube84(),
		),
		Workloads: workloads.Names(),
		Sizes:     sizes84(quick),
		Config:    sweepConfig(quick),
	}
}

// Fig13Spec is the 16-20 qubit co-design sweep (paper Fig. 13): each
// topology paired with its modulator's native basis.
func Fig13Spec(quick bool) SweepSpec {
	return SweepSpec{
		ID:        "fig13",
		Kind:      Codesign,
		Machines:  core.Machines16(),
		Workloads: workloads.Names(),
		Sizes:     sizes16(quick),
		Config:    sweepConfig(quick),
	}
}

// Fig14Spec is the 84-qubit co-design sweep (paper Fig. 14).
func Fig14Spec(quick bool) SweepSpec {
	return SweepSpec{
		ID:        "fig14",
		Kind:      Codesign,
		Machines:  core.Machines84(),
		Workloads: workloads.Names(),
		Sizes:     sizes84(quick),
		Config:    sweepConfig(quick),
	}
}

// Table1 returns the measured topology properties of the paper's Table 1.
func Table1() []topology.Stats {
	gs := []*topology.Graph{
		topology.HeavyHex20(),
		topology.HexLattice20(),
		topology.SquareLattice16(),
		topology.Tree20(),
		topology.TreeRR20(),
		topology.Corral11(),
		topology.Corral12(),
		topology.Hypercube16(),
	}
	out := make([]topology.Stats, len(gs))
	for i, g := range gs {
		out[i] = g.Stats()
	}
	return out
}

// Table2 returns the measured topology properties of the paper's Table 2.
func Table2() []topology.Stats {
	gs := []*topology.Graph{
		topology.HeavyHex84(),
		topology.HexLattice84(),
		topology.SquareLattice84(),
		topology.LatticeAltDiag84(),
		topology.Tree84(),
		topology.TreeRR84(),
		topology.Hypercube84(),
	}
	out := make([]topology.Stats, len(gs))
	for i, g := range gs {
		out[i] = g.Stats()
	}
	return out
}

// Headline holds the §1/§6 summary ratios comparing Heavy-Hex+CNOT against
// Hypercube+√iSWAP averaged over QuantumVolume sizes.
type Headline struct {
	Sizes []int
	// S2 (§6.1): total and critical-path SWAP ratios (topology only).
	SwapRatio         float64
	CriticalSwapRatio float64
	// S1 (§1/§6.2): total 2Q and pulse-duration ratios (co-design).
	Total2QRatio  float64
	DurationRatio float64
}

// HeadlinesContext computes the headline ratios on QuantumVolume circuits
// under the unified Config: cfg.Parallelism bounds the pool that evaluates
// the study's (size, machine) cells (0 = auto, 1 = serial; the ratios are
// identical at every setting), cfg.Cache, when non-nil, serves repeated
// invocations from the content-addressed Evaluate cache — a second
// HeadlinesContext call sharing a store performs zero additional routing —
// and cfg.ProfileGuided routes both machines with the pressure-weighted
// pipeline (cache-keyed separately from baseline runs, iterated
// cfg.ProfileIterations times). ctx (tightened by cfg.Deadline when set)
// threads into every evaluation's cooperative polls, and cfg.CellTimeout
// bounds each of the study's evaluations individually. Neither changes the
// ratios a completed study reports.
func HeadlinesContext(ctx context.Context, cfg Config) (Headline, error) {
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	sizes := sizes84(cfg.Quick)
	machines := []core.Machine{core.HeavyHex84CX(), core.Hypercube84SqrtISwap()}
	opt := cfg.Options
	opt.Trials = cfg.effectiveTrials()
	circs := make([]*circuit.Circuit, len(sizes))
	for i, size := range sizes {
		c, err := BenchmarkCircuit("QuantumVolume", size, cfg.Seed)
		if err != nil {
			return Headline{}, err
		}
		circs[i] = c
	}
	// Cell i is size i/2 on machine i%2; the ratios are reduced below in
	// index order, so the sums round exactly as a serial loop's would.
	mets := make([]core.Metrics, 2*len(sizes))
	err := par.ForEachCtx(ctx, len(mets), cfg.Parallelism, func(i int) error {
		var err error
		mets[i], err = machines[i%2].EvaluateContext(ctx, circs[i/2], opt)
		return err
	})
	if err != nil {
		return Headline{}, err
	}
	var sw, cs, tq, du float64
	for i := 0; i < len(mets); i += 2 {
		a, b := mets[i], mets[i+1]
		sw += float64(a.TotalSwaps) / float64(b.TotalSwaps)
		cs += float64(a.CriticalSwaps) / float64(b.CriticalSwaps)
		tq += float64(a.Total2Q) / float64(b.Total2Q)
		du += a.PulseDuration / b.PulseDuration
	}
	n := float64(len(sizes))
	return Headline{
		Sizes:             sizes,
		SwapRatio:         sw / n,
		CriticalSwapRatio: cs / n,
		Total2QRatio:      tq / n,
		DurationRatio:     du / n,
	}, nil
}

// FormatSeries renders sweep results as an aligned text table, one block
// per workload, one row per machine, matching the paper's figure layout.
// Workload groups where some point carries a fidelity estimate gain an
// extra [estFidelity] block; noise-off sweeps render byte-identically to
// historical output (pinned by the fig11 golden).
func FormatSeries(series []Series, kind SweepKind) string {
	totalName, critName := "totalSwaps", "critSwaps"
	if kind == Codesign {
		totalName, critName = "total2Q", "pulseDur"
	}
	byWorkload := map[string][]Series{}
	var order []string
	for _, s := range series {
		if _, ok := byWorkload[s.Workload]; !ok {
			order = append(order, s.Workload)
		}
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	var sb strings.Builder
	for _, w := range order {
		fmt.Fprintf(&sb, "== %s ==\n", w)
		group := byWorkload[w]
		// Collect sizes across the group.
		sizeSet := map[int]bool{}
		for _, s := range group {
			for _, p := range s.Points {
				sizeSet[p.Size] = true
			}
		}
		var sizes []int
		for sz := range sizeSet {
			sizes = append(sizes, sz)
		}
		sort.Ints(sizes)
		metrics := []string{totalName, critName}
		if seriesHaveFidelity(group) {
			metrics = append(metrics, "estFidelity")
		}
		for _, metric := range metrics {
			fmt.Fprintf(&sb, "  [%s]\n", metric)
			fmt.Fprintf(&sb, "  %-24s", "machine\\n")
			for _, sz := range sizes {
				fmt.Fprintf(&sb, "%10d", sz)
			}
			sb.WriteString("\n")
			for _, s := range group {
				fmt.Fprintf(&sb, "  %-24s", s.Label)
				vals := map[int]float64{}
				format := "%10.1f"
				if metric == "estFidelity" {
					format = "%10.4f"
				}
				for _, p := range s.Points {
					switch metric {
					case totalName:
						vals[p.Size] = p.Total
					case "estFidelity":
						vals[p.Size] = p.Fidelity
					default:
						vals[p.Size] = p.Critical
					}
				}
				for _, sz := range sizes {
					if v, ok := vals[sz]; ok {
						fmt.Fprintf(&sb, format, v)
					} else {
						fmt.Fprintf(&sb, "%10s", "-")
					}
				}
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}

// seriesHaveFidelity reports whether any point in the group carries a
// fidelity estimate (EstFidelity is never exactly zero for a circuit that
// evaluated under a fidelity model, and exactly zero when the model is
// off).
func seriesHaveFidelity(group []Series) bool {
	for _, s := range group {
		for _, p := range s.Points {
			if p.Fidelity != 0 {
				return true
			}
		}
	}
	return false
}

// FormatStats renders Table 1/2 rows.
func FormatStats(rows []topology.Stats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %7s %6s %7s %7s\n", "Topology", "Qubits", "Dia", "AvgD", "AvgC")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %7d %6d %7.2f %7.2f\n", r.Name, r.Qubits, r.Diameter, r.AvgDist, r.AvgConn)
	}
	return sb.String()
}
