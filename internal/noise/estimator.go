package noise

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Estimate is one fidelity prediction, decomposed: Fidelity is the
// selected estimator's number, and Control/Decoherence are the closed-form
// count-model factors (CountComponents) reported alongside it so the
// dominant error regime is visible even when Fidelity came from trajectory
// sampling. For CountEstimator, Fidelity == Control·Decoherence exactly.
type Estimate struct {
	Fidelity    float64
	Control     float64
	Decoherence float64
}

// Estimator predicts the fidelity of running a circuit under a model. The
// two implementations trade accuracy for cost: CountEstimator is O(ops)
// arithmetic, MonteCarloEstimator simulates error trajectories through the
// actual circuit, capturing the error spreading and cancellation the count
// model ignores. Estimators must be deterministic: the same (circuit,
// model, estimator configuration) always yields the same Estimate.
type Estimator interface {
	Name() string
	Estimate(ctx context.Context, c *circuit.Circuit, m Model) (Estimate, error)
}

// CountEstimator is the closed-form count model (CountModelFidelity) as an
// Estimator: gate counts and duration-weighted qubit time, no simulation,
// no width limit.
type CountEstimator struct{}

// Name implements Estimator.
func (CountEstimator) Name() string { return "count" }

// Estimate implements Estimator.
func (CountEstimator) Estimate(_ context.Context, c *circuit.Circuit, m Model) (Estimate, error) {
	control, decoherence := m.CountComponents(c)
	return Estimate{Fidelity: control * decoherence, Control: control, Decoherence: decoherence}, nil
}

// DefaultShots is the trajectory count MonteCarloEstimator uses when Shots
// is unset: enough for the sampling error to sit well under the
// architecture gaps the sweeps compare (σ ≤ 1/(2·√256) ≈ 3%), small
// enough that a noisy sweep cell stays interactive.
const DefaultShots = 256

// MonteCarloEstimator estimates fidelity by Pauli-twirl trajectory
// sampling. It schedules the circuit once into a fused, layer-batched
// sim.Program and samples every trajectory's error events before
// simulating anything, each event placed after the fused step that
// executes its op (sim.StepForOp). One ideal state then walks the program
// step by step, and each errored trajectory rides along as a fork: copied
// from the ideal state at its first error step, advanced in lockstep with
// it, and compared with it at its last error step. The circuit after the
// last error is the same unitary on both states, so that overlap is the
// end-of-circuit fidelity |⟨ideal|noisy⟩|² exactly. A trajectory whose
// errors all land on one step needs no fork at all: its fidelity is the
// ideal state's expectation of the errors' Pauli product, one pass over
// the amplitudes. An error-free trajectory (probability Π(1−p) over all
// channels) costs only its random draws, and the ideal state stops at the
// last step any trajectory needs.
//
// A fork holds a whole state vector, so the forks live at once are capped
// by a fixed memory budget (32 MiB; one fork from 21 qubits up): a run
// needing more goes through its trajectories in batches, each walking the
// ideal state again.
//
// Each trajectory draws from its own RNG, derived from Seed by
// double-scrambled splitmix64 (see the derivation comment in Estimate),
// and the per-trajectory fidelities are summed in index order. Sampling
// and simulation are both serial: an estimate is one evaluation cell's
// work, and cells are what run in parallel.
type MonteCarloEstimator struct {
	Shots int   // trajectories (0 → DefaultShots)
	Seed  int64 // base seed; trajectory t draws from splitmix64(Seed, t)

	// Parallelism is ignored: sampling is serial. The field stays so that
	// callers outside this module that set it keep compiling.
	Parallelism int
}

// MonteCarloVersion names the trajectory algorithm behind the Monte-Carlo
// estimates. core.Machine.EvaluateKey hashes it into Monte-Carlo cache
// keys: bump it whenever a change moves an estimate for the same inputs,
// even in the last bits, so a persistent cache never serves an older
// algorithm's fidelities as fresh ones. v2: the simulator's layer pass no
// longer fuses a cross-tile 2×2 with a tile-local one, which moves the
// last bits of some estimates from 14 qubits up.
const MonteCarloVersion = "lockstep/v2"

// errorSitePins pins where the compiled schedule puts error events on two
// fixed routed circuits, keyed by width: the routed circuit's fingerprint
// and an FNV-1a hash of its Program's Steps() and StepForOp over every op
// (TestErrorSitesPinned). Estimates follow these sites, so a scheduler
// change that moves them must bump MonteCarloVersion and re-pin here. A
// router change moves the fixtures themselves; then both columns are
// re-pinned together, after checking that the previous build's scheduler
// gives the new fixtures the same sites hash.
var errorSitePins = map[int]struct{ Circuit, Sites uint64 }{
	13: {0x85c4d086dfbe6c36, 0xe373b084a966efad},
	14: {0x1ea50328a629beaf, 0x5bd866743c03234b},
}

// Name implements Estimator.
func (MonteCarloEstimator) Name() string { return "montecarlo" }

// Estimate implements Estimator.
func (e MonteCarloEstimator) Estimate(ctx context.Context, c *circuit.Circuit, m Model) (Estimate, error) {
	shots := e.Shots
	if shots <= 0 {
		shots = DefaultShots
	}
	p, err := m.planTrajectories(c)
	if err != nil {
		return Estimate{}, err
	}
	events := make([][]pauliEvent, shots)
	for t := range events {
		if err := ctx.Err(); err != nil {
			return Estimate{}, err
		}
		// The derived state is scrambled ONCE MORE before use: the generator
		// itself steps by rng.Gamma per draw, so unscrambled states of the form
		// base + t·rng.Gamma would put every trajectory on the same arithmetic
		// progression, merely offset — trajectory t+1 would replay trajectory
		// t's draws shifted by one, making all shots near-copies of each
		// other (observed as whole cells reporting fidelity exactly 1). The
		// extra scramble scatters the starting points across the full 2⁶⁴
		// state space, where stream overlap is a birthday-bound improbability.
		src := rng.NewSource(rng.Scramble(rng.Scramble(uint64(e.Seed)) + uint64(t+1)*rng.Gamma))
		events[t] = p.sample(rand.New(src))
	}
	f, err := p.mean(ctx, events)
	if err != nil {
		return Estimate{}, err
	}
	control, decoherence := m.CountComponents(c)
	return Estimate{Fidelity: f, Control: control, Decoherence: decoherence}, nil
}

// pauliEvent is one sampled error injection: Pauli pi (index into paulis)
// on compact qubit q, right after schedule step `step`.
type pauliEvent struct {
	step int
	q    int
	pi   int
}

// trajectories is a circuit compiled for trajectory sampling, shared
// read-only by every trajectory: the scheduled program over the compacted
// circuit, and per compact op its error probabilities and the step its
// errors land after. Error probabilities come from the original ops
// (physical qubit indices, where EdgeE2Q speaks); injection sites from the
// compact ones, mapped to the compiled program's fused-step boundaries —
// an error "after op i" lands after the schedule step that executes op i
// (the ops fused alongside it commute with or are disjoint from it, so the
// placement is exact up to the Pauli-twirl approximation already being
// sampled). maxForks is the most forks run keeps live at once.
type trajectories struct {
	prog     *sim.Program
	n        int
	maxForks int
	ops      []circuit.Op
	gateErr  []float64
	decoErr  []float64
	step     []int
}

// planTrajectories validates c, compacts it to its touched qubits and
// compiles it for trajectory sampling under the model.
func (m Model) planTrajectories(c *circuit.Circuit) (*trajectories, error) {
	if err := ValidateForSim(c); err != nil {
		return nil, err
	}
	compact, _ := c.CompactQubits()
	p := &trajectories{
		prog:     sim.Schedule(compact),
		n:        compact.N,
		maxForks: max(1, forkBudget>>(4+compact.N)), // 16 bytes per amplitude
		ops:      compact.Ops,
		gateErr:  make([]float64, len(compact.Ops)),
		decoErr:  make([]float64, len(compact.Ops)),
		step:     make([]int, len(compact.Ops)),
	}
	durs := m.durations()
	for i, op := range compact.Ops {
		p.step[i] = p.prog.StepForOp(i)
		p.gateErr[i] = m.opGateError(c.Ops[i])
		if m.DecoherenceRate > 0 {
			if d := durs.Duration(op.Name); d > 0 {
				p.decoErr[i] = 1 - math.Exp(-d*m.DecoherenceRate)
			}
		}
	}
	return p, nil
}

// sample draws one trajectory's error events from rng, op by op: a
// control error on a 2Q op is a uniformly random non-identity Pauli pair
// (one Float64, then one Intn(15) on a hit), and decoherence is one
// Float64 per touched qubit (then one Intn(3) on a hit). The events come
// back ordered by step (stably: ties keep sampling order), because fusion
// and layering may place a later op in an earlier step.
func (p *trajectories) sample(rng *rand.Rand) []pauliEvent {
	var events []pauliEvent
	for i, op := range p.ops {
		if g := p.gateErr[i]; g > 0 && rng.Float64() < g {
			k := 1 + rng.Intn(15)
			if pa := k % 4; pa > 0 {
				events = append(events, pauliEvent{step: p.step[i], q: op.Qubits[0], pi: pa - 1})
			}
			if pb := k / 4; pb > 0 {
				events = append(events, pauliEvent{step: p.step[i], q: op.Qubits[1], pi: pb - 1})
			}
		}
		if d := p.decoErr[i]; d > 0 {
			for _, q := range op.Qubits {
				if rng.Float64() < d {
					events = append(events, pauliEvent{step: p.step[i], q: q, pi: rng.Intn(3)})
				}
			}
		}
	}
	slices.SortStableFunc(events, func(a, b pauliEvent) int { return a.step - b.step })
	return events
}

// mean simulates the sampled trajectories (run) and returns their mean
// fidelity, summed in index order so it is bit-identical however the
// trajectories were batched.
func (p *trajectories) mean(ctx context.Context, events [][]pauliEvent) (float64, error) {
	fids := make([]float64, len(events))
	if _, err := p.run(ctx, events, fids); err != nil {
		return 0, err
	}
	total := 0.0
	for _, f := range fids {
		total += f
	}
	return total / float64(len(events)), nil
}

// forkBudget is the memory, in bytes, the live forks of one run may hold
// together: at most max(1, forkBudget/(16·2^n)) forks of an n-qubit state,
// so 32 at 16 qubits and 1 from 21 qubits up.
const forkBudget = 32 << 20

// run simulates trajectories and writes trajectory t's fidelity into
// fids[t]. events[t] is trajectory t's error events ordered by step; an
// empty one has fidelity 1 and costs nothing. A trajectory needs a fork
// when its events span several steps. The trajectories go through
// runBatch in consecutive batches of at most p.maxForks such forks, each
// batch walking the ideal state again, so memory stays bounded however
// many shots there are. Every trajectory's fidelity is the same in any
// batch. peak is the most forks that were live at once.
func (p *trajectories) run(ctx context.Context, events [][]pauliEvent, fids []float64) (peak int, err error) {
	for lo := 0; lo < len(events); {
		hi, forks := lo, 0
		for ; hi < len(events); hi++ {
			if ev := events[hi]; len(ev) > 0 && ev[0].step != ev[len(ev)-1].step {
				if forks == p.maxForks {
					break
				}
				forks++
			}
		}
		bp, err := p.runBatch(ctx, events[lo:hi], fids[lo:hi])
		if err != nil {
			return 0, err
		}
		peak = max(peak, bp)
		lo = hi
	}
	return peak, nil
}

// runBatch simulates one batch of trajectories in lockstep. One ideal
// state walks steps [0, last] — last being the latest step any trajectory
// has an event on — checking ctx before every step. A trajectory with
// events on one step only is scored there against the ideal state alone
// (see pauliOverlap). Any other forks from the ideal state at its first
// event step, is advanced with it, and is compared with it and dropped at
// its last event step. peak is the most forks that were live at once.
func (p *trajectories) runBatch(ctx context.Context, events [][]pauliEvent, fids []float64) (peak int, err error) {
	last := -1
	for t, ev := range events {
		if len(ev) == 0 {
			fids[t] = 1
		} else if s := ev[len(ev)-1].step; s > last {
			last = s
		}
	}
	if last < 0 {
		return 0, nil
	}
	// byStep[s] lists, in index order, the trajectories with at least one
	// event on step s.
	byStep := make([][]int, last+1)
	for t, ev := range events {
		for i, e := range ev {
			if i == 0 || ev[i-1].step != e.step {
				byStep[e.step] = append(byStep[e.step], t)
			}
		}
	}

	ideal, err := sim.NewState(p.n)
	if err != nil {
		return 0, err
	}
	forks := make([]*sim.State, len(events)) // trajectory t's fork while live
	next := make([]int, len(events))         // trajectory t's next event to apply
	live := []*sim.State{ideal}              // the states each step advances
	for s := 0; s <= last; s++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, st := range live {
			if err := st.RunProgramSteps(p.prog, s, s+1); err != nil {
				return 0, err
			}
		}
		for _, t := range byStep[s] {
			ev, f := events[t], forks[t]
			k, end := next[t], next[t]
			for end < len(ev) && ev[end].step == s {
				end++
			}
			if end == len(ev) {
				// The trajectory's last errors: they enter the overlap with
				// the ideal state as a Pauli string, so a trajectory with
				// errors on this step only needs no fork at all.
				if f == nil {
					fids[t] = pauliOverlap(ideal, ideal, ev[k:])
					continue
				}
				fids[t] = pauliOverlap(ideal, f, ev[k:])
				forks[t] = nil
				i := slices.Index(live, f)
				live = slices.Delete(live, i, i+1)
				continue
			}
			if f == nil {
				f = ideal.Copy()
				forks[t] = f
				live = append(live, f)
				peak = max(peak, len(live)-1)
			}
			for _, e := range ev[k:end] {
				if err := f.Apply1Q(e.q, paulis[e.pi]); err != nil {
					return 0, err
				}
			}
			next[t] = end
		}
	}
	return peak, nil
}

// pauliOverlap returns |⟨a|P|b⟩|², where P is the product of the events'
// Paulis. Paulis on one qubit multiply to another Pauli up to a phase,
// which the modulus drops, so P is X^x·Z^z for two bit masks over the
// amplitude index: P|i⟩ = (−1)^|z∧i| |i⊕x⟩. One pass over the amplitudes
// replaces applying the Paulis to a copy of b and taking the overlap.
func pauliOverlap(a, b *sim.State, events []pauliEvent) float64 {
	var x, z int
	for _, e := range events {
		bit := 1 << (a.N - 1 - e.q)
		if e.pi != 2 { // X or Y
			x ^= bit
		}
		if e.pi != 0 { // Y or Z
			z ^= bit
		}
	}
	var re, im float64
	for j, u := range a.Amp {
		v := b.Amp[j^x]
		// conj(u)·v, signed by the Z part acting on basis state j⊕x.
		r := real(u)*real(v) + imag(u)*imag(v)
		i := real(u)*imag(v) - imag(u)*real(v)
		if bits.OnesCount(uint(z&(j^x)))&1 == 1 {
			r, i = -r, -i
		}
		re += r
		im += i
	}
	return re*re + im*im
}
