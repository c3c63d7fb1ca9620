// Package noise estimates circuit fidelity under the paper's two error
// regimes (§3.1): control imperfections, which charge a fixed error
// probability per two-qubit gate application (so total gate count is the
// figure of merit), and decoherence, which charges errors proportional to
// pulse duration (so the duration-weighted critical path is the figure of
// merit). A Monte-Carlo Pauli-twirl simulation propagates both through the
// actual circuit, capturing error spreading that closed-form count models
// miss.
//
// The model attaches noise to gates (as in standard device-noise models):
// each two-qubit gate applies a depolarizing channel with probability
// GateError (or a per-coupling override for heterogeneous hardware), and
// each gate's pulse duration d applies independent Pauli noise with
// probability 1−exp(−d·DecoherenceRate) on the touched qubits. Idle-qubit
// decoherence is not modeled (documented simplification).
//
// Two pluggable estimators (Estimator) serve the evaluation pipeline:
// CountEstimator is the closed-form count model, MonteCarloEstimator runs
// deterministic trajectories as forks of one ideal state walking the
// compiled circuit in lockstep. Both read gate durations
// from an arch.Timing table — the same source core.Machine.GateDurations
// and the transpiler's pulse metrics use — so timing has one source of
// truth.
package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/sim"
)

// Model is a gate-attached noise model.
type Model struct {
	// GateError is the per-application depolarizing probability of any
	// two-qubit gate (control-error regime).
	GateError float64
	// DecoherenceRate converts pulse duration into per-qubit Pauli error
	// probability: p = 1 − exp(−d·rate) (decoherence regime).
	DecoherenceRate float64
	// Timing is the per-gate-type pulse-duration table the decoherence
	// regime charges from (gates not in the table are free, like 1Q gates
	// in the paper's model). nil means arch.DefaultTiming() — the same
	// resolution core.Machine.GateDurations uses, so the transpiler's
	// duration metrics and the noise charges share one timing source of
	// truth instead of the old parallel Durations map.
	Timing arch.Timing
	// EdgeE2Q overrides GateError on individual physical couplings, keyed
	// by the (low, high) qubit pair of the *original* circuit the model is
	// applied to (heterogeneous hardware; see arch.NoiseProfile.EdgeE2Q).
	// Ops on unlisted pairs charge GateError.
	EdgeE2Q map[[2]int]float64
}

// FromProfile builds the gate-attached model an architecture's declarative
// noise profile describes, charging decoherence with the given timing table
// (typically core.Machine.GateDurations()). A nil profile yields the
// noiseless model.
func FromProfile(p *arch.NoiseProfile, timing arch.Timing) Model {
	m := Model{Timing: timing}
	if p != nil {
		m.GateError = p.E2Q
		m.DecoherenceRate = p.TDec
		m.EdgeE2Q = p.EdgeE2Q
	}
	return m
}

// durations resolves the model's timing table (nil → the paper's default).
func (m Model) durations() arch.Timing {
	if m.Timing != nil {
		return m.Timing
	}
	return arch.DefaultTiming()
}

// opGateError returns the control-error probability of one op: the
// per-edge override when the op's qubit pair has one, else GateError.
// Non-2Q ops charge nothing.
func (m Model) opGateError(op circuit.Op) float64 {
	if !op.Is2Q() {
		return 0
	}
	if len(m.EdgeE2Q) > 0 {
		a, b := op.Qubits[0], op.Qubits[1]
		if a > b {
			a, b = b, a
		}
		if e, ok := m.EdgeE2Q[[2]int{a, b}]; ok {
			return e
		}
	}
	return m.GateError
}

var paulis = []*linalg.Matrix{gates.X(), gates.Y(), gates.Z()}

// ValidateForSim checks that a circuit is trajectory-simulable, with
// descriptive errors instead of the silent misbehavior unchecked inputs
// used to cause (an op on three qubits was skipped without a word; a
// repeated-qubit op surfaced as a bare simulator error mid-shot): every op
// must touch one or two distinct qubits inside [0, c.N), and the circuit
// must compact to at most sim.MaxQubits qubits. Exported so callers can
// reject a circuit before paying for an ideal-state run.
func ValidateForSim(c *circuit.Circuit) error {
	for i, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
		case 2:
			if op.Qubits[0] == op.Qubits[1] {
				return fmt.Errorf("noise: op %d (%s) repeats qubit %d", i, op.Name, op.Qubits[0])
			}
		default:
			return fmt.Errorf("noise: op %d (%s) touches %d qubits (want 1 or 2)", i, op.Name, len(op.Qubits))
		}
		for _, q := range op.Qubits {
			if q < 0 || q >= c.N {
				return fmt.Errorf("noise: op %d (%s) touches qubit %d outside [0,%d)", i, op.Name, q, c.N)
			}
		}
	}
	touched := 0
	seen := make(map[int]bool, c.N)
	for _, op := range c.Ops {
		for _, q := range op.Qubits {
			if !seen[q] {
				seen[q] = true
				touched++
			}
		}
	}
	if touched > sim.MaxQubits {
		return fmt.Errorf("noise: circuit touches %d qubits (max %d simulable)", touched, sim.MaxQubits)
	}
	return nil
}

// MonteCarloFidelity estimates the state fidelity |⟨ideal|noisy⟩|² of a
// circuit run from |0..0⟩ under the model, averaged over `shots`
// trajectories drawn from the caller's rng (one shared serial stream; for
// the parallel, per-trajectory-seeded estimator see MonteCarloEstimator).
// The circuit is compacted to its touched qubits first, so physical
// circuits on large machines stay simulable; per-edge error overrides are
// resolved against the original (pre-compaction) qubit indices. The shots
// are sampled in order from rng, then simulated by the same lockstep
// runner MonteCarloEstimator uses.
func MonteCarloFidelity(c *circuit.Circuit, m Model, shots int, rng *rand.Rand) (float64, error) {
	if shots < 1 {
		return 0, fmt.Errorf("noise: need at least one shot")
	}
	p, err := m.planTrajectories(c)
	if err != nil {
		return 0, err
	}
	events := make([][]pauliEvent, shots)
	for s := range events {
		events[s] = p.sample(rng)
	}
	return p.mean(context.Background(), events)
}

// CountComponents returns the two closed-form factors of the count model:
// the control component Π(1−p_g) over the circuit's two-qubit gates (with
// per-edge overrides applied) and the decoherence component
// exp(−rate·Σ d·|qubits|). Their product is CountModelFidelity; the
// evaluation pipeline reports them separately so the dominant error regime
// of an architecture is visible per cell.
func (m Model) CountComponents(c *circuit.Circuit) (control, decoherence float64) {
	control = 1.0
	qubitTime := 0.0
	durs := m.durations()
	for _, op := range c.Ops {
		if op.Is2Q() {
			if p := m.opGateError(op); p > 0 {
				control *= 1 - p
			}
		}
		qubitTime += durs.Duration(op.Name) * float64(len(op.Qubits))
	}
	return control, math.Exp(-m.DecoherenceRate * qubitTime)
}

// CountModelFidelity is the closed-form approximation the paper reasons
// with: F ≈ Π(1−p_gate) · exp(−DecoherenceRate·Σ qubit-seconds). Used as a
// sanity bound for the Monte-Carlo estimate.
func CountModelFidelity(c *circuit.Circuit, m Model) float64 {
	control, decoherence := m.CountComponents(c)
	return control * decoherence
}
