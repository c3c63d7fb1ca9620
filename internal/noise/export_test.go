package noise

import (
	"math/rand"

	"repro/internal/circuit"
)

// Hooks for driving the lockstep trajectory runner with hand-built events.

type (
	PauliEvent   = pauliEvent
	Trajectories = trajectories
)

// NewPauliEvent is Pauli pi (0 = X, 1 = Y, 2 = Z) on bit q of the
// program's labeling right after schedule step `step`.
func NewPauliEvent(step, q, pi int) PauliEvent { return pauliEvent{step: step, q: q, pi: pi} }

// PlanTrajectories compiles c for trajectory runs under m.
func PlanTrajectories(c *circuit.Circuit, m Model) (*Trajectories, error) {
	return m.planTrajectories(c)
}

// Sample is (*Trajectories).sample.
func (p *trajectories) Sample(rng *rand.Rand) []PauliEvent { return p.sample(rng) }

// MaxForks and SetMaxForks read and override the live-fork cap.
func (p *trajectories) MaxForks() int     { return p.maxForks }
func (p *trajectories) SetMaxForks(k int) { p.maxForks = k }

// ErrorSitePins is the error-site pin table beside MonteCarloVersion.
var ErrorSitePins = errorSitePins

// RunLockstep is (*Trajectories).run.
var RunLockstep = (*trajectories).run
