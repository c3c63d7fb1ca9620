// Package sim is a dense statevector simulator used to validate circuit
// generators, gate decompositions, and synthesized circuits. It is exact
// (up to float64) and practical to ~20 qubits.
//
// Bit convention: qubit 0 is the most significant bit of the state index,
// so the amplitude of |q0 q1 ... q(n-1)⟩ sits at index q0·2^(n-1) + ... .
//
// Every gate, fused or not, runs through one set of stride-based region
// kernels per platform (kernels.go): a 2×2 or 4×4 matrix for generic
// gates, phase multiplies for diagonals (z/s/sdg/t/tdg/rz/p/cz/cp/rzz),
// amplitude exchanges for x/cx, and a 2×2 inner-block mix for the iSWAP
// family (iswap/siswap — the SNAIL-native basis gates). A kernel visits
// each (i, i+2^k) pair or index quad of its region exactly once, and the
// same kernel sweeps either the whole amplitude array or one cache-sized
// tile of a batched layer (layer.go). Apply1Q, Apply2Q and ApplyOp
// validate their input and sweep the whole array (ApplyOp runs a swap as
// its 4×4 unitary); RunCtx compiles the circuit with the fusion scheduler
// (fusion.go) first, which runs no kernel for a swap at all: it relabels
// which bit of the amplitude index holds which qubit, and moves the
// amplitudes back to the circuit's labeling once, at the end. Every
// specialized kernel is checked against the generic matrix kernels in
// kernels_test.go.
//
// The Go loops of kernels.go are the portable kernel set. On amd64 the
// matrix kernels and the strided complex scale under every phase multiply
// are SSE2 routines (kernels_amd64.s)
// that perform the Go loops' IEEE operations in the same order, two
// float64 lanes at a time, so every amplitude, and every Monte-Carlo
// estimate built on them, is bit-identical; the Go loops are their oracle
// (FuzzSSE2KernelsMatchGo). The routines use no FMA, whose single rounding
// would move those bits, and no AVX, which the GOAMD64=v1 baseline does not
// guarantee: SSE2 needs no CPU dispatch and no third code path.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/circuit"
	"repro/internal/linalg"
)

// MaxQubits caps the simulator size (2^22 amplitudes ≈ 64 MB).
const MaxQubits = 22

// State is an n-qubit pure state.
type State struct {
	N   int
	Amp []complex128
}

// NewState returns |0...0⟩ on n qubits.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d outside [1, %d]", n, MaxQubits)
	}
	s := &State{N: n, Amp: make([]complex128, 1<<n)}
	s.Amp[0] = 1
	return s, nil
}

// NewBasisState returns the computational basis state |bits⟩, where bits'
// most significant (2^(n-1)) bit is qubit 0.
func NewBasisState(n int, bits int) (*State, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	if bits < 0 || bits >= 1<<n {
		return nil, fmt.Errorf("sim: basis index %d outside [0, 2^%d)", bits, n)
	}
	s.Amp[0] = 0
	s.Amp[bits] = 1
	return s, nil
}

// Copy returns a deep copy of the state. slices.Clone allocates without
// zeroing the buffer the copy then overwrites.
func (s *State) Copy() *State {
	return &State{N: s.N, Amp: slices.Clone(s.Amp)}
}

// maskOf returns the amplitude-index mask of qubit q.
func (s *State) maskOf(q int) int { return 1 << (s.N - 1 - q) }

// Apply1Q applies a 2x2 unitary to qubit q.
func (s *State) Apply1Q(q int, u *linalg.Matrix) error {
	if q < 0 || q >= s.N {
		return fmt.Errorf("sim: qubit %d out of range", q)
	}
	if u.Rows != 2 || u.Cols != 2 {
		return fmt.Errorf("sim: Apply1Q needs a 2x2 matrix")
	}
	tileMat1Q(s.Amp, s.maskOf(q), u)
	return nil
}

// Apply2Q applies a 4x4 unitary to (qa, qb), with qa as the most significant
// bit of the gate's 2-bit basis (matching package gates conventions). A
// repeated qubit (qa == qb) is rejected up front: the quad iteration would
// otherwise read the same amplitude under two basis labels and corrupt the
// state.
func (s *State) Apply2Q(qa, qb int, u *linalg.Matrix) error {
	if qa == qb {
		return fmt.Errorf("sim: Apply2Q needs two distinct qubits, got qubit %d twice", qa)
	}
	if qa < 0 || qa >= s.N || qb < 0 || qb >= s.N {
		return fmt.Errorf("sim: invalid qubit pair (%d,%d)", qa, qb)
	}
	if u.Rows != 4 || u.Cols != 4 {
		return fmt.Errorf("sim: Apply2Q needs a 4x4 matrix")
	}
	tileMat2Q(s.Amp, s.maskOf(qa), s.maskOf(qb), u)
	return nil
}

// RunCtx applies the circuit through the gate-fusion scheduler (Schedule):
// runs of 1Q gates, merged diagonals, and absorbed 4×4s execute as single
// sweeps, and layers of independent gates as one cache-blocked pass. All
// of it runs serially on the same kernels ApplyOp uses. Amplitudes agree
// with the unfused path to rounding (crossvalidated in fusion_test.go and
// layer_test.go); RunUnfused is the op-by-op reference. An empty circuit
// is a no-op. ctx is checked as in RunProgramCtx; the state is left
// partially evolved on cancellation and must be discarded.
func (s *State) RunCtx(ctx context.Context, c *circuit.Circuit) error {
	if c.N > s.N {
		return fmt.Errorf("sim: circuit has %d qubits, state has %d", c.N, s.N)
	}
	if len(c.Ops) == 0 {
		return nil
	}
	return s.RunProgramCtx(ctx, Schedule(c))
}

// RunUnfused applies every op of the circuit in order through ApplyOp, with
// no fusion or layering. It is the reference semantics RunCtx's schedule is
// validated against.
func (s *State) RunUnfused(c *circuit.Circuit) error {
	if c.N > s.N {
		return fmt.Errorf("sim: circuit has %d qubits, state has %d", c.N, s.N)
	}
	for i, op := range c.Ops {
		if err := s.ApplyOp(op); err != nil {
			return fmt.Errorf("sim: op %d (%s): %w", i, op, err)
		}
	}
	return nil
}

// RunCircuitCtx simulates c from |0...0⟩, with cooperative cancellation
// as in RunCtx.
func RunCircuitCtx(ctx context.Context, c *circuit.Circuit) (*State, error) {
	s, err := NewState(c.N)
	if err != nil {
		return nil, err
	}
	if err := s.RunCtx(ctx, c); err != nil {
		return nil, err
	}
	return s, nil
}

// Probability returns |⟨bits|ψ⟩|², or 0 when bits lies outside [0, 2^n) —
// an out-of-range basis state has no overlap with an n-qubit register
// (mirroring the range rule NewBasisState enforces with an error).
func (s *State) Probability(bits int) float64 {
	if bits < 0 || bits >= len(s.Amp) {
		return 0
	}
	a := s.Amp[bits]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full measurement distribution.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.Amp))
	for i, a := range s.Amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// Inner returns ⟨s|t⟩.
func (s *State) Inner(t *State) (complex128, error) {
	if s.N != t.N {
		return 0, fmt.Errorf("sim: inner product across %d and %d qubits", s.N, t.N)
	}
	var acc complex128
	for i, a := range s.Amp {
		acc += cmplx.Conj(a) * t.Amp[i]
	}
	return acc, nil
}

// Fidelity returns |⟨s|t⟩|².
func (s *State) Fidelity(t *State) (float64, error) {
	ip, err := s.Inner(t)
	if err != nil {
		return 0, err
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip), nil
}

// Norm returns ‖ψ‖ (should be 1 for valid evolutions).
func (s *State) Norm() float64 {
	var acc float64
	for _, a := range s.Amp {
		acc += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(acc)
}

// DominantBasisState returns the basis index with the highest probability
// and that probability. Useful for checking classical (reversible) circuits
// such as the ripple-carry adder.
func (s *State) DominantBasisState() (int, float64) {
	best, bestP := 0, 0.0
	for i := range s.Amp {
		if p := s.Probability(i); p > bestP {
			best, bestP = i, p
		}
	}
	return best, bestP
}
