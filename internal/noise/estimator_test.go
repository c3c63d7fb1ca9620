package noise_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestCountEstimatorMatchesClosedForm(t *testing.T) {
	c := workloads.GHZ(6)
	m := noise.Model{GateError: 0.01, DecoherenceRate: 0.02}
	est, err := noise.CountEstimator{}.Estimate(context.Background(), c, m)
	if err != nil {
		t.Fatal(err)
	}
	if want := noise.CountModelFidelity(c, m); est.Fidelity != want {
		t.Fatalf("count estimator %g != CountModelFidelity %g", est.Fidelity, want)
	}
	if math.Abs(est.Control*est.Decoherence-est.Fidelity) > 1e-15 {
		t.Fatalf("components %g·%g don't multiply to %g", est.Control, est.Decoherence, est.Fidelity)
	}
}

// TestNoiseEquivalence: on small circuits the Monte-Carlo estimate must
// agree with the closed-form count model within sampling tolerance — the
// count model is the exact expectation of the sampled channels when every
// error event zeroes the overlap, and an upper-bias beyond tolerance (or
// any divergence) means one of the two models drifted. This is the
// scripts/check.sh noise-equivalence arm.
func TestNoiseEquivalence(t *testing.T) {
	cases := []struct {
		name string
		c    *circuit.Circuit
		m    noise.Model
	}{
		{"ghz-control", workloads.GHZ(6), noise.Model{GateError: 0.02}},
		{"ghz-decoherence", workloads.GHZ(6), noise.Model{DecoherenceRate: 0.02}},
		{"qft-mixed", workloads.QFT(5, true), noise.Model{GateError: 0.01, DecoherenceRate: 0.01}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count, err := noise.CountEstimator{}.Estimate(context.Background(), tc.c, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := noise.MonteCarloEstimator{Shots: 4000, Seed: 7}.Estimate(context.Background(), tc.c, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			// MC sits at or above the count model (an injected Pauli rarely
			// zeroes the overlap exactly, never increases the gap), within a
			// deterministic-fixed-seed tolerance.
			if mc.Fidelity < count.Fidelity-0.03 || mc.Fidelity > count.Fidelity+0.08 {
				t.Fatalf("MC %g vs count %g outside tolerance", mc.Fidelity, count.Fidelity)
			}
		})
	}
}

// TestTrajectorySeedsDecorrelated guards against the arithmetic-progression
// seeding bug: per-trajectory states stepping by the generator's own
// increment put every trajectory on one shared stream, collapsing cells to
// fidelity exactly 1 (no trajectory saw an event) or near 0 (all saw the
// same one). At these rates the per-trajectory no-event probability is
// ~0.5, so 256 independent trajectories land strictly between the extremes.
func TestTrajectorySeedsDecorrelated(t *testing.T) {
	c := workloads.QFT(5, true)
	m := noise.Model{GateError: 0.02}
	for _, seed := range []int64{0, 1, 777, -99887766} {
		est, err := noise.MonteCarloEstimator{Shots: 256, Seed: seed}.Estimate(context.Background(), c, m)
		if err != nil {
			t.Fatal(err)
		}
		if est.Fidelity == 1 || est.Fidelity < 0.1 {
			t.Fatalf("seed %d: degenerate fidelity %g suggests correlated trajectories", seed, est.Fidelity)
		}
	}
}

func TestValidateForSimRejections(t *testing.T) {
	// Invalid ops are splice-built: Append validates eagerly, but circuits
	// assembled field-by-field (or decoded) reach the estimators unchecked.
	repeat := circuit.New(3)
	repeat.Ops = append(repeat.Ops, circuit.Op{Name: "cx", Qubits: []int{1, 1}})

	arity := circuit.New(3)
	arity.Ops = append(arity.Ops, circuit.Op{Name: "ccx", Qubits: []int{0, 1, 2}})

	outOfRange := circuit.New(2)
	outOfRange.Ops = append(outOfRange.Ops, circuit.Op{Name: "cx", Qubits: []int{0, 5}})

	negative := circuit.New(2)
	negative.Ops = append(negative.Ops, circuit.Op{Name: "x", Qubits: []int{-1}})

	wide := circuit.New(sim.MaxQubits + 2)
	for q := 0; q < sim.MaxQubits+1; q++ {
		wide.H(q)
	}

	for name, c := range map[string]*circuit.Circuit{
		"repeated-qubit": repeat,
		"three-qubit-op": arity,
		"out-of-range":   outOfRange,
		"negative-qubit": negative,
		"too-wide":       wide,
	} {
		if err := noise.ValidateForSim(c); err == nil {
			t.Errorf("%s: circuit accepted", name)
		}
		// Both estimators must refuse the same inputs up front.
		if _, err := (noise.MonteCarloEstimator{Shots: 2}).Estimate(context.Background(), c, noise.Model{}); err == nil {
			t.Errorf("%s: estimator accepted", name)
		}
	}

	// A wide machine circuit that *compacts* under the limit is fine.
	sparse := circuit.New(100)
	sparse.CX(10, 90)
	if err := noise.ValidateForSim(sparse); err != nil {
		t.Fatalf("compactable circuit rejected: %v", err)
	}
}

func TestMonteCarloFidelityRejectsInvalid(t *testing.T) {
	bad := circuit.New(3)
	bad.Ops = append(bad.Ops, circuit.Op{Name: "cx", Qubits: []int{2, 2}})
	if _, err := noise.MonteCarloFidelity(bad, noise.Model{}, 4, nil); err == nil {
		t.Fatal("repeated-qubit circuit accepted by MonteCarloFidelity")
	}
}

func TestMonteCarloEstimatorHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := workloads.QFT(6, true)
	_, err := noise.MonteCarloEstimator{Shots: 500}.Estimate(ctx, c, noise.Model{GateError: 0.5})
	if err == nil {
		t.Fatal("cancelled estimate succeeded")
	}
}

// refEvent is one error injection of the reference algorithm: Pauli pi
// (0 = X, 1 = Y, 2 = Z) on compact qubit q right after schedule step step.
type refEvent struct{ step, q, pi int }

var refPaulis = []*linalg.Matrix{gates.X(), gates.Y(), gates.Z()}

// refSplitmix64 is the estimator's per-trajectory generator, restated.
type refSplitmix64 struct{ state uint64 }

const refGamma = 0x9E3779B97F4A7C15

func refScramble(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *refSplitmix64) Uint64() uint64 {
	s.state += refGamma
	return refScramble(s.state)
}
func (s *refSplitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *refSplitmix64) Seed(seed int64) { s.state = uint64(seed) }

// referenceTrajectory is the full-run trajectory: start from |0…0⟩, run
// every step of the program with the events injected after their steps,
// and compare with the ideal end state.
func referenceTrajectory(t *testing.T, prog *sim.Program, n int, ideal *sim.State, events []refEvent) float64 {
	t.Helper()
	if len(events) == 0 {
		return 1
	}
	events = slices.Clone(events)
	slices.SortStableFunc(events, func(a, b refEvent) int { return a.step - b.step })
	st, err := sim.NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	cur := 0
	for _, e := range events {
		if err := st.RunProgramSteps(prog, cur, e.step+1); err != nil {
			t.Fatal(err)
		}
		cur = e.step + 1
		if err := st.Apply1Q(e.q, refPaulis[e.pi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.RunProgramSteps(prog, cur, prog.Steps()); err != nil {
		t.Fatal(err)
	}
	f, err := ideal.Fidelity(st)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// referenceEstimate is the full-run Monte-Carlo algorithm the lockstep
// runner replaced: the same per-trajectory RNG derivation and draw order,
// but every errored trajectory simulated from |0…0⟩ to the end of the
// circuit and compared with a fully run ideal state.
func referenceEstimate(t *testing.T, c *circuit.Circuit, m noise.Model, shots int, seed int64) float64 {
	t.Helper()
	compact, _ := c.CompactQubits()
	prog := sim.Schedule(compact)
	ideal, err := sim.NewState(compact.N)
	if err != nil {
		t.Fatal(err)
	}
	if err := ideal.RunProgramCtx(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	durs := m.Timing
	if durs == nil {
		durs = arch.DefaultTiming()
	}
	gateErr := func(op circuit.Op) float64 {
		if !op.Is2Q() {
			return 0
		}
		a, b := min(op.Qubits[0], op.Qubits[1]), max(op.Qubits[0], op.Qubits[1])
		if e, ok := m.EdgeE2Q[[2]int{a, b}]; ok {
			return e
		}
		return m.GateError
	}
	total := 0.0
	for s := 0; s < shots; s++ {
		rng := rand.New(&refSplitmix64{state: refScramble(refScramble(uint64(seed)) + uint64(s+1)*refGamma)})
		var events []refEvent
		for i, op := range compact.Ops {
			step := prog.StepForOp(i)
			if p := gateErr(c.Ops[i]); p > 0 && rng.Float64() < p {
				k := 1 + rng.Intn(15)
				if pa := k % 4; pa > 0 {
					events = append(events, refEvent{step, op.Qubits[0], pa - 1})
				}
				if pb := k / 4; pb > 0 {
					events = append(events, refEvent{step, op.Qubits[1], pb - 1})
				}
			}
			if d := durs.Duration(op.Name); m.DecoherenceRate > 0 && d > 0 {
				p := 1 - math.Exp(-d*m.DecoherenceRate)
				for _, q := range op.Qubits {
					if rng.Float64() < p {
						events = append(events, refEvent{step, q, rng.Intn(3)})
					}
				}
			}
		}
		total += referenceTrajectory(t, prog, compact.N, ideal, events)
	}
	return total / float64(shots)
}

// routedFixture routes the width-w input of the lockstep tests (w in
// 12..16) onto the 16-qubit hypercube trimmed to w qubits, so the state
// vector holds exactly 2^w amplitudes.
func routedFixture(t *testing.T, w int) (core.Machine, *circuit.Circuit) {
	t.Helper()
	var c *circuit.Circuit
	switch w {
	case 12:
		c = workloads.QFT(12, true)
	case 13:
		c = workloads.TIMHamiltonian(13, 2)
	case 14:
		c = workloads.QAOAVanilla(14, rand.New(rand.NewSource(14)))
	case 15:
		c = workloads.GHZ(15)
	case 16:
		c = workloads.QFT(16, false)
	default:
		t.Fatalf("no routed fixture of width %d", w)
	}
	m, err := core.FromSpec(fmt.Sprintf("hypercube:dim=4,trim=%d", w))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.TranspileContext(context.Background(), c, core.Options{Seed: int64(w), Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, tr.Routed
}

// TestLockstepMatchesFullRun is the differential test of the lockstep
// runner against the full-run algorithm: routed circuits at widths 12–16
// (state vectors on both sides of the simulator's 128 KiB tile), both
// error regimes and a per-edge override. The estimates must agree with
// the reference within 1e-12.
func TestLockstepMatchesFullRun(t *testing.T) {
	const shots = 12
	for w := 12; w <= 16; w++ {
		m, routed := routedFixture(t, w)
		var edge [2]int
		for _, op := range routed.Ops {
			if op.Is2Q() {
				edge = [2]int{min(op.Qubits[0], op.Qubits[1]), max(op.Qubits[0], op.Qubits[1])}
				break
			}
		}
		timing := m.GateDurations()
		for _, tc := range []struct {
			regime string
			model  noise.Model
		}{
			{"control", noise.Model{GateError: 0.01, Timing: timing}},
			{"decoherence", noise.Model{DecoherenceRate: 0.008, Timing: timing}},
			{"edge", noise.Model{GateError: 0.001, EdgeE2Q: map[[2]int]float64{edge: 0.3}, Timing: timing}},
		} {
			regime, model := tc.regime, tc.model
			seed := int64(100*w + len(regime))
			want := referenceEstimate(t, routed, model, shots, seed)
			got, err := noise.MonteCarloEstimator{Shots: shots, Seed: seed}.Estimate(context.Background(), routed, model)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got.Fidelity - want); d > 1e-12 {
				t.Errorf("width %d %s: lockstep %.17g vs full run %.17g (|Δ| %.3g)", w, regime, got.Fidelity, want, d)
			}
		}
	}
}

// errorSites hashes where the estimator's compiled schedule puts error
// events for c: FNV-1a over Steps() and the StepForOp of every op of the
// compacted circuit, the program the estimator runs.
func errorSites(c *circuit.Circuit) uint64 {
	compact, _ := c.CompactQubits()
	p := sim.Schedule(compact)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:", p.Steps())
	for i := range compact.Ops {
		fmt.Fprintf(h, " %d", p.StepForOp(i))
	}
	return h.Sum64()
}

// TestErrorSitesPinned holds the schedule's error sites on the routed
// fixtures of widths 13 and 14 to the values pinned beside
// MonteCarloVersion. Monte-Carlo estimates follow those sites, so a
// scheduler change that moves them must fail here rather than silently
// change fidelities under an unchanged cache key.
func TestErrorSitesPinned(t *testing.T) {
	for _, w := range []int{13, 14} {
		pin, ok := noise.ErrorSitePins[w]
		if !ok {
			t.Fatalf("no error-site pin for width %d", w)
		}
		_, routed := routedFixture(t, w)
		if got := routed.Fingerprint(); got != pin.Circuit {
			t.Fatalf("width %d: routed fixture changed (fingerprint %#x, pinned %#x); re-pin its error sites from the previous build", w, got, pin.Circuit)
		}
		if got := errorSites(routed); got != pin.Sites {
			t.Errorf("width %d: error sites hash %#x, pinned %#x: the scheduler moved Monte-Carlo error sites; bump MonteCarloVersion and re-pin", w, got, pin.Sites)
		}
	}
}

// edgeCircuit is a 4-qubit circuit with 1Q runs, diagonals and 2Q gates,
// so its schedule has several steps of different kinds.
func edgeCircuit() *circuit.Circuit {
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	c.CX(0, 1)
	c.RZ(1, 0.7)
	c.CX(2, 3)
	c.SqrtISwap(1, 2)
	c.H(0)
	c.CX(3, 0)
	c.T(2)
	c.CX(1, 3)
	return c
}

// TestLockstepEdgeCases runs hand-built trajectories through the lockstep
// runner and checks each against its full run: errors only at step 0,
// only at the final step, several on one step, first and last step
// together, and a zero-error trajectory (fidelity exactly 1).
func TestLockstepEdgeCases(t *testing.T) {
	c := edgeCircuit()
	prog := sim.Schedule(c)
	last := prog.Steps() - 1
	if last < 2 {
		t.Fatalf("edge circuit compiled to %d steps, want at least 3", last+1)
	}
	ideal, err := sim.RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		events []refEvent
	}{
		{"step-0", []refEvent{{0, 1, 0}}},
		{"final-step", []refEvent{{last, 2, 1}}},
		{"zero-error", nil},
		{"one-step-several", []refEvent{{1, 0, 0}, {1, 3, 2}, {1, 0, 1}, {1, 2, 0}}},
		{"first-and-final", []refEvent{{0, 3, 1}, {last, 0, 2}}},
		{"spread", []refEvent{{0, 2, 2}, {1, 1, 0}, {last, 1, 0}, {last, 3, 1}}},
	}
	shots := make([][]noise.PauliEvent, len(cases))
	for i, tc := range cases {
		for _, e := range tc.events {
			shots[i] = append(shots[i], noise.NewPauliEvent(e.step, e.q, e.pi))
		}
	}
	plan, err := noise.PlanTrajectories(c, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(cases))
	for i, tc := range cases {
		want[i] = referenceTrajectory(t, prog, c.N, ideal, tc.events)
	}
	// Fork cap 1 puts the two forking trajectories in separate batches;
	// every trajectory must score the same in any batch.
	var unbatched []float64
	for _, limit := range []int{plan.MaxForks(), 1} {
		plan.SetMaxForks(limit)
		fids := make([]float64, len(cases))
		peak, err := noise.RunLockstep(plan, context.Background(), shots, fids)
		if err != nil {
			t.Fatal(err)
		}
		if peak > limit {
			t.Errorf("fork limit %d: %d forks live at once", limit, peak)
		}
		for i, tc := range cases {
			if d := math.Abs(fids[i] - want[i]); d > 1e-12 {
				t.Errorf("%s (fork limit %d): lockstep %.17g vs full run %.17g", tc.name, limit, fids[i], want[i])
			}
		}
		if unbatched == nil {
			unbatched = fids
		} else if !slices.Equal(fids, unbatched) {
			t.Errorf("fork limit %d: %v, unbatched %v", limit, fids, unbatched)
		}
	}
	if unbatched[2] != 1 {
		t.Errorf("zero-error trajectory fidelity %v, want exactly 1", unbatched[2])
	}
}

// TestLockstepForkCap: at a high error rate nearly every trajectory
// forks, and the runner must still keep at most the cap live at once,
// scoring every trajectory as it does unbatched. The default cap is the
// 32 MiB fork budget over the state size.
func TestLockstepForkCap(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{12, 512}, {16, 32}, {20, 2}, {21, 1}, {sim.MaxQubits, 1}} {
		plan, err := noise.PlanTrajectories(workloads.GHZ(tc.n), noise.Model{})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.MaxForks(); got != tc.want {
			t.Errorf("%d qubits: default fork cap %d, want %d", tc.n, got, tc.want)
		}
	}

	const shots = 64
	plan, err := noise.PlanTrajectories(workloads.QFT(12, true), noise.Model{GateError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	events := make([][]noise.PauliEvent, shots)
	for i := range events {
		events[i] = plan.Sample(rng)
	}
	ref := make([]float64, shots)
	peak, err := noise.RunLockstep(plan, context.Background(), events, ref)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 3 {
		t.Fatalf("uncapped run kept at most %d forks live; the test needs more than the cap of 3", peak)
	}
	plan.SetMaxForks(3)
	fids := make([]float64, shots)
	if peak, err = noise.RunLockstep(plan, context.Background(), events, fids); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Errorf("fork cap 3: %d forks live at once", peak)
	}
	if !slices.Equal(fids, ref) {
		t.Errorf("capped run scored %v, uncapped %v", fids, ref)
	}
}

// TestLockstepZeroErrorShotAllocatesNothing: a batch of error-free
// trajectories builds no ideal state and no fork.
func TestLockstepZeroErrorShotAllocatesNothing(t *testing.T) {
	plan, err := noise.PlanTrajectories(edgeCircuit(), noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	shots := make([][]noise.PauliEvent, 8)
	fids := make([]float64, len(shots))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := noise.RunLockstep(plan, context.Background(), shots, fids); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("zero-error trajectories allocated %v times per run, want 0", allocs)
	}
	for i, f := range fids {
		if f != 1 {
			t.Fatalf("zero-error trajectory %d: fidelity %v, want 1", i, f)
		}
	}
}
