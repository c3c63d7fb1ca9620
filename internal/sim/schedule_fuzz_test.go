package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// swapDenseCircuit draws ops over the simulator's full gate vocabulary as
// randomCircuit does, except that a 2Q op is a swap with probability
// swapShare, so SWAPs come in chains, next to the generic and specialized
// 2Q gates they fold into or stop at.
func swapDenseCircuit(n, ops int, swapShare float64, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		name := oneQNames[rng.Intn(len(oneQNames))]
		if rng.Intn(2) == 0 {
			name = twoQNames[rng.Intn(len(twoQNames))]
			if rng.Float64() < swapShare {
				name = "swap"
			}
		}
		qubits := []int{rng.Intn(n)}
		if !slices.Contains(oneQNames, name) {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			qubits = []int{a, b}
		}
		if name == "su4" {
			c.Append(circuit.Op{Name: "su4", Qubits: qubits, U: gates.RandomSU4(rng)})
			continue
		}
		params := make([]float64, nParams[name])
		for k := range params {
			params[k] = (rng.Float64()*2 - 1) * math.Pi
		}
		c.Append(circuit.Op{Name: name, Qubits: qubits, Params: params})
	}
	return c
}

// naiveRun applies every op of c to amp in order: the op's circuit.Unitary
// as a dense 2×2 or 4×4 multiply over its own index loop, qubit 0 the most
// significant bit. It shares no kernel, schedule or labeling with the
// simulator.
func naiveRun(t *testing.T, n int, amp []complex128, c *circuit.Circuit) {
	t.Helper()
	for i, op := range c.Ops {
		u, err := circuit.Unitary(op)
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
		masks := make([]int, len(op.Qubits))
		for k, q := range op.Qubits {
			masks[k] = 1 << (n - 1 - q)
		}
		dim := 1 << len(masks)
		idx := make([]int, dim)
		in := make([]complex128, dim)
		for base := range amp {
			if slices.ContainsFunc(masks, func(m int) bool { return base&m != 0 }) {
				continue
			}
			for r := range dim {
				idx[r] = base
				for k, m := range masks {
					if r>>(len(masks)-1-k)&1 == 1 {
						idx[r] |= m
					}
				}
				in[r] = amp[idx[r]]
			}
			for r := range dim {
				var acc complex128
				for col := range dim {
					acc += u.At(r, col) * in[col]
				}
				amp[idx[r]] = acc
			}
		}
	}
}

// FuzzScheduleMatchesReference differentially checks the scheduled
// simulator, virtual SWAPs included, against naiveRun on random circuits
// over the full gate vocabulary, swap-dense, at widths 2–16 biased to
// 12–16 so that the layer pass's 128 KiB tiles are crossed. From one
// random input state:
//   - RunCtx (fused, layered, swaps relabeled and the amplitudes moved
//     back at the end), RunUnfused, and a ScheduleRealSwaps program must
//     each match the reference within 1e-12;
//   - the relabeled and real-SWAP programs must have the same steps and
//     StepForOp, so noise lands on the same sites in both;
//   - stepping the relabeled program with RunProgramSteps must leave the
//     reference's state with each qubit on the last bit Bits gives it.
func FuzzScheduleMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb, nops, share uint8, seed int64) {
		n := 12 + int(nb)%5
		if nb >= 128 {
			n = 2 + int(nb)%15
		}
		rng := rand.New(rand.NewSource(seed))
		c := swapDenseCircuit(n, 8+int(nops)%57, float64(share)/255, rng)
		in := randomState(t, n, rng)
		want := slices.Clone(in.Amp)
		naiveRun(t, n, want, c)
		ref := &State{N: n, Amp: want}

		check := func(name string, run func(s *State) error) *State {
			t.Helper()
			s := in.Copy()
			if err := run(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := maxAmpDiff(s, ref); d > 1e-12 {
				t.Fatalf("%s (n=%d, %d ops): deviates from the reference by %g", name, n, len(c.Ops), d)
			}
			return s
		}
		check("RunCtx", func(s *State) error { return s.RunCtx(context.Background(), c) })
		check("RunUnfused", func(s *State) error { return s.RunUnfused(c) })
		realProg := ScheduleRealSwaps(c)
		check("real SWAPs", func(s *State) error { return s.RunProgramCtx(context.Background(), realProg) })

		prog := Schedule(c)
		if prog.Steps() != realProg.Steps() {
			t.Fatalf("relabeled program has %d steps, the real-SWAP one %d", prog.Steps(), realProg.Steps())
		}
		bitOf := make([]int, n)
		for q := range bitOf {
			bitOf[q] = q
		}
		for i, op := range c.Ops {
			if s, r := prog.StepForOp(i), realProg.StepForOp(i); s != r {
				t.Fatalf("op %d (%s): step %d relabeled, %d with real SWAPs", i, op, s, r)
			}
			for k, q := range op.Qubits {
				bitOf[q] = prog.Bits(i)[k]
			}
		}
		stepped := in.Copy()
		if err := stepped.RunProgramSteps(prog, 0, prog.Steps()); err != nil {
			t.Fatal(err)
		}
		relabeled := &State{N: n, Amp: make([]complex128, len(want))}
		for j, a := range want {
			i := 0
			for q, b := range bitOf {
				if j&(1<<(n-1-q)) != 0 {
					i |= 1 << (n - 1 - b)
				}
			}
			relabeled.Amp[i] = a
		}
		if d := maxAmpDiff(stepped, relabeled); d > 1e-12 {
			t.Fatalf("RunProgramSteps (n=%d, %d ops): deviates from the reference on Bits' labeling by %g", n, len(c.Ops), d)
		}
	})
}
