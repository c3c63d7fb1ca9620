package transpile

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// allBases are the four native bases a translation can target.
var allBases = []weyl.Basis{weyl.BasisCX, weyl.BasisSqrtISwap, weyl.BasisSYC, weyl.BasisISwap}

// fuzzTimings are the timing tables the counted translation is checked
// under: the paper's default, two non-dyadic overrides (so adding a
// duration k times and multiplying it by k round differently), and none.
func fuzzTimings() []arch.Timing {
	siswap, cx := arch.DefaultTiming(), arch.DefaultTiming()
	siswap["siswap"] = 0.3
	cx["cx"] = 0.7
	return []arch.Timing{arch.DefaultTiming(), siswap, cx, nil}
}

// handBuiltCircuit is a random circuit over the op shapes the routers
// never emit but the counting rules must still price like the built
// translation: identity-class 2Q gates (basis count 0), three-qubit ops
// (not 2Q, so weightless, yet they synchronize their qubits), swaps,
// single-qubit gates and canonical gates of every basis count.
func handBuiltCircuit(seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(6)
	c := circuit.New(n)
	for i := 0; i < 8+rng.Intn(40); i++ {
		q := rng.Perm(n)
		switch rng.Intn(6) {
		case 0:
			c.H(q[0])
		case 1:
			c.Append(circuit.Op{Name: "can", Qubits: q[:2], Params: []float64{0, 0, 0}})
		case 2:
			// Built as a literal: Append takes only 1Q and 2Q ops.
			c.Ops = append(c.Ops, circuit.Op{Name: "ccx", Qubits: q[:3]})
		case 3:
			c.Swap(q[0], q[1])
		case 4:
			c.CX(q[0], q[1])
		default:
			c.Append(circuit.Op{Name: "can", Qubits: q[:2], Params: []float64{
				float64(rng.Intn(3)) * math.Pi / 8, float64(rng.Intn(2)) * math.Pi / 8, 0}})
		}
	}
	return c
}

// checkCountsMatchBuilt fails unless countBasis agrees with the circuit
// TranslateToBasis builds, read by CountTwoQubit, Critical2Q and
// PulseDurationTable — the pulse duration to the bit.
func checkCountsMatchBuilt(t *testing.T, c *circuit.Circuit, b weyl.Basis, durations arch.Timing) {
	t.Helper()
	got, err := countBasis(c, b, durations)
	if err != nil {
		t.Fatal(err)
	}
	built, err := TranslateToBasis(c, b)
	if err != nil {
		t.Fatal(err)
	}
	want := BasisCounts{
		Total2Q:       built.CountTwoQubit(),
		Critical2Q:    Critical2Q(built),
		PulseDuration: PulseDurationTable(built, durations),
	}
	if got.Total2Q != want.Total2Q || got.Critical2Q != want.Critical2Q ||
		math.Float64bits(got.PulseDuration) != math.Float64bits(want.PulseDuration) {
		t.Fatalf("basis %v, timing %v: counted %+v, built %+v", b, durations, got, want)
	}
}

// FuzzCountedTranslationMatchesBuilt is the differential check on
// TranslatePass's counting walk: for a routed circuit on any small registry
// machine (any workload, width and seed) or a hand-built circuit, under
// every basis and timing table, the counts equal those read from the
// circuit TranslateToBasis builds.
func FuzzCountedTranslationMatchesBuilt(f *testing.F) {
	machines := smallMachines(f)
	names := workloads.Names()
	timings := fuzzTimings()
	f.Fuzz(func(t *testing.T, mi, wi, width, bi, ti uint8, seed int64, handBuilt bool) {
		b := allBases[int(bi)%len(allBases)]
		durations := timings[int(ti)%len(timings)]
		if handBuilt {
			checkCountsMatchBuilt(t, handBuiltCircuit(seed), b, durations)
			return
		}
		g := machines[int(mi)%len(machines)]
		name := names[int(wi)%len(names)]
		k := 2 + int(width)%(g.N()-1)
		c, err := workloads.Generate(name, k, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip(err) // the workload has no instance at this width
		}
		layout, err := DenseLayout(g, c)
		if err != nil {
			t.Skip(err)
		}
		routed, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(seed)), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCountsMatchBuilt(t, routed.Circuit, b, durations)
	})
}

// TestCountedTranslationHandBuilt runs the counting rules' edge cases on
// fixed circuits under every basis and timing table: a basis-count-0 gate
// between busy qubits must not synchronize them, and a three-qubit op must.
func TestCountedTranslationHandBuilt(t *testing.T) {
	c := circuit.New(3)
	c.CX(0, 1)
	c.CX(0, 1)
	c.Append(circuit.Op{Name: "can", Qubits: []int{1, 2}, Params: []float64{0, 0, 0}})
	c.CX(2, 0)
	c.Ops = append(c.Ops, circuit.Op{Name: "ccx", Qubits: []int{0, 1, 2}})
	c.Swap(1, 2)
	for _, b := range allBases {
		for _, tm := range fuzzTimings() {
			checkCountsMatchBuilt(t, c, b, tm)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		checkCountsMatchBuilt(t, handBuiltCircuit(seed), allBases[seed%4], fuzzTimings()[seed/4%4])
	}
}
