// ghz_router walks the full hardware story of the paper's demonstrated
// system (Fig. 5): a GHZ state is transpiled onto the 20-qubit SNAIL tree,
// translated to an exact gate-level circuit, simulated to verify the
// physical circuit still produces a GHZ state, scheduled on the modular
// hardware under both parallelism assumptions, and given a valid parametric
// frequency allocation.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const n = 10
	c := repro.GHZ(n)
	machine := repro.Tree20SqrtISwap()

	tr, err := machine.TranspileContext(context.Background(), c, repro.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GHZ(%d) on %s: %d swaps, %d sqrtISWAP pulses, duration %.1f\n",
		n, machine.Name, tr.Metrics.TotalSwaps, tr.Metrics.Total2Q, tr.Metrics.PulseDuration)

	// Semantic check: exact-translate the routed circuit to the CX basis and
	// simulate. A GHZ state puts all weight on two physical basis states.
	exact, err := repro.TranslateExactCX(tr.Routed)
	if err != nil {
		log.Fatal(err)
	}
	st, err := repro.RunCircuit(context.Background(), exact)
	if err != nil {
		log.Fatal(err)
	}
	idx, p := st.DominantBasisState()
	fmt.Printf("physical circuit: dominant basis state %020b with p=%.3f (want 0.5)\n", idx, p)

	// Hardware: the tree is four 5-element SNAIL modules plus a router.
	hw, err := repro.TreeHardware()
	if err != nil {
		log.Fatal(err)
	}
	dur := map[string]float64{"siswap": 0.5, "swap": 1.5, "cx": 1.0, "su4": 1.0}
	par, err := hw.Schedule(tr.Routed, dur, false)
	if err != nil {
		log.Fatal(err)
	}
	ser, err := hw.Schedule(tr.Routed, dur, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule makespan: %.1f with SNAIL neighborhood parallelism, %.1f serialized\n", par, ser)

	// Parametric addressing: every coupling needs a unique pump frequency.
	freqs, err := hw.AllocateFrequencies(4.0, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	if err := hw.VerifyFrequencies(freqs, 1e-9); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frequency allocation: %d qubits, all SNAIL-scope difference frequencies unique\n", len(freqs))
}
