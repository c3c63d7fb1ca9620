// noise_fidelity turns the paper's §3.1 argument into a simulation: the
// same GHZ workload is transpiled onto Heavy-Hex+CNOT and the SNAIL
// tree+√iSWAP, then Monte-Carlo Pauli noise estimates the output-state
// fidelity in the two regimes the paper distinguishes — control error
// (charged per gate, so total 2Q count matters) and decoherence (charged
// per pulse length, so duration matters). The co-designed machine wins
// both.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/noise"
)

func main() {
	const width = 8
	const shots = 400
	c := repro.GHZ(width)

	type result struct {
		name             string
		total2Q          int
		duration         float64
		fControl, fDecoh float64
	}
	var rows []result
	for _, m := range []repro.Machine{repro.HeavyHex20CX(), repro.Tree20SqrtISwap()} {
		tr, err := m.TranspileContext(context.Background(), c, repro.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		control := noise.Model{GateError: 0.005, Timing: m.GateDurations()}
		decoh := noise.Model{DecoherenceRate: 0.005, Timing: m.GateDurations()}
		fc, err := noise.MonteCarloFidelity(tr.Translated, control, shots, rand.New(rand.NewSource(1)))
		if err != nil {
			log.Fatal(err)
		}
		fd, err := noise.MonteCarloFidelity(tr.Translated, decoh, shots, rand.New(rand.NewSource(2)))
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, result{m.Name, tr.Metrics.Total2Q, tr.Metrics.PulseDuration, fc, fd})
	}
	fmt.Printf("GHZ(%d), %d Monte-Carlo shots; gate error 0.5%%, decoherence 0.5%%/pulse\n\n", width, shots)
	fmt.Printf("%-22s %8s %9s %14s %14s\n", "machine", "total2Q", "duration", "F(control)", "F(decoherence)")
	for _, r := range rows {
		fmt.Printf("%-22s %8d %9.1f %14.3f %14.3f\n", r.name, r.total2Q, r.duration, r.fControl, r.fDecoh)
	}
	fmt.Println("\nFewer gates help in the control regime; shorter pulses help in the")
	fmt.Println("decoherence regime — the SNAIL machine wins both (paper §3.1, Fig. 13).")
}
