// Quickstart: build a circuit, evaluate it on two co-designed machines, and
// inspect the Weyl-chamber machinery — the minimal tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// A 12-qubit GHZ preparation (H + CNOT chain).
	c := repro.GHZ(12)

	// Compare IBM-style Heavy-Hex+CNOT against the SNAIL tree+√iSWAP.
	for _, machine := range []repro.Machine{
		repro.HeavyHex20CX(),
		repro.Tree20SqrtISwap(),
	} {
		met, err := machine.EvaluateContext(context.Background(), c, repro.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s swaps=%-3d total2Q=%-4d critical2Q=%-4d pulse=%.1f\n",
			machine.Name, met.TotalSwaps, met.Total2Q, met.Critical2Q, met.PulseDuration)
	}

	// Weyl coordinates classify any two-qubit unitary...
	u := repro.QuantumVolume(2, rand.New(rand.NewSource(7))).Ops[0].U
	coord, err := repro.WeylCoordinates(u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHaar-random SU(4) class: %v\n", coord)
	fmt.Printf("  needs %d CNOTs / %d sqrtISWAPs / %d SYCs\n",
		repro.BasisCX.NumGates(coord),
		repro.BasisSqrtISwap.NumGates(coord),
		repro.BasisSYC.NumGates(coord))

	// ... and SynthesizeCX produces an exact minimal-CNOT circuit for it.
	syn, err := repro.SynthesizeCX(u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  exact synthesis uses %d CX gates; reconstruction matches: %v\n",
		syn.NumCX, syn.Unitary().EqualUpToPhase(u, 1e-6))
}
