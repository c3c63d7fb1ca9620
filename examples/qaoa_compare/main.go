// qaoa_compare runs the paper's most routing-hostile workload — the
// SuperMarQ vanilla-QAOA proxy on the complete Sherrington-Kirkpatrick
// interaction graph — across all six 16-20 qubit co-designed machines
// (Fig. 13's comparison set) and prints the four metrics the paper reports.
//
// QAOA's all-to-all couplings are exactly the workload the SNAIL topologies
// were designed for: rich local cliques (Corral) and low diameter (Tree)
// minimize SWAP insertion, and the √iSWAP basis halves the pulse length.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	const width = 14
	c := repro.QAOAVanilla(width, rand.New(rand.NewSource(2022)))
	fmt.Printf("QAOA-Vanilla (SK model), %d qubits, %d ZZ interactions\n\n",
		width, c.CountByName("rzz"))
	fmt.Printf("%-24s %10s %10s %10s %12s\n", "machine", "swaps", "total2Q", "crit2Q", "pulseDur")
	for _, m := range repro.Machines16() {
		met, err := m.EvaluateContext(context.Background(), c, repro.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %10d %10d %10d %12.1f\n",
			m.Name, met.TotalSwaps, met.Total2Q, met.Critical2Q, met.PulseDuration)
	}
	fmt.Println("\nLower is better everywhere; the Corral+sqrtISWAP rows show the")
	fmt.Println("co-design advantage the paper reports in Fig. 13.")
}
