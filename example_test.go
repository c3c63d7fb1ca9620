package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleWeylCoordinates classifies standard gates into Weyl-chamber
// classes — the foundation of the paper's basis-gate counting.
func ExampleWeylCoordinates() {
	coordCX, _ := repro.WeylCoordinates(mustUnitary("cx"))
	coordSwap, _ := repro.WeylCoordinates(mustUnitary("swap"))
	fmt.Println("CX:  ", coordCX)
	fmt.Println("SWAP:", coordSwap)
	// Output:
	// CX:   (0.250000π, 0.000000π, 0.000000π)
	// SWAP: (0.250000π, 0.250000π, 0.250000π)
}

// ExampleBasis_NumGates shows the analytic decomposition counts behind the
// paper's Observation 1.
func ExampleBasis_NumGates() {
	swap, _ := repro.WeylCoordinates(mustUnitary("swap"))
	fmt.Println("SWAP as CNOTs:     ", repro.BasisCX.NumGates(swap))
	fmt.Println("SWAP as sqrtISWAPs:", repro.BasisSqrtISwap.NumGates(swap))
	fmt.Println("SWAP as SYCs:      ", repro.BasisSYC.NumGates(swap))
	// Output:
	// SWAP as CNOTs:      3
	// SWAP as sqrtISWAPs: 3
	// SWAP as SYCs:       4
}

// ExampleSynthesizeCX produces an exact minimal-CNOT circuit for iSWAP.
func ExampleSynthesizeCX() {
	syn, _ := repro.SynthesizeCX(mustUnitary("iswap"))
	fmt.Println("CNOTs used:", syn.NumCX)
	fmt.Println("exact:     ", syn.Unitary().EqualUpToPhase(mustUnitary("iswap"), 1e-8))
	// Output:
	// CNOTs used: 2
	// exact:      true
}

// ExampleGHZ runs a workload through the simulator.
func ExampleGHZ() {
	st, _ := repro.RunCircuit(context.Background(), repro.GHZ(4))
	fmt.Printf("P(|0000>) = %.2f\n", st.Probability(0))
	fmt.Printf("P(|1111>) = %.2f\n", st.Probability(15))
	// Output:
	// P(|0000>) = 0.50
	// P(|1111>) = 0.50
}

// ExampleGraph_Stats reproduces a Table 1 row.
func ExampleGraph_Stats() {
	s := repro.Corral12().Stats()
	fmt.Printf("%s: %d qubits, diameter %d, avgD %.2f, avgC %.1f\n",
		s.Name, s.Qubits, s.Diameter, s.AvgDist, s.AvgConn)
	// Output:
	// Corral(1,2): 16 qubits, diameter 2, avgD 1.50, avgC 6.0
}

// mustUnitary resolves a named two-qubit gate via the circuit IR.
func mustUnitary(name string) *repro.Matrix {
	c := repro.NewCircuit(2)
	switch name {
	case "cx":
		c.CX(0, 1)
	case "swap":
		c.Swap(0, 1)
	case "iswap":
		c.ISwap(0, 1)
	}
	u, err := repro.OpUnitary(c.Ops[0])
	if err != nil {
		panic(err)
	}
	return u
}
