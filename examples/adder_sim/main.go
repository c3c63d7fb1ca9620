// adder_sim demonstrates that the transpilation pipeline preserves the
// semantics of a classical-reversible workload: the CDKM ripple-carry adder
// is simulated on concrete inputs before and after placement + routing +
// exact CX translation onto the Corral, and the sums must agree.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

const m = 3 // 3-bit operands → 8 qubits

// encode builds |cin, a, b, 0⟩ as a basis index (qubit 0 = MSB).
func encode(n, cin, a, b int) int {
	idx := 0
	set := func(q int) { idx |= 1 << (n - 1 - q) }
	if cin != 0 {
		set(0)
	}
	for i := 0; i < m; i++ {
		if a&(1<<i) != 0 {
			set(1 + i)
		}
		if b&(1<<i) != 0 {
			set(1 + m + i)
		}
	}
	return idx
}

func main() {
	ctx := context.Background()
	adder := repro.Adder(m)
	fmt.Printf("CDKM adder: %d qubits, %d CX after Toffoli expansion\n",
		adder.N, adder.CountByName("cx"))

	// Transpile onto the Corral and translate to an exact CX circuit.
	g := repro.Corral11()
	layout, err := repro.DenseLayout(g, adder)
	if err != nil {
		log.Fatal(err)
	}
	routed, err := repro.StochasticSwap(ctx, g, adder, layout, rand.New(rand.NewSource(1)), 10, nil)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := repro.TranslateExactCX(routed.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on %s: %d routing swaps, %d physical CX\n\n",
		g.Name, routed.SwapCount, exact.CountByName("cx"))

	for _, tc := range [][3]int{{0, 5, 2}, {1, 7, 7}, {0, 3, 6}} {
		cin, a, b := tc[0], tc[1], tc[2]
		// Logical run.
		st, err := repro.NewBasisState(adder.N, encode(adder.N, cin, a, b))
		if err != nil {
			log.Fatal(err)
		}
		if err := st.RunCtx(ctx, adder); err != nil {
			log.Fatal(err)
		}
		logical, _ := st.DominantBasisState()

		// Physical run: prepare the same input on the mapped qubits.
		phys, err := repro.NewState(g.N())
		if err != nil {
			log.Fatal(err)
		}
		in := encode(adder.N, cin, a, b)
		pidx := 0
		for q := 0; q < adder.N; q++ {
			if (in>>(adder.N-1-q))&1 == 1 {
				pidx |= 1 << (g.N() - 1 - layout[q])
			}
		}
		phys.Amp[0] = 0
		phys.Amp[pidx] = 1
		if err := phys.RunCtx(ctx, exact); err != nil {
			log.Fatal(err)
		}
		physIdx, p := phys.DominantBasisState()

		// Map the physical result back through the final layout.
		back := 0
		for q := 0; q < adder.N; q++ {
			bit := (physIdx >> (g.N() - 1 - routed.FinalLayout[q])) & 1
			back |= bit << (adder.N - 1 - q)
		}
		match := back == logical
		sum := a + b + cin
		fmt.Printf("%d + %d + %d = %d (mod %d), carry %d: logical==physical %v (p=%.3f)\n",
			a, b, cin, sum%(1<<m), 1<<m, sum>>m, match, p)
		if !match {
			log.Fatal("semantic mismatch between logical and physical adder")
		}
	}
}
