// Package transpile implements the paper's transpilation flow (Fig. 10):
// initial placement (DenseLayout), SWAP routing (StochasticSwap, with a
// SABRE-style router for ablation), and KAK-driven basis translation, plus
// the four-dataset metrics collection the paper reports (total and
// critical-path SWAPs before translation; total 2Q gates and pulse duration
// after).
package transpile

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// Layout maps virtual circuit qubits to physical graph vertices.
type Layout []int

// TrivialLayout maps virtual qubit i to physical vertex i.
func TrivialLayout(k int) Layout {
	l := make(Layout, k)
	for i := range l {
		l[i] = i
	}
	return l
}

// Copy returns an independent copy.
func (l Layout) Copy() Layout {
	out := make(Layout, len(l))
	copy(out, l)
	return out
}

// InverseInto fills inv (fully — every entry is overwritten) with the
// physical→virtual map, -1 for unused vertices, and returns it.
func (l Layout) InverseInto(inv []int) []int {
	for i := range inv {
		inv[i] = -1
	}
	for v, p := range l {
		inv[p] = v
	}
	return inv
}

// Validate checks the layout is injective and within the graph.
func (l Layout) Validate(g *topology.Graph) error {
	seen := make([]bool, g.N())
	for v, p := range l {
		if p < 0 || p >= g.N() {
			return fmt.Errorf("transpile: layout maps q%d to invalid vertex %d", v, p)
		}
		if seen[p] {
			return fmt.Errorf("transpile: layout maps two qubits to vertex %d", p)
		}
		seen[p] = true
	}
	return nil
}

// checkGatePairsReachable fails when any two-qubit gate's endpoints map to
// disconnected components of g under the layout. Routing moves qubits along
// edges, so such a pair (BFS distance -1) can never become adjacent;
// without this check the -1 sentinel leaks into routing cost matrices,
// where it reads as the *cheapest* possible distance. Only interacting
// pairs are checked — idle qubits parked in another component are harmless
// and were always routable.
func checkGatePairsReachable(g *topology.Graph, c *circuit.Circuit, l Layout) error {
	d := g.Distances()
	for _, op := range c.Ops {
		if !op.Is2Q() {
			continue
		}
		a, b := l[op.Qubits[0]], l[op.Qubits[1]]
		if d[a][b] < 0 {
			return fmt.Errorf(
				"transpile: gate %s: physical qubits %d and %d lie in disconnected components of %s: no SWAP path can join them",
				op, a, b, g.Name)
		}
	}
	return nil
}

// DenseLayout chooses the densest connected induced subgraph of size c.N
// (greedy growth from every seed, keeping the subset with the most induced
// couplings) and assigns the circuit's most-interacting qubits to the
// best-connected vertices — a faithful reimplementation of the spirit of
// Qiskit's DenseLayout, which the paper uses for initial mapping (§5).
func DenseLayout(g *topology.Graph, c *circuit.Circuit) (Layout, error) {
	return DenseLayoutCost(g, c, nil)
}

// DenseLayoutCost is DenseLayout with an explicit cost matrix replacing hop
// distances in the subset-growth tie-break, so a profile-guided caller can
// bias placement away from regions reached only through congested links. A
// nil cost means uniform hop distances and reproduces DenseLayout exactly;
// density (induced coupling count) remains the primary objective either way.
func DenseLayoutCost(g *topology.Graph, c *circuit.Circuit, cost [][]float64) (Layout, error) {
	k := c.N
	if k > g.N() {
		return nil, fmt.Errorf("transpile: circuit needs %d qubits, machine has %d", k, g.N())
	}
	subset := g.DensestSubset(k, cost)
	if subset == nil {
		// Only possible for k < g.N() when no connected region of k
		// vertices exists. The old fallback (first k vertices) handed
		// routing a layout spanning disconnected components, whose -1 BFS
		// distances then read as the *cheapest* cost; fail here with the
		// real cause instead. (Full-width circuits necessarily use every
		// vertex; whether each gate is routable is then decided per gate
		// pair by the routers' reachability check.)
		return nil, fmt.Errorf(
			"transpile: topology %s is disconnected: no connected %d-qubit region for the circuit",
			g.Name, k)
	}
	// Order physical vertices by induced degree (descending, stable).
	inSubset := make([]bool, g.N())
	for _, v := range subset {
		inSubset[v] = true
	}
	inducedDeg := make([]int, g.N())
	for _, v := range subset {
		for _, w := range g.Neighbors(v) {
			if inSubset[w] {
				inducedDeg[v]++
			}
		}
	}
	phys := append([]int(nil), subset...)
	insertionSortInts(phys, func(a, b int) bool {
		if da, db := inducedDeg[a], inducedDeg[b]; da != db {
			return da > db
		}
		return a < b
	})
	// Order virtual qubits by interaction weight (number of 2Q ops touching
	// them), descending.
	weight := make([]int, k)
	for _, op := range c.Ops {
		if op.Is2Q() {
			weight[op.Qubits[0]]++
			weight[op.Qubits[1]]++
		}
	}
	virt := make([]int, k)
	for i := range virt {
		virt[i] = i
	}
	insertionSortInts(virt, func(a, b int) bool {
		if weight[a] != weight[b] {
			return weight[a] > weight[b]
		}
		return a < b
	})
	layout := make(Layout, k)
	for rank, v := range virt {
		layout[v] = phys[rank]
	}
	if err := layout.Validate(g); err != nil {
		return nil, err
	}
	return layout, nil
}

// insertionSortInts sorts distinct ints in place with the given strict
// order. The slices it replaces sort.SliceStable on hold distinct values
// under a total order (an a < b tie-break), where every correct sort
// produces the same permutation — it exists only to drop SliceStable's
// reflection allocations from the per-cell layout path.
func insertionSortInts(s []int, less func(a, b int) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
