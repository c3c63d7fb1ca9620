package transpile

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// SabreSwapCostCtx routes with the SABRE lookahead heuristic (Li, Ding,
// Xie, ASPLOS'19): maintain the front layer of unsatisfied 2Q gates; when
// no gate is executable, apply the swap minimizing the summed front-layer
// distance plus a discounted extended-set (lookahead) term. Provided as the
// ablation comparison router for the StochasticSwap results (see
// bench_test.go).
//
// cost replaces the hop distances in the front-layer and lookahead scores,
// so a profile-guided caller can price congested edges above idle ones
// (see EdgeProfile); a nil cost means uniform hop distances. The step
// budget and executability checks still come from the coupling graph
// itself. ctx is polled once per execute-or-swap iteration of the main
// loop, so a deadline-bound cell stops within one stall's worth of scoring
// rather than routing the whole circuit. Cancellation never alters output.
func SabreSwapCostCtx(ctx context.Context, g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, cost [][]float64) (*RouteResult, error) {
	if len(initial) != c.N {
		return nil, fmt.Errorf("transpile: layout covers %d qubits, circuit has %d", len(initial), c.N)
	}
	if err := initial.Validate(g); err != nil {
		return nil, err
	}
	if err := checkGatePairsReachable(g, c, initial); err != nil {
		return nil, err
	}
	const (
		extendedSize   = 20  // lookahead window (2Q gates)
		extendedWeight = 0.5 // discount on the lookahead term
	)
	dist := g.Distances()
	fcost := g.FlatDistances()
	if cost != nil {
		var err error
		if fcost, err = flattenCost(g, cost); err != nil {
			return nil, err
		}
	}
	nv := g.N()
	costAt := func(a, b int) float64 { return fcost[a*nv+b] }
	layout := initial.Copy()
	out := circuit.New(g.N())
	swaps := 0
	var arena intArena // backing storage for emitted ops' qubit slices

	// Dependency bookkeeping over the original op list.
	n := len(c.Ops)
	pred := make([]int, n) // unfinished predecessor count
	succ := make([][]int, n)
	lastOn := make([]int, c.N)
	for i := range lastOn {
		lastOn[i] = -1
	}
	for i, op := range c.Ops {
		for _, q := range op.Qubits {
			if j := lastOn[q]; j >= 0 {
				succ[j] = append(succ[j], i)
				pred[i]++
			}
			lastOn[q] = i
		}
	}
	done := make([]bool, n)
	var front []int
	for i := range c.Ops {
		if pred[i] == 0 {
			front = append(front, i)
		}
	}
	emit := func(idx int) []int {
		op := c.Ops[idx]
		phys := arena.take(len(op.Qubits))
		for i, q := range op.Qubits {
			phys[i] = layout[q]
		}
		out.Append(circuit.Op{Name: op.Name, Qubits: phys, Params: op.Params, U: op.U})
		done[idx] = true
		var unlocked []int
		for _, s := range succ[idx] {
			pred[s]--
			if pred[s] == 0 {
				unlocked = append(unlocked, s)
			}
		}
		return unlocked
	}
	executable := func(idx int) bool {
		op := c.Ops[idx]
		if !op.Is2Q() {
			return true
		}
		return g.HasEdge(layout[op.Qubits[0]], layout[op.Qubits[1]])
	}
	// extendedSet walks successors of the front to build the lookahead set.
	// Its traversal buffers and visited marks are reused across stalls
	// (epoch-stamped, so no clearing); the walk order and resulting set are
	// unchanged.
	var extBuf [][2]int
	var queue []int
	seenOps := make([]int, n)
	seenEpoch := 0
	extendedSet := func() [][2]int {
		extBuf = extBuf[:0]
		queue = append(queue[:0], front...)
		seenEpoch++
		for head := 0; head < len(queue) && len(extBuf) < extendedSize; head++ {
			for _, s := range succ[queue[head]] {
				if seenOps[s] == seenEpoch || done[s] {
					continue
				}
				seenOps[s] = seenEpoch
				if op := c.Ops[s]; op.Is2Q() {
					extBuf = append(extBuf, [2]int{op.Qubits[0], op.Qubits[1]})
					if len(extBuf) >= extendedSize {
						break
					}
				}
				queue = append(queue, s)
			}
		}
		return extBuf
	}

	// Per-qubit decay discourages oscillating swap sequences (as in the
	// SABRE paper); it resets whenever a gate executes.
	decay := make([]float64, g.N())
	resetDecay := func() {
		for i := range decay {
			decay[i] = 1
		}
	}
	resetDecay()

	// Stall-branch scratch, reused across iterations: the physical qubits
	// of the front layer (epoch-stamped marks) and the physical→virtual
	// inverse of the layout.
	frontMark := make([]int, g.N())
	frontEpoch := 0
	inv := make([]int, g.N())
	guard := 0
	// Budget on the largest finite pairwise distance, not g.Diameter():
	// the graph-wide diameter is -1 on a disconnected graph even when
	// every gate routes inside one component (where routing is perfectly
	// well defined), which would zero the budget and fail every circuit.
	// The max finite distance bounds every component's diameter, and the
	// budget only needs an upper bound.
	diam := 0
	for _, row := range dist {
		for _, d := range row {
			if d > diam {
				diam = d
			}
		}
	}
	maxSteps := 10 * (len(c.Ops) + 1) * (diam + 1)
	for len(front) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if guard++; guard > maxSteps {
			return nil, fmt.Errorf("transpile: SABRE exceeded step budget")
		}
		// Execute everything executable.
		progress := false
		var stalled []int
		for len(front) > 0 {
			idx := front[0]
			front = front[1:]
			if executable(idx) {
				front = append(front, emit(idx)...)
				progress = true
			} else {
				stalled = append(stalled, idx)
			}
		}
		front = stalled
		if progress || len(front) == 0 {
			resetDecay()
			continue
		}
		// All front gates stalled: choose the best swap among edges touching
		// front-layer qubits.
		ext := extendedSet()
		bestScore := 0.0
		var best [][2]int
		frontEpoch++
		for _, idx := range front {
			for _, q := range c.Ops[idx].Qubits {
				frontMark[layout[q]] = frontEpoch
			}
		}
		score := func() float64 {
			s := 0.0
			for _, idx := range front {
				op := c.Ops[idx]
				s += costAt(layout[op.Qubits[0]], layout[op.Qubits[1]])
			}
			s /= float64(len(front))
			if len(ext) > 0 {
				e := 0.0
				for _, p := range ext {
					e += costAt(layout[p[0]], layout[p[1]])
				}
				s += extendedWeight * e / float64(len(ext))
			}
			return s
		}
		layout.InverseInto(inv)
		for _, e := range g.Edges() {
			if frontMark[e[0]] != frontEpoch && frontMark[e[1]] != frontEpoch {
				continue
			}
			va, vb := inv[e[0]], inv[e[1]]
			// Tentative swap.
			if va >= 0 {
				layout[va] = e[1]
			}
			if vb >= 0 {
				layout[vb] = e[0]
			}
			s := score() * maxf(decay[e[0]], decay[e[1]])
			if va >= 0 {
				layout[va] = e[0]
			}
			if vb >= 0 {
				layout[vb] = e[1]
			}
			if best == nil || s < bestScore-1e-12 {
				bestScore = s
				best = [][2]int{e}
			} else if s < bestScore+1e-12 {
				best = append(best, e)
			}
		}
		if best == nil {
			return nil, fmt.Errorf("transpile: SABRE found no candidate swap")
		}
		chosen := best[rng.Intn(len(best))]
		sq := arena.take(2)
		sq[0], sq[1] = chosen[0], chosen[1]
		out.Append(circuit.Op{Name: "swap", Qubits: sq})
		swaps++
		decay[chosen[0]] += 0.001
		decay[chosen[1]] += 0.001
		va, vb := inv[chosen[0]], inv[chosen[1]]
		if va >= 0 {
			layout[va] = chosen[1]
		}
		if vb >= 0 {
			layout[vb] = chosen[0]
		}
	}
	return &RouteResult{Circuit: out, SwapCount: swaps, FinalLayout: layout}, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
