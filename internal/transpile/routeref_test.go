package transpile

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// refStochasticSwap is the reference StochasticSwap search the router must
// reproduce: every trial perturbs the whole cost matrix eagerly, drawing
// every pair's counter-based gaussian (eagerPerturb), rescans every edge
// at every step, and runs to the full depth limit, with no bound from
// earlier trials. It shares the router's emission and layout
// bookkeeping, which the search does not touch.
func refStochasticSwap(g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, trials int, flat []float64) (*RouteResult, error) {
	r := newRouter(g, initial.Copy(), rng, trials, flat)
	for _, layer := range c.Layers() {
		var twoQ []circuit.Op
		var pairs [][2]int
		for _, idx := range layer {
			op := c.Ops[idx]
			if op.Is2Q() {
				twoQ = append(twoQ, op)
				pairs = append(pairs, [2]int{op.Qubits[0], op.Qubits[1]})
			} else {
				r.emit(op)
			}
		}
		if len(pairs) == 0 {
			continue
		}
		if seq := refFindSwaps(r, pairs); seq != nil {
			r.applySwaps(seq)
			for _, op := range twoQ {
				r.emit(op)
			}
			continue
		}
		for i, op := range twoQ {
			single := [][2]int{pairs[i]}
			for !r.allAdjacent(single) {
				seq := refFindSwaps(r, single)
				if seq == nil {
					seq = r.greedyStep(pairs[i])
				}
				if len(seq) == 0 {
					return nil, fmt.Errorf("reference routing stuck on gate %v", op)
				}
				r.applySwaps(seq)
			}
			r.emit(op)
		}
	}
	return &RouteResult{Circuit: r.out, SwapCount: r.swaps, FinalLayout: r.layout}, nil
}

// refFindSwaps runs every trial to the full limit and keeps the shortest
// successful sequence, ties to the lowest trial index.
func refFindSwaps(r *router, pairs [][2]int) [][2]int {
	if r.allAdjacent(pairs) {
		return [][2]int{}
	}
	n := r.g.N()
	limit := 2*n + 4*len(pairs)
	seeds := make([]int64, r.trials)
	for t := range seeds {
		seeds[t] = r.rng.Int63()
	}
	var best [][2]int
	for _, seed := range seeds {
		d := eagerPerturb(r.cost, n, uint64(seed))
		if seq, ok := refTrial(r, func(x, y int) float64 { return d[x*n+y] }, pairs, limit); ok && (best == nil || len(seq) < len(best)) {
			best = seq
		}
	}
	return best
}

// refTrial is one greedy trial under the perturbed cost d(x, y): at each
// step it prices every edge that moves a pair and applies the first edge
// with the lowest delta below −1e-12.
func refTrial(r *router, d func(x, y int) float64, pairs [][2]int, limit int) ([][2]int, bool) {
	n := r.g.N()
	pos := make([][2]int, len(pairs))
	pairsAt := make([][]int, n)
	notAdj := 0
	for i, p := range pairs {
		pos[i] = [2]int{r.layout[p[0]], r.layout[p[1]]}
		pairsAt[pos[i][0]] = append(pairsAt[pos[i][0]], i)
		pairsAt[pos[i][1]] = append(pairsAt[pos[i][1]], i)
		if !r.g.HasEdge(pos[i][0], pos[i][1]) {
			notAdj++
		}
	}
	seq := [][2]int{}
	for step := 0; step < limit && notAdj > 0; step++ {
		bestDelta, bestEdge := -1e-12, [2]int{-1, -1}
		for _, e := range r.g.Edges() {
			a, b := e[0], e[1]
			moved := map[int]bool{}
			delta := 0.0
			for _, i := range append(append([]int(nil), pairsAt[a]...), pairsAt[b]...) {
				if moved[i] {
					continue
				}
				moved[i] = true
				p := pos[i]
				delta += d(swapped(p[0], a, b), swapped(p[1], a, b)) - d(p[0], p[1])
			}
			if len(moved) > 0 && delta < bestDelta {
				bestDelta, bestEdge = delta, e
			}
		}
		if bestEdge[0] < 0 {
			break
		}
		a, b := bestEdge[0], bestEdge[1]
		for v := range pairsAt {
			pairsAt[v] = pairsAt[v][:0]
		}
		notAdj = 0
		for i := range pos {
			pos[i] = [2]int{swapped(pos[i][0], a, b), swapped(pos[i][1], a, b)}
			pairsAt[pos[i][0]] = append(pairsAt[pos[i][0]], i)
			pairsAt[pos[i][1]] = append(pairsAt[pos[i][1]], i)
			if !r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj++
			}
		}
		seq = append(seq, bestEdge)
	}
	return seq, notAdj == 0
}

// smallMachines are the registry families' smoke-spec machines, the small
// graphs the differential fuzz target routes on.
func smallMachines(t testing.TB) []*topology.Graph {
	var gs []*topology.Graph
	for _, f := range arch.Families() {
		a, err := arch.Parse(f.Smoke)
		if err != nil {
			t.Fatal(err)
		}
		g, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// FuzzStochasticSwapMatchesReference is the differential check on the
// router's search: on any small registry machine, workload, width, seed,
// trial count and cost (the uniform hop matrix, or a pressure profile
// from a pilot routing), StochasticSwapCostCtx must return exactly the
// reference search's RouteResult — the same ops, swap count and final
// layout. The reference draws every pair's gaussian up front, so the
// on-demand draws and their generation stamps are checked here too.
func FuzzStochasticSwapMatchesReference(f *testing.F) {
	machines := smallMachines(f)
	names := workloads.Names()
	f.Fuzz(func(t *testing.T, mi, wi, width uint8, seed int64, trials uint8, profiled bool) {
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
		nt := 1 + int(trials)%8
		flat := g.FlatDistances()
		var cost [][]float64
		if profiled {
			pilot, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(seed)), nt, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ProfileRoutedCircuit(g, pilot.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			if cost, err = g.WeightedDistances(p.Weights(DefaultPressureAlpha)); err != nil {
				t.Fatal(err)
			}
			if flat, err = flattenCost(g, cost); err != nil {
				t.Fatal(err)
			}
		}
		got, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(seed+1)), nt, cost)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refStochasticSwap(g, c, layout, rand.New(rand.NewSource(seed+1)), nt, flat)
		if err != nil {
			t.Fatal(err)
		}
		if got.SwapCount != want.SwapCount || !reflect.DeepEqual(got.FinalLayout, want.FinalLayout) ||
			!reflect.DeepEqual(got.Circuit.Ops, want.Circuit.Ops) {
			t.Fatalf("%s %s k=%d seed=%d trials=%d profiled=%v: router %d swaps, layout %v; reference %d swaps, layout %v",
				g.Name, name, k, seed, nt, profiled, got.SwapCount, got.FinalLayout, want.SwapCount, want.FinalLayout)
		}
	})
}
