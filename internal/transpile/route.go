package transpile

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/rng"
	"repro/internal/topology"
)

// RouteResult is the outcome of SWAP routing: a physical-qubit circuit with
// SWAPs inserted (ready for basis translation), the number of inserted
// SWAPs, and the final virtual→physical layout after all permutations.
type RouteResult struct {
	Circuit     *circuit.Circuit
	SwapCount   int
	FinalLayout Layout
}

// DefaultTrials matches Qiskit StochasticSwap's default trial count.
const DefaultTrials = 20

// StochasticSwapCostCtx routes a virtual circuit onto the coupling graph
// using the randomized layer-permutation search of Qiskit's StochasticSwap
// pass, which the paper uses for routing (§5): the circuit is processed
// layer by layer; when a layer contains non-adjacent 2Q gates, several
// randomized trials greedily pick cost-reducing SWAPs under perturbed
// distance matrices, and the shortest successful SWAP sequence is applied.
// Layers no trial can solve whole are routed gate-by-gate (Qiskit's
// serial-layer fallback).
//
// Each trial's gaussians are counter-based draws keyed by its own seed,
// drawn from the caller's stream up front, so the routed circuit is a pure
// function of (graph, circuit, layout, rng seed, trials, cost). The trials
// of a layer run serially; parallelism lives one level up, across
// independent evaluation cells.
//
// cost[i][j] replaces the hop distance between physical vertices i and j
// in the randomized trials' objective, so a profile-guided caller can
// price congested edges above idle ones (see EdgeProfile). A nil cost means
// uniform hop distances — the default pipeline's baseline. The cost matrix
// only shapes the search; adjacency (when a gate can execute) and the
// greedy fallback still come from the coupling graph.
//
// ctx is polled once per circuit layer and once per serial-fallback
// routing step — the units of randomized search, where a cell's
// wall-clock actually accumulates — so a deadline-bound evaluation stops
// within one layer's worth of trials instead of routing the whole circuit.
// Cancellation never alters output: a run that completes is byte-identical
// with any ctx.
func StochasticSwapCostCtx(ctx context.Context, g *topology.Graph, c *circuit.Circuit, initial Layout, rng *rand.Rand, trials int, cost [][]float64) (*RouteResult, error) {
	if len(initial) != c.N {
		return nil, fmt.Errorf("transpile: layout covers %d qubits, circuit has %d", len(initial), c.N)
	}
	if err := initial.Validate(g); err != nil {
		return nil, err
	}
	if err := checkGatePairsReachable(g, c, initial); err != nil {
		return nil, err
	}
	if trials <= 0 {
		trials = DefaultTrials
	}
	flat := g.FlatDistances()
	if cost != nil {
		var err error
		if flat, err = flattenCost(g, cost); err != nil {
			return nil, err
		}
	}
	r := newRouter(g, initial.Copy(), rng, trials, flat)
	// The output holds every input op plus the inserted swaps. Their number
	// is unknown up front; two per two-qubit gate covers most sweep cells
	// on the 84-qubit machines, so the output rarely regrows.
	r.out.Ops = make([]circuit.Op, 0, len(c.Ops)+2*c.CountTwoQubit())
	for _, layer := range c.Layers() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var twoQ []circuit.Op
		var pairs [][2]int
		for _, idx := range layer {
			op := c.Ops[idx]
			if op.Is2Q() {
				twoQ = append(twoQ, op)
				pairs = append(pairs, [2]int{op.Qubits[0], op.Qubits[1]})
			} else {
				r.emit(op) // 1Q gates route trivially
			}
		}
		if len(pairs) == 0 {
			continue
		}
		if seq := r.findSwaps(pairs); seq != nil {
			r.applySwaps(seq)
			for _, op := range twoQ {
				r.emit(op)
			}
			continue
		}
		// Serial fallback: route and emit the layer one gate at a time.
		for i, op := range twoQ {
			single := [][2]int{pairs[i]}
			for !r.allAdjacent(single) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				seq := r.findSwaps(single)
				if seq == nil {
					seq = r.greedyStep(pairs[i])
				}
				if len(seq) == 0 {
					return nil, fmt.Errorf("transpile: routing stuck on gate %v", op)
				}
				r.applySwaps(seq)
			}
			r.emit(op)
		}
	}
	return &RouteResult{Circuit: r.out, SwapCount: r.swaps, FinalLayout: r.layout}, nil
}

// router carries the mutable routing state. dist (hops) bounds search depth
// and drives the greedy fallback; cost (flattened n×n) is the objective the
// randomized trials perturb — float64 hop distances by default, a weighted
// matrix under profile-guided routing.
//
// All per-layer and per-trial working memory lives in reusable buffers:
// sc is the one trial scratch every trial of every layer reuses, and the
// seeds/best/inv buffers plus the qubit arena amortize the remaining
// per-layer allocations, so the N-trials × L-layers inner loop stops
// re-making O(n²) state (see routerScratch).
type router struct {
	g      *topology.Graph
	dist   [][]int
	cost   []float64
	out    *circuit.Circuit
	layout Layout
	swaps  int
	rng    *rand.Rand
	trials int

	incident [][]int // indices into g.Edges() of each vertex's edges

	sc    *routerScratch // trial working state, reused by every trial
	seeds []int64        // per-trial RNG seeds, drawn up front
	best  [][2]int       // winning swap sequence, reused across layers
	inv   []int          // physical→virtual scratch for applySwaps
	arena intArena       // backing storage for emitted ops' qubit slices
}

// newRouter builds the routing state for g starting from layout (owned by
// the router from here on), with the flattened n×n cost the trials perturb.
func newRouter(g *topology.Graph, layout Layout, rng *rand.Rand, trials int, cost []float64) *router {
	n := g.N()
	incident := make([][]int, n)
	backing := make([]int, 2*g.NumEdges())
	for v := range incident {
		incident[v], backing = backing[:0:g.Degree(v)], backing[g.Degree(v):]
	}
	for i, e := range g.Edges() {
		incident[e[0]] = append(incident[e[0]], i)
		incident[e[1]] = append(incident[e[1]], i)
	}
	return &router{
		g:        g,
		dist:     g.Distances(),
		cost:     cost,
		out:      circuit.New(n),
		layout:   layout,
		rng:      rng,
		trials:   trials,
		incident: incident,
		sc:       newRouterScratch(n),
	}
}

// routerScratch is the reusable working state of one routing trial
// (trialSearch): the trial's gaussian draws, the current perturbed cost
// of each pair, the per-pair endpoints and per-vertex pair table, the
// per-edge swap deltas, and the swap sequence under construction. The
// router's trials run one after another on its single scratch, so the
// trial loop runs allocation-free after warm-up.
//
// The perturbed matrix is never built. A trial perturbs each unordered
// vertex pair by one |gaussian|, but the greedy search reads only the
// entries around the current pairs' positions — on the 84-vertex machines
// a few hundred of 3,486. So the draws are counter-based: pair ordinal k's
// |gaussian| is rng.AbsNormAt(seed, k), a pure function of the trial seed
// and k, drawn the first time the trial reads the pair. g[k] holds it
// while stamp[k] equals the trial's generation gen; prep starts a trial by
// bumping gen, which invalidates every stamp at once.
type routerScratch struct {
	seed  uint64    // trial seed the draws are keyed by
	g     []float64 // |gaussian| per pair ordinal, valid where stamp == gen
	stamp []uint32  // generation that drew each ordinal
	gen   uint32    // current trial's generation; prep runs before any read
	n     int       // vertex count
	off   []int     // off[lo] + hi is the draw ordinal of vertex pair lo < hi

	pos    [][2]int  // current physical endpoints per pair
	cur    []float64 // current perturbed cost per pair
	pairAt []int     // pair with an endpoint on each vertex, -1 for none
	active []uint64  // one bit per edge: set iff an endpoint holds a pair
	delta  []float64 // cost change of swapping each edge, valid where active
	mark   []int     // epoch stamps per edge (monotone epoch ⇒ no clearing)
	epoch  int
	seq    [][2]int // swap sequence under construction
}

// newRouterScratch sizes a trial scratch for an n-vertex coupling graph:
// one draw slot and one stamp per vertex pair.
func newRouterScratch(n int) *routerScratch {
	off := make([]int, n)
	for lo := range off {
		off[lo] = lo*n - lo*(lo+1)/2 - lo - 1
	}
	return &routerScratch{
		g:      make([]float64, n*(n-1)/2),
		stamp:  make([]uint32, n*(n-1)/2),
		n:      n,
		off:    off,
		pairAt: make([]int, n),
	}
}

// prep starts a trial keyed by seed: a new generation, so no draw of an
// earlier trial is read. When gen wraps, the stamps are cleared, so a
// stamp left from 2³² trials ago cannot match.
func (sc *routerScratch) prep(seed uint64) {
	sc.seed = seed
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
}

// at returns the perturbed cost base·(1 + 0.1|gauss|) of the distinct
// vertices x, y — symmetric, read from the upper triangle of base — and
// whether the pair's draw is made yet: it is the inlined read, and a
// caller that gets ok = false takes drawAt, which draws first.
func (sc *routerScratch) at(base []float64, x, y int) (float64, bool) {
	lo, hi := min(x, y), max(x, y)
	k := sc.off[lo] + hi
	if sc.stamp[k] != sc.gen {
		return 0, false
	}
	return base[lo*sc.n+hi] * (1 + 0.1*sc.g[k]), true
}

// drawAt is at for a pair whose draw may not be made yet: it draws the
// pair's ordinal first.
func (sc *routerScratch) drawAt(base []float64, x, y int) float64 {
	if k := sc.off[min(x, y)] + max(x, y); sc.stamp[k] != sc.gen {
		sc.g[k], sc.stamp[k] = rng.AbsNormAt(sc.seed, k), sc.gen
	}
	v, _ := sc.at(base, x, y)
	return v
}

// grow resizes a scratch slice to n, preserving capacity across calls.
// Stale contents are the caller's concern (the epoch scheme makes stale
// edge marks harmless; other users overwrite before reading).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// flattenCost validates a caller's routing cost matrix and flattens it
// row-major. The uniform baseline (a nil cost) needs no copy: callers read
// the graph's cached g.FlatDistances() instead.
func flattenCost(g *topology.Graph, cost [][]float64) ([]float64, error) {
	n := g.N()
	if len(cost) != n {
		return nil, fmt.Errorf("transpile: cost matrix is %dx?, graph has %d vertices", len(cost), n)
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, fmt.Errorf("transpile: cost row %d has %d entries, want %d", i, len(row), n)
		}
	}
	flat := make([]float64, n*n)
	for i, row := range cost {
		copy(flat[i*n:(i+1)*n], row)
	}
	return flat, nil
}

func (r *router) emit(op circuit.Op) {
	phys := r.arena.take(len(op.Qubits))
	for i, q := range op.Qubits {
		phys[i] = r.layout[q]
	}
	r.out.Append(circuit.Op{Name: op.Name, Qubits: phys, Params: op.Params, U: op.U})
}

func (r *router) applySwaps(seq [][2]int) {
	r.inv = grow(r.inv, r.g.N())
	inv := r.layout.InverseInto(r.inv)
	for _, e := range seq {
		a, b := e[0], e[1]
		q := r.arena.take(2)
		q[0], q[1] = a, b
		r.out.Append(circuit.Op{Name: "swap", Qubits: q})
		r.swaps++
		va, vb := inv[a], inv[b]
		if va >= 0 {
			r.layout[va] = b
		}
		if vb >= 0 {
			r.layout[vb] = a
		}
		inv[a], inv[b] = vb, va
	}
}

func (r *router) allAdjacent(pairs [][2]int) bool {
	for _, p := range pairs {
		if !r.g.HasEdge(r.layout[p[0]], r.layout[p[1]]) {
			return false
		}
	}
	return true
}

// greedyStep moves one endpoint of the pair a single hop along a shortest
// path toward the other endpoint.
func (r *router) greedyStep(p [2]int) [][2]int {
	a, b := r.layout[p[0]], r.layout[p[1]]
	for _, w := range r.g.Neighbors(a) {
		if r.dist[w][b] == r.dist[a][b]-1 {
			return [][2]int{{a, w}}
		}
	}
	return nil
}

// findSwaps runs randomized trials and returns the shortest SWAP sequence
// (list of physical edges, applied in order) that makes every pair adjacent,
// or nil if no trial succeeds within the depth limit. The returned slice
// aliases a router-owned buffer that stays valid until the next findSwaps
// call (callers apply it immediately). The pairs must be disjoint, as the
// gates of one circuit layer are.
//
// Every trial gets its own draw seed from the router's stream before any
// trial runs, and the winner is the minimum-length sequence with ties
// broken by lowest trial index, so the outcome depends only on the seeds.
// A trial greedily searches under a randomly perturbed view of the
// router's cost matrix (d' = d·(1 + 0.1|gauss|), symmetric per unordered
// pair — hop distances by default, pressure-weighted under profile-guided
// routing), whose draws the scratch makes as the search reads them.
//
// Trials that cannot win are cut short without changing the winner. Once
// a trial has succeeded, only a strictly shorter sequence can replace it,
// so later trials stop after bestLen−1 swaps. And no sequence is shorter
// than ⌈Σ(hops−1)/2⌉: a swap moves two qubits one hop each, and since the
// pairs are disjoint it shortens at most two pairs by one hop. A winner of
// that length ends the search.
func (r *router) findSwaps(pairs [][2]int) [][2]int {
	if r.allAdjacent(pairs) {
		return [][2]int{}
	}
	n := r.g.N()
	limit := 2*n + 4*len(pairs)
	r.seeds = grow(r.seeds, r.trials)
	for t := range r.seeds {
		r.seeds[t] = r.rng.Int63()
	}
	floor := 0
	for _, p := range pairs {
		floor += r.dist[r.layout[p[0]]][r.layout[p[1]]] - 1
	}
	floor = (floor + 1) / 2
	sc := r.sc
	bestLen := -1
	for _, seed := range r.seeds {
		sc.prep(uint64(seed))
		if !r.trialSearch(pairs, limit) {
			continue
		}
		bestLen = len(sc.seq)
		r.best = append(r.best[:0], sc.seq...)
		if bestLen <= floor {
			break
		}
		limit = bestLen - 1
	}
	if bestLen < 0 {
		return nil
	}
	return r.best
}

// trialSearch greedily applies the cost-minimizing swap until every pair is
// adjacent, a local minimum is hit, or the depth limit is reached, leaving
// the swap sequence in r.sc.seq and reporting whether every pair became
// adjacent. All working state lives in r.sc, so steady-state trials
// allocate nothing.
//
// Only active edges — those with an endpoint that holds a pair, a bit each
// in r.sc.active — are priced: an edge that moves no pair has delta 0,
// which never passes the search's strict test, so skipping it changes
// neither the winner nor the draws. Each active edge's delta — the summed
// cost change of the pairs it would move — is kept in r.sc.delta across
// steps. A swap on (a, b) moves only the pairs on a and b, so only the
// edges incident to a and b can change activity, and only those and the
// edges at the moved pairs' other endpoints can change delta; the rest
// keep their values, which equal what a full rescan would compute. The
// winner is the first set bit in Edges() order whose delta beats the
// running best by the same strict test as a rescan, so ties resolve to the
// same edge.
func (r *router) trialSearch(pairs [][2]int, limit int) bool {
	sc := r.sc
	sc.pos = grow(sc.pos, len(pairs))
	sc.cur = grow(sc.cur, len(pairs))
	pos, cur, pairAt := sc.pos, sc.cur, sc.pairAt
	for v := range pairAt {
		pairAt[v] = -1
	}
	notAdj := 0
	for i, p := range pairs {
		pa, pb := r.layout[p[0]], r.layout[p[1]]
		pos[i] = [2]int{pa, pb}
		cur[i] = sc.drawAt(r.cost, pa, pb)
		pairAt[pa], pairAt[pb] = i, i
		if !r.g.HasEdge(pa, pb) {
			notAdj++
		}
	}
	sc.seq = sc.seq[:0]
	if notAdj == 0 || limit <= 0 {
		return notAdj == 0
	}
	edges := r.g.Edges()
	sc.delta = grow(sc.delta, len(edges))
	sc.mark = grow(sc.mark, len(edges))
	sc.active = grow(sc.active, (len(edges)+63)/64)
	clear(sc.active)
	delta, active := sc.delta, sc.active
	for i := range pairs {
		for _, v := range pos[i] {
			for _, e := range r.incident[v] {
				if bit := uint64(1) << (e & 63); active[e>>6]&bit == 0 {
					active[e>>6] |= bit
					delta[e] = r.edgeDelta(e)
				}
			}
		}
	}
	if testHookTrialStep != nil {
		testHookTrialStep(r)
	}
	for step := 0; ; step++ {
		bestDelta := -1e-12
		best := -1
		for w, word := range active {
			for ; word != 0; word &= word - 1 {
				e := w<<6 | bits.TrailingZeros64(word)
				if d := delta[e]; d < bestDelta {
					bestDelta, best = d, e
				}
			}
		}
		if best < 0 {
			return false // local minimum under this perturbation
		}
		a, b := edges[best][0], edges[best][1]
		sc.seq = append(sc.seq, edges[best])
		// Apply the swap to the trial state: move the endpoints of the pairs
		// on a and b (one pair each at most, since pairs are disjoint).
		ia, ib := pairAt[a], pairAt[b]
		for k, i := range [2]int{ia, ib} {
			if i < 0 || (k == 1 && i == ia) {
				continue
			}
			if r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj++
			}
			pos[i] = [2]int{swapped(pos[i][0], a, b), swapped(pos[i][1], a, b)}
			if r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj--
			}
		}
		pairAt[a], pairAt[b] = ib, ia
		if notAdj == 0 {
			return true
		}
		if step+1 == limit {
			return false
		}
		// Price the moved pairs only now that the search goes on: a trial
		// that ends here never reads their new positions.
		for _, i := range [2]int{ia, ib} {
			if i >= 0 {
				cur[i] = sc.drawAt(r.cost, pos[i][0], pos[i][1])
			}
		}
		sc.epoch++
		r.refreshEdges(a)
		r.refreshEdges(b)
		for _, i := range [2]int{ia, ib} {
			if i >= 0 {
				r.refreshEdges(pos[i][0])
				r.refreshEdges(pos[i][1])
			}
		}
		if testHookTrialStep != nil {
			testHookTrialStep(r)
		}
	}
}

// testHookTrialStep, when set, runs after trialSearch prices its active
// edges and after every step's refresh, so a test can check the search
// state the step left behind. It is nil outside tests.
var testHookTrialStep func(r *router)

// refreshEdges brings every edge incident to v that this step has not
// refreshed yet up to date: its active bit, and its delta if it is active.
func (r *router) refreshEdges(v int) {
	sc := r.sc
	edges := r.g.Edges()
	for _, e := range r.incident[v] {
		if sc.mark[e] == sc.epoch {
			continue
		}
		sc.mark[e] = sc.epoch
		bit := uint64(1) << (e & 63)
		if sc.pairAt[edges[e][0]] < 0 && sc.pairAt[edges[e][1]] < 0 {
			sc.active[e>>6] &^= bit
			continue
		}
		sc.active[e>>6] |= bit
		sc.delta[e] = r.edgeDelta(e)
	}
}

// edgeDelta is the summed cost change of the pairs on edge e's endpoints if
// e is swapped: each pair's endpoints mapped through the swap, priced by the
// trial's perturbed cost, minus its cached current cost. An edge that moves
// no pair has delta 0, which never beats the search's strict threshold.
func (r *router) edgeDelta(e int) float64 {
	sc := r.sc
	a, b := r.g.Edges()[e][0], r.g.Edges()[e][1]
	delta := 0.0
	for k, i := range [2]int{sc.pairAt[a], sc.pairAt[b]} {
		if i < 0 || (k == 1 && i == sc.pairAt[a]) {
			continue
		}
		x, y := swapped(sc.pos[i][0], a, b), swapped(sc.pos[i][1], a, b)
		v, ok := sc.at(r.cost, x, y)
		if !ok {
			v = sc.drawAt(r.cost, x, y)
		}
		delta += v - sc.cur[i]
	}
	return delta
}

// swapped maps vertex v through the swap of a and b.
func swapped(v, a, b int) int {
	switch v {
	case a:
		return b
	case b:
		return a
	}
	return v
}
