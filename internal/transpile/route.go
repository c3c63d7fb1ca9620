package transpile

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/circuit"
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
// Each trial runs on its own RNG seeded from the caller's stream up front,
// so the routed circuit is a pure function of (graph, circuit, layout, rng
// seed, trials, cost). The trials of a layer run serially; parallelism
// lives one level up, across independent evaluation cells.
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
	flat, err := flattenCost(g, cost)
	if err != nil {
		return nil, err
	}
	r := &router{
		g:      g,
		dist:   g.Distances(),
		cost:   flat,
		out:    circuit.New(g.N()),
		layout: initial.Copy(),
		rng:    rng,
		trials: trials,
		sc:     newRouterScratch(g.N()),
	}
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

	sc    *routerScratch // trial working state, reused by every trial
	seeds []int64        // per-trial RNG seeds, drawn up front
	best  [][2]int       // winning swap sequence, reused across layers
	inv   []int          // physical→virtual scratch for applySwaps
	arena intArena       // backing storage for emitted ops' qubit slices
}

// routerScratch is the reusable working state of one routing trial
// (trialSearch): the lazily materialized perturbed cost matrix, the
// per-pair endpoint and per-vertex incidence tables, the epoch-stamped
// visited marks, and the swap sequence under construction. The router's
// trials run one after another on its single scratch, so the trial loop
// runs allocation-free after warm-up.
//
// The perturbed matrix is not computed up front. A trial draws one gaussian
// per unordered vertex pair — the stream order is fixed, so prep walks the
// whole stream once — but the greedy search typically reads only the
// entries around the current pairs' positions, a tiny fraction of the n²
// matrix on the 84-vertex machines (the single-gate fallback path reads a
// handful). prep therefore performs an integer-only "consumption pass"
// (fast ziggurat acceptance test, no float math, no stores) and records
// just the rare slow-path draws; at() reconstructs any entry on demand from
// the splitmix64 counter property state_k = state_0 + k·γ, bit-identical to
// the eager computation (pinned by TestLazyPerturbMatchesEager).
type routerScratch struct {
	d       []float64 // perturbed n×n cost entries, valid where stamped
	stamp   []uint32  // generation marks for d (gen bumps per trial)
	gen     uint32
	state0  uint64    // trial seed (splitmix64 state before the first draw)
	slowOrd []int32   // ordinals whose draw took the ziggurat slow path, ascending
	slowCum []int32   // cumulative extra Uint64s consumed through slowOrd[i]
	slowVal []float64 // |gaussian| drawn at slowOrd[i]

	pos     [][2]int // current physical endpoints per pair
	pairsAt [][]int  // pair indices touching each vertex
	seen    []int    // epoch marks per pair (monotone epoch ⇒ no clearing)
	epoch   int
	touched []int    // pairs adjacent to the edge being applied
	seq     [][2]int // swap sequence under construction
}

// newRouterScratch sizes a trial scratch for an n-vertex coupling graph.
func newRouterScratch(n int) *routerScratch {
	return &routerScratch{
		d:       make([]float64, n*n),
		stamp:   make([]uint32, n*n),
		pairsAt: make([][]int, n),
	}
}

// prep seeds the scratch for one trial: bump the matrix generation and run
// the consumption pass over all nPairs gaussian draws, recording ordinal,
// cumulative extra stream consumption, and value for the slow-path draws
// only (~1% of draws). Fast-path draws are a pure function of their stream
// offset and are reconstructed by fill when (if ever) read.
func (sc *routerScratch) prep(seed uint64, nPairs int) {
	sc.state0 = seed
	sc.gen++
	if sc.gen == 0 { // generation wrap: stale stamps could collide
		clear(sc.stamp)
		sc.gen = 1
	}
	sc.slowOrd = sc.slowOrd[:0]
	sc.slowCum = sc.slowCum[:0]
	sc.slowVal = sc.slowVal[:0]
	sm := splitmix64{state: seed}
	extra := int32(0)
	for k := 0; k < nPairs; k++ {
		sm.state += smGamma
		j := int32(uint32(smScramble(sm.state) >> 32))
		i := j & 0x7F
		if zigAbsInt32(j) < zigKn[i] {
			continue // fast path: value reconstructible from the offset alone
		}
		g, consumed := sm.slowNormFloat64(j)
		extra += consumed
		sc.slowOrd = append(sc.slowOrd, int32(k))
		sc.slowCum = append(sc.slowCum, extra)
		sc.slowVal = append(sc.slowVal, absf(g))
	}
}

// at returns the perturbed cost entry for the (distinct) vertices x, y,
// materializing it on first read in this trial.
func (sc *routerScratch) at(base []float64, n, x, y int) float64 {
	idx := x*n + y
	if sc.stamp[idx] != sc.gen {
		sc.fill(base, n, x, y, idx)
	}
	return sc.d[idx]
}

// fill materializes one symmetric pair of perturbed entries: look up the
// unordered pair's draw ordinal, recover the gaussian — directly from the
// counter offset for fast-path draws, from the slow-path records otherwise
// — and store base·(1 + 0.1|gauss|) under both orientations, exactly the
// values the historical eager loop produced.
func (sc *routerScratch) fill(base []float64, n, x, y, idx int) {
	lo, hi := x, y
	if lo > hi {
		lo, hi = hi, lo
	}
	// Ordinal of (lo, hi) in the row-major i<j draw order.
	k := int32(lo*n - lo*(lo+1)/2 + (hi - lo - 1))
	var g float64
	// Binary search the slow-draw records for k (they are few and sorted).
	a, b := 0, len(sc.slowOrd)
	for a < b {
		m := (a + b) / 2
		if sc.slowOrd[m] < k {
			a = m + 1
		} else {
			b = m
		}
	}
	if a < len(sc.slowOrd) && sc.slowOrd[a] == k {
		g = sc.slowVal[a]
	} else {
		var extra int32
		if a > 0 {
			extra = sc.slowCum[a-1]
		}
		state := sc.state0 + uint64(uint64(k)+uint64(extra)+1)*smGamma
		j := int32(uint32(smScramble(state) >> 32))
		i := j & 0x7F
		// |float64(j)·w| == float64(|j|)·w bit-for-bit: IEEE negation is
		// exact and rounding is sign-symmetric.
		g = float64(zigAbsInt32(j)) * zigWn64[i]
	}
	v := base[lo*n+hi] * (1 + 0.1*g)
	sym := y*n + x
	sc.d[idx], sc.d[sym] = v, v
	sc.stamp[idx], sc.stamp[sym] = sc.gen, sc.gen
}

// grow resizes a scratch slice to n, preserving capacity across calls.
// Stale contents are the caller's concern (the epoch scheme makes stale
// seen marks harmless; other users overwrite before reading).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// flattenCost validates a routing cost matrix and flattens it row-major; a
// nil matrix falls back to the hop-distance matrix as floats (the uniform
// baseline the pipeline has always used).
func flattenCost(g *topology.Graph, cost [][]float64) ([]float64, error) {
	n := g.N()
	flat := make([]float64, n*n)
	if cost == nil {
		dist := g.Distances()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				flat[i*n+j] = float64(dist[i][j])
			}
		}
		return flat, nil
	}
	if len(cost) != n {
		return nil, fmt.Errorf("transpile: cost matrix is %dx?, graph has %d vertices", len(cost), n)
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, fmt.Errorf("transpile: cost row %d has %d entries, want %d", i, len(row), n)
		}
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
// call (callers apply it immediately).
//
// Every trial gets its own RNG seeded from the router's stream before any
// trial runs, and the winner is the minimum-length sequence with ties
// broken by lowest trial index, so the outcome depends only on the seeds.
// A trial prepares the scratch's lazily perturbed view of the router's
// cost matrix (d' = d·(1 + 0.1|gauss|), symmetric per unordered pair — hop
// distances by default, pressure-weighted under profile-guided routing)
// and greedily searches under it.
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
	sc := r.sc
	bestLen := -1
	for _, seed := range r.seeds {
		sc.prep(uint64(seed), n*(n-1)/2)
		if !r.trialSearch(pairs, limit) {
			continue
		}
		if bestLen < 0 || len(sc.seq) < bestLen {
			bestLen = len(sc.seq)
			r.best = append(r.best[:0], sc.seq...)
		}
		if bestLen == 0 {
			break // can't beat an already-adjacent layer
		}
	}
	if bestLen < 0 {
		return nil
	}
	return r.best
}

// trialSearch greedily applies the cost-minimizing swap until every pair is
// adjacent, a local minimum is hit, or the depth limit is reached, leaving
// the swap sequence in r.sc.seq and reporting whether every pair became
// adjacent. Cost deltas are evaluated incrementally: a candidate swap only
// affects pairs with an endpoint on the swapped edge. All working state
// lives in r.sc, so steady-state trials allocate nothing.
func (r *router) trialSearch(pairs [][2]int, limit int) bool {
	sc := r.sc
	n := r.g.N()
	base := r.cost
	sc.pos = grow(sc.pos, len(pairs))
	pos := sc.pos
	pairsAt := sc.pairsAt
	for v := range pairsAt {
		pairsAt[v] = pairsAt[v][:0]
	}
	notAdj := 0
	for i, p := range pairs {
		pa, pb := r.layout[p[0]], r.layout[p[1]]
		pos[i] = [2]int{pa, pb}
		pairsAt[pa] = append(pairsAt[pa], i)
		pairsAt[pb] = append(pairsAt[pb], i)
		if !r.g.HasEdge(pa, pb) {
			notAdj++
		}
	}
	// pairDelta maps each endpoint to its post-swap replacement during
	// delta evaluation of a candidate edge. Cost entries come from the
	// scratch's lazily materialized perturbed matrix.
	pairDelta := func(i, a, b int) float64 {
		remap := func(v int) int {
			switch v {
			case a:
				return b
			case b:
				return a
			}
			return v
		}
		oa, ob := pos[i][0], pos[i][1]
		return sc.at(base, n, remap(oa), remap(ob)) - sc.at(base, n, oa, ob)
	}
	// seen marks are epoch-stamped and the epoch is monotone per scratch,
	// so stale marks from earlier trials can never collide and the buffer
	// is reused without clearing.
	sc.seen = grow(sc.seen, len(pairs))
	seen := sc.seen
	sc.seq = sc.seq[:0]
	for step := 0; step < limit && notAdj > 0; step++ {
		bestDelta := -1e-12
		bestEdge := [2]int{-1, -1}
		for _, e := range r.g.Edges() {
			a, b := e[0], e[1]
			if len(pairsAt[a]) == 0 && len(pairsAt[b]) == 0 {
				continue
			}
			sc.epoch++
			delta := 0.0
			for _, i := range pairsAt[a] {
				seen[i] = sc.epoch
				delta += pairDelta(i, a, b)
			}
			for _, i := range pairsAt[b] {
				if seen[i] == sc.epoch {
					continue
				}
				delta += pairDelta(i, a, b)
			}
			if delta < bestDelta {
				bestDelta = delta
				bestEdge = e
			}
		}
		if bestEdge[0] < 0 {
			break // local minimum under this perturbation
		}
		a, b := bestEdge[0], bestEdge[1]
		// Apply the swap to the trial state: collect the pairs touching the
		// edge, move their endpoints, and rebuild the two incidence lists
		// in place (touched is captured first, so truncating is safe).
		sc.epoch++
		sc.touched = sc.touched[:0]
		for _, i := range pairsAt[a] {
			seen[i] = sc.epoch
			sc.touched = append(sc.touched, i)
		}
		for _, i := range pairsAt[b] {
			if seen[i] != sc.epoch {
				sc.touched = append(sc.touched, i)
			}
		}
		for _, i := range sc.touched {
			if r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj++
			}
			if pos[i][0] == a {
				pos[i][0] = b
			} else if pos[i][0] == b {
				pos[i][0] = a
			}
			if pos[i][1] == a {
				pos[i][1] = b
			} else if pos[i][1] == b {
				pos[i][1] = a
			}
			if r.g.HasEdge(pos[i][0], pos[i][1]) {
				notAdj--
			}
		}
		pairsAt[a], pairsAt[b] = pairsAt[a][:0], pairsAt[b][:0]
		for _, i := range sc.touched {
			if pos[i][0] == a || pos[i][1] == a {
				pairsAt[a] = append(pairsAt[a], i)
			}
			if pos[i][0] == b || pos[i][1] == b {
				pairsAt[b] = append(pairsAt[b], i)
			}
		}
		sc.seq = append(sc.seq, bestEdge)
	}
	return notAdj == 0
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splitmix64 is a tiny rand.Source64 with O(1) construction, used for the
// per-trial RNGs: the default math/rand source runs a 607-step seeding
// procedure, which dominated findSwaps on small topologies where one
// trial's whole perturbation pass is only a few hundred draws. The state
// advances by a fixed increment per draw, so the k-th output is the O(1)
// function smScramble(state + k·smGamma) — the property routerScratch's
// lazy perturbation relies on.
type splitmix64 struct{ state uint64 }

// smGamma is the splitmix64 state increment (Weyl sequence constant).
const smGamma = 0x9E3779B97F4A7C15

// smScramble is the splitmix64 output function over a raw state value.
func smScramble(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (s *splitmix64) Uint64() uint64 {
	s.state += smGamma
	return smScramble(s.state)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }
