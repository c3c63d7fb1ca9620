package topology

import "sort"

// DensestSubset returns a connected k-vertex subset with many induced
// edges, sorted ascending, or nil when no component holds k vertices: it
// grows a subset from every seed vertex, each step adding the candidate
// with the most neighbors already inside (ties: smaller distance sum to
// the subset, then smaller index), and keeps the subset with the most
// induced edges. Distance sums come from cost when non-nil, otherwise hop
// distances.
//
// The hop-distance answer (cost nil) depends only on (graph, k), so it is
// computed once per k and cached on the graph like Distances, and AddEdge
// drops it; every cell that places a k-qubit circuit on one machine shares
// it. A cost-weighted answer is computed afresh on every call. The slice is
// shared; do not modify it.
func (g *Graph) DensestSubset(k int, cost [][]float64) []int {
	if cost != nil {
		return densestSubset(g, k, cost)
	}
	g.denseMu.Lock()
	s, ok := g.dense[k]
	g.denseMu.Unlock()
	if ok {
		return s
	}
	// Computed outside the lock so cells placing other widths on the same
	// graph are not held up; a concurrent duplicate computes the same
	// subset, and the first one stored is the one every caller gets.
	s = densestSubset(g, k, nil)
	g.denseMu.Lock()
	defer g.denseMu.Unlock()
	if prev, ok := g.dense[k]; ok {
		return prev
	}
	if g.dense == nil {
		g.dense = make(map[int][]int)
	}
	g.dense[k] = s
	return s
}

// densestSubset is DensestSubset without the cache. On the nil-cost path
// distance sums are hop counts as exact-integer floats, so it compares
// identically to integer arithmetic. Growth is connectivity-preserving, so
// on a connected graph it always succeeds.
func densestSubset(g *Graph, k int, cost [][]float64) []int {
	if k == g.N() {
		all := make([]int, k)
		for i := range all {
			all[i] = i
		}
		return all
	}
	n := g.N()
	// The hop matrix is symmetric, so the nil path can sum row v, which is
	// contiguous, in place of column v.
	hops := g.FlatDistances()
	var best []int
	bestEdges := -1
	// Per-seed growth state, reset (not reallocated) for each of the n
	// seeds: the seed loop dominated the layout's allocation profile.
	in := make([]bool, n)
	degIn := make([]int, n)       // neighbors already inside, per candidate
	distSum := make([]float64, n) // distance sum to the subset, per candidate
	subset := make([]int, 0, k)
	for seed := 0; seed < n; seed++ {
		clear(in)
		clear(degIn)
		clear(distSum)
		add := func(v int) {
			in[v] = true
			for _, w := range g.Neighbors(v) {
				degIn[w]++
			}
			if cost != nil {
				for u := 0; u < n; u++ {
					distSum[u] += cost[u][v]
				}
			} else {
				for u, d := range hops[v*n : (v+1)*n] {
					distSum[u] += d
				}
			}
		}
		add(seed)
		subset = append(subset[:0], seed)
		edges := 0
		for len(subset) < k {
			bestV := -1
			for v := 0; v < n; v++ {
				if in[v] || degIn[v] == 0 {
					continue // keep the subset connected
				}
				if bestV < 0 || degIn[v] > degIn[bestV] ||
					(degIn[v] == degIn[bestV] && distSum[v] < distSum[bestV]) {
					bestV = v
				}
			}
			if bestV < 0 {
				break // disconnected graph: cannot grow further
			}
			edges += degIn[bestV]
			subset = append(subset, bestV)
			add(bestV)
		}
		if len(subset) == k && edges > bestEdges {
			bestEdges = edges
			best = append([]int(nil), subset...)
		}
	}
	if best == nil {
		return nil
	}
	sort.Ints(best)
	return best
}
