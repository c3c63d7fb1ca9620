// Package topology models qubit-coupling graphs G={V,E} (paper §2.4) and
// provides generators for every topology in the paper's comparison: the
// commercial baselines (Square-Lattice, Hex-Lattice, Heavy-Hex,
// Lattice+AltDiagonals), the aspirational Hypercube, and the SNAIL-enabled
// modular designs (4-ary Tree, Round-Robin Tree, and the Corral family).
// Structural metrics (diameter, average distance, average connectivity)
// reproduce Tables 1 and 2.
package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an undirected simple graph over vertices 0..n-1.
//
// Construction (AddEdge) is single-threaded; once built, a Graph is safe
// for concurrent readers — the parallel sweep engine shares one Graph per
// machine across workers, so the lazy distance cache is guarded below.
type Graph struct {
	Name string

	n     int
	adj   [][]int
	edges [][2]int

	dist   atomic.Pointer[[][]int]   // all-pairs BFS distances, computed lazily
	fdist  atomic.Pointer[[]float64] // dist as a flat float64 matrix, computed lazily
	distMu sync.Mutex                // serializes the one-time computations

	wdistMu sync.Mutex             // guards wdist
	wdist   map[uint64][][]float64 // weighted all-pairs distances per weight fingerprint

	denseMu sync.Mutex    // guards dense
	dense   map[int][]int // hop-distance DensestSubset per subset size

	fp atomic.Pointer[uint64] // structural fingerprint, computed lazily
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(name string, n int) *Graph {
	if n < 1 {
		panic("topology: graph needs at least one vertex")
	}
	return &Graph{Name: name, n: n, adj: make([][]int, n)}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge; duplicate and self edges are rejected.
func (g *Graph) AddEdge(a, b int) {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("topology: edge (%d,%d) out of range [0,%d)", a, b, g.n))
	}
	if a == b {
		panic(fmt.Sprintf("topology: self edge at %d", a))
	}
	if g.HasEdge(a, b) {
		return
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	if a > b {
		a, b = b, a
	}
	g.edges = append(g.edges, [2]int{a, b})
	g.dist.Store(nil)
	g.fdist.Store(nil)
	g.fp.Store(nil)
	g.wdistMu.Lock()
	g.wdist = nil
	g.wdistMu.Unlock()
	g.denseMu.Lock()
	g.dense = nil
	g.denseMu.Unlock()
}

// Fingerprint returns a structural hash of the graph: vertex count plus the
// sorted edge set, independent of construction order. Two graphs with equal
// fingerprints have identical couplings (up to 64-bit FNV collisions), which
// is what content-addressed caching of routing results keys on; the Name is
// deliberately excluded so renamed but identical topologies share entries.
func (g *Graph) Fingerprint() uint64 {
	if p := g.fp.Load(); p != nil {
		return *p
	}
	es := append([][2]int(nil), g.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	h := fnv.New64a()
	var buf [8]byte
	writeU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU(uint64(g.n))
	for _, e := range es {
		writeU(uint64(e[0])<<32 | uint64(e[1]))
	}
	v := h.Sum64()
	g.fp.Store(&v)
	return v
}

// HasEdge reports whether (a,b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	for _, v := range g.adj[a] {
		if v == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of v (shared slice; do not modify).
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns all edges as (low, high) pairs (shared; do not modify).
func (g *Graph) Edges() [][2]int { return g.edges }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Distances returns the all-pairs shortest-path matrix (hops), computing and
// caching it on first use. Unreachable pairs are -1. Safe for concurrent
// callers: the cache hit is a lock-free load, the one-time computation is
// mutex-serialized.
func (g *Graph) Distances() [][]int {
	if p := g.dist.Load(); p != nil {
		return *p
	}
	g.distMu.Lock()
	defer g.distMu.Unlock()
	if p := g.dist.Load(); p != nil {
		return *p
	}
	d := make([][]int, g.n)
	for s := 0; s < g.n; s++ {
		row := make([]int, g.n)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if row[w] < 0 {
					row[w] = row[v] + 1
					queue = append(queue, w)
				}
			}
		}
		d[s] = row
	}
	g.dist.Store(&d)
	return d
}

// FlatDistances returns Distances as one row-major n·n float64 slice
// (entry a·n+b is the hop distance from a to b, -1 if unreachable), computed
// once and cached like the hop matrix. It is the uniform cost matrix the
// routers and the layout read when the caller gives none, so every cell on
// one machine shares one copy. The slice is shared; do not modify it.
func (g *Graph) FlatDistances() []float64 {
	if p := g.fdist.Load(); p != nil {
		return *p
	}
	d := g.Distances()
	g.distMu.Lock()
	defer g.distMu.Unlock()
	if p := g.fdist.Load(); p != nil {
		return *p
	}
	flat := make([]float64, g.n*g.n)
	for i, row := range d {
		for j, v := range row {
			flat[i*g.n+j] = float64(v)
		}
	}
	g.fdist.Store(&flat)
	return flat
}

// Dist returns the hop distance between a and b (-1 if disconnected).
func (g *Graph) Dist(a, b int) int { return g.Distances()[a][b] }

// IsConnected reports whether every vertex is reachable from vertex 0.
func (g *Graph) IsConnected() bool {
	row := g.Distances()[0]
	for _, d := range row {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the maximum finite pairwise distance. Disconnected
// graphs return -1.
func (g *Graph) Diameter() int {
	if !g.IsConnected() {
		return -1
	}
	d := g.Distances()
	worst := 0
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if d[i][j] > worst {
				worst = d[i][j]
			}
		}
	}
	return worst
}

// AvgDistance returns the mean distance over all ordered vertex pairs
// including self-pairs (the normalization that reproduces the paper's
// Table 1/2 values, e.g. 2.5 for the 4x4 lattice and 2.0 for the 4-cube).
func (g *Graph) AvgDistance() float64 {
	if !g.IsConnected() {
		return -1
	}
	d := g.Distances()
	sum := 0
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			sum += d[i][j]
		}
	}
	return float64(sum) / float64(g.n*g.n)
}

// AvgDegree returns the mean vertex degree (the paper's "AvgC").
func (g *Graph) AvgDegree() float64 {
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// InducedSubgraph returns the subgraph on the kept vertices, relabeled
// 0..len(keep)-1 in the order given.
func (g *Graph) InducedSubgraph(name string, keep []int) *Graph {
	idx := make(map[int]int, len(keep))
	for i, v := range keep {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("topology: keep vertex %d out of range", v))
		}
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("topology: keep vertex %d repeated", v))
		}
		idx[v] = i
	}
	out := NewGraph(name, len(keep))
	for _, e := range g.edges {
		a, oka := idx[e[0]]
		b, okb := idx[e[1]]
		if oka && okb {
			out.AddEdge(a, b)
		}
	}
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d, e=%d}", g.Name, g.n, len(g.edges))
}

// Stats bundles the Table 1/2 row for a topology.
type Stats struct {
	Name     string
	Qubits   int
	Diameter int
	AvgDist  float64
	AvgConn  float64
}

// Stats computes the paper's per-topology properties.
func (g *Graph) Stats() Stats {
	return Stats{
		Name:     g.Name,
		Qubits:   g.n,
		Diameter: g.Diameter(),
		AvgDist:  g.AvgDistance(),
		AvgConn:  g.AvgDegree(),
	}
}
