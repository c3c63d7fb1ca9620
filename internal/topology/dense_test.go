package topology

import (
	"reflect"
	"sync"
	"testing"
)

// TestDensestSubsetCached pins the graph's dense-subset cache: repeated
// hop-distance calls return the cached slice itself, AddEdge drops it so
// the next answer equals an uncached computation on the new edge set, and
// a cost-weighted call is never served from the cache.
func TestDensestSubsetCached(t *testing.T) {
	g := SquareLattice(3, 4)
	first := g.DensestSubset(5, nil)
	if again := g.DensestSubset(5, nil); &again[0] != &first[0] {
		t.Fatal("repeated DensestSubset(5, nil) recomputed instead of returning the cached subset")
	}
	if !reflect.DeepEqual(first, densestSubset(g, 5, nil)) {
		t.Fatalf("cached subset %v differs from the uncached one", first)
	}
	// A diagonal far from the cached subset makes a denser region there.
	g.AddEdge(6, 11)
	g.AddEdge(7, 10)
	after := g.DensestSubset(5, nil)
	want := densestSubset(g, 5, nil)
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("after AddEdge: DensestSubset = %v, uncached = %v", after, want)
	}
	if reflect.DeepEqual(after, first) {
		t.Fatalf("test edges left the densest subset at %v: the reset is unobserved", first)
	}
	cost := make([][]float64, g.N())
	for i := range cost {
		cost[i] = make([]float64, g.N())
		for j := range cost[i] {
			cost[i][j] = float64(g.Dist(i, j))
		}
	}
	if c := g.DensestSubset(5, cost); &c[0] == &after[0] {
		t.Fatal("a cost-weighted call was served from the hop-distance cache")
	}
}

// TestDensestSubsetConcurrent fills the cache from many goroutines at once,
// several asking for the same size: all answers for a size are one slice,
// equal to the uncached subset.
func TestDensestSubsetConcurrent(t *testing.T) {
	g, fresh := Tree84(), Tree84()
	sizes := []int{8, 16, 32, 84}
	got := make([][][]int, len(sizes))
	var wg sync.WaitGroup
	for i, k := range sizes {
		got[i] = make([][]int, 4)
		for rep := range got[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i][rep] = g.DensestSubset(k, nil)
			}()
		}
	}
	wg.Wait()
	for i, k := range sizes {
		want := densestSubset(fresh, k, nil)
		for _, s := range got[i] {
			if &s[0] != &got[i][0][0] || !reflect.DeepEqual(s, want) {
				t.Fatalf("k=%d: concurrent answers %v disagree with the uncached %v", k, got[i], want)
			}
		}
	}
}
