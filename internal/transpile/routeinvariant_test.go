package transpile

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// TestRouterActiveEdgesInvariant pins the router's active-edge bitset:
// after a trial prices its edges and after every step, an edge's bit is set
// exactly when an endpoint holds a pair, and each active edge's cached
// delta is what edgeDelta computes from scratch.
func TestRouterActiveEdgesInvariant(t *testing.T) {
	steps := 0
	testHookTrialStep = func(r *router) {
		steps++
		sc := r.sc
		for e, ed := range r.g.Edges() {
			want := sc.pairAt[ed[0]] >= 0 || sc.pairAt[ed[1]] >= 0
			if got := sc.active[e>>6]&(1<<(e&63)) != 0; got != want {
				t.Fatalf("%s step %d: edge %v active bit %v, want %v", r.g.Name, steps, ed, got, want)
			}
			if want && sc.delta[e] != r.edgeDelta(e) {
				t.Fatalf("%s step %d: edge %v delta %v, recomputed %v", r.g.Name, steps, ed, sc.delta[e], r.edgeDelta(e))
			}
		}
	}
	t.Cleanup(func() { testHookTrialStep = nil })
	names := workloads.Names()
	for i, g := range smallMachines(t) {
		name := names[i%len(names)]
		c, err := workloads.Generate(name, g.N(), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		layout, err := DenseLayout(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(7)), 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	if steps == 0 {
		t.Fatal("no trial step ran: the invariant was never checked")
	}
}

// TestDenseLayoutConcurrent places circuits of several widths on one
// graph from many goroutines at once (the graph caches each width's dense
// subset): every layout must equal the one computed serially on a fresh
// copy of the graph.
func TestDenseLayoutConcurrent(t *testing.T) {
	machines := smallMachines(t)
	fresh := smallMachines(t)
	for mi, g := range machines {
		widths := []int{2, g.N() / 2, g.N() - 1, g.N()}
		want := make([]Layout, len(widths))
		for i, k := range widths {
			c, err := workloads.Generate("GHZ", k, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = DenseLayout(fresh[mi], c); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4*len(widths))
		for rep := 0; rep < 4; rep++ {
			for i, k := range widths {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := workloads.Generate("GHZ", k, rand.New(rand.NewSource(1)))
					if err != nil {
						errs <- err.Error()
						return
					}
					got, err := DenseLayout(g, c)
					if err != nil {
						errs <- err.Error()
						return
					}
					for v := range got {
						if got[v] != want[i][v] {
							errs <- g.Name + ": concurrent layout diverged from the serial one"
							return
						}
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
