package transpile

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// eagerPerturb is the historical perturbation loop: copy the base matrix
// and scale every unordered pair by 1 + 0.1|gauss| drawn in row-major i<j
// order from rand.New(&splitmix64{state: seed}). It is the reference the
// router's on-demand draws must reproduce bit for bit.
func eagerPerturb(base []float64, n int, seed uint64) []float64 {
	d := make([]float64, n*n)
	copy(d, base)
	trng := rand.New(&splitmix64{state: seed})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 1 + 0.1*absf(trng.NormFloat64())
			d[i*n+j] *= s
			d[j*n+i] = d[i*n+j]
		}
	}
	return d
}

// TestLazyPerturbMatchesEager materializes every off-diagonal entry of the
// lazy perturbed matrix, in adversarial (reverse and mixed-orientation)
// read orders, across enough seeds and sizes to hit ziggurat slow-path
// draws, and requires bit-identity with the eager loop.
func TestLazyPerturbMatchesEager(t *testing.T) {
	for _, n := range []int{2, 5, 17, 84} {
		base := make([]float64, n*n)
		brng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(brng.Intn(7) + 1)
				base[i*n+j], base[j*n+i] = v, v
			}
		}
		for seed := uint64(0); seed < 50; seed++ {
			want := eagerPerturb(base, n, seed)
			sc := newRouterScratch(n)
			sc.prep(seed)
			// Read back-to-front and in both orientations, so fills happen
			// in an order unrelated to the draw order.
			for x := n - 1; x >= 0; x-- {
				for y := 0; y < n; y++ {
					if x == y {
						continue
					}
					if got := sc.drawAt(base, x, y); got != want[x*n+y] {
						t.Fatalf("n=%d seed=%d entry (%d,%d): lazy %v != eager %v",
							n, seed, x, y, got, want[x*n+y])
					}
				}
			}
		}
	}
}

// TestLazyPerturbGenerationIsolation re-preps a scratch with a new seed and
// checks no stale draw from the previous trial leaks into the new one.
func TestLazyPerturbGenerationIsolation(t *testing.T) {
	const n = 9
	base := make([]float64, n*n)
	for i := range base {
		base[i] = 2
	}
	sc := newRouterScratch(n)
	sc.prep(11)
	first := sc.drawAt(base, 3, 7)
	sc.prep(12)
	want := eagerPerturb(base, n, 12)
	got := sc.drawAt(base, 3, 7)
	if got != want[3*n+7] {
		t.Fatalf("after re-prep: lazy %v != eager %v (stale? first trial had %v)", got, want[3*n+7], first)
	}
}

// FuzzLazyPerturbMatchesEager is the fuzzed form of
// TestLazyPerturbMatchesEager: for any seed and any n in 2..96, entries
// read in the order the byte string picks — consecutive bytes name the two
// vertices, and each pair is read in both orientations — must bit-equal
// the eager loop's. The committed corpus includes seeds whose very first
// draw (ordinal 0) takes the ziggurat's slow path, in a wedge strip and in
// the base strip.
func FuzzLazyPerturbMatchesEager(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, nb uint8, order []byte) {
		n := 2 + int(nb)%95
		base := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64((i*7+j*3)%5 + 1)
				base[i*n+j], base[j*n+i] = v, v
			}
		}
		want := eagerPerturb(base, n, seed)
		sc := newRouterScratch(n)
		sc.prep(seed)
		for k := 0; k+1 < len(order); k += 2 {
			x, y := int(order[k])%n, int(order[k+1])%n
			if x == y {
				continue
			}
			for _, e := range [2][2]int{{x, y}, {y, x}} {
				if got := sc.drawAt(base, e[0], e[1]); got != want[e[0]*n+e[1]] {
					t.Fatalf("n=%d seed=%d entry (%d,%d): lazy %v != eager %v",
						n, seed, e[0], e[1], got, want[e[0]*n+e[1]])
				}
			}
		}
	})
}

// TestRouterDrawsOnlyWhatItReads pins the point of the on-demand draws: a
// trial routing a short-range pair between low-numbered vertices of
// Hypercube84 reads only perturbed entries near those vertices, so it must
// leave most of its n(n−1)/2 draws unmade. A pass that draws a trial's
// whole stream up front fails here.
func TestRouterDrawsOnlyWhatItReads(t *testing.T) {
	g := topology.Hypercube84()
	n := g.N()
	dist := g.Distances()
	w := -1
	for v := 1; v < n && w < 0; v++ {
		if dist[0][v] == 2 {
			w = v
		}
	}
	if w < 0 {
		t.Fatal("no vertex two hops from vertex 0")
	}
	r := newRouter(g, TrivialLayout(n), rand.New(rand.NewSource(4)), 5, g.FlatDistances())
	pairs := [][2]int{{0, w}}
	for round := 0; round < 2; round++ { // warm-up, then the measured round
		if seq := r.findSwaps(pairs); seq == nil {
			t.Fatalf("round %d: findSwaps failed to route pair (0, %d)", round, w)
		}
	}
	if drawn, all := len(r.sc.g), n*(n-1)/2; drawn >= all {
		t.Errorf("last trial drew %d of %d gaussians routing pair (0, %d); want fewer (draws must follow reads)", drawn, all, w)
	}
}
