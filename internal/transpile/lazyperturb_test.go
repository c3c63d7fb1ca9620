package transpile

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// eagerPerturb is the eager perturbation loop: copy the base matrix and
// scale every unordered pair by 1 + 0.1|gauss|, drawing each ordinal k
// (row-major i<j order) as rng.AbsNormAt(seed, k). It is the reference the
// router's on-demand draws must reproduce bit for bit.
func eagerPerturb(base []float64, n int, seed uint64) []float64 {
	d := make([]float64, n*n)
	copy(d, base)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[i*n+j] *= 1 + 0.1*rng.AbsNormAt(seed, k)
			d[j*n+i] = d[i*n+j]
			k++
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

// TestLazyPerturbStampWrap runs trials across the wrap of the scratch's
// uint32 generation: every read of every trial must match the eager
// reference, so no draw stamped before the wrap survives it.
func TestLazyPerturbStampWrap(t *testing.T) {
	const n = 12
	base := make([]float64, n*n)
	for i := range base {
		base[i] = float64(1 + i%3)
	}
	sc := newRouterScratch(n)
	sc.gen = math.MaxUint32 - 3
	for trial := uint64(0); trial < 8; trial++ {
		sc.prep(trial)
		want := eagerPerturb(base, n, trial)
		// Each trial reads a different subset, so a stale stamp from an
		// earlier generation would be read where the new trial has not
		// drawn yet.
		for x := int(trial % 3); x < n; x += 2 {
			for y := 0; y < n; y++ {
				if x == y {
					continue
				}
				if got := sc.drawAt(base, x, y); got != want[x*n+y] {
					t.Fatalf("trial %d (gen %d) entry (%d,%d): lazy %v != eager %v", trial, sc.gen, x, y, got, want[x*n+y])
				}
			}
		}
	}
	if sc.gen != 5 {
		t.Fatalf("generation after the wrap is %d, want 5", sc.gen)
	}
}

// readRecorder wraps the eager matrix d of one trial as refTrial's
// accessor and records the draw ordinal of every entry read.
func readRecorder(d []float64, n int, read map[int]bool) func(x, y int) float64 {
	return func(x, y int) float64 {
		lo, hi := min(x, y), max(x, y)
		read[lo*n-lo*(lo+1)/2+hi-lo-1] = true
		return d[x*n+y]
	}
}

// TestRouterDrawsOnlyWhatItReads pins the point of the counter draws: a
// trial draws exactly the pairs its search reads. For short- and
// long-range pair sets on Hypercube84, across seeds and depth limits, the
// ordinals one trialSearch stamps must equal the distinct ordinals the
// full-rescan reference trial (refTrial) reads under the same seed and
// limit, and the trial must agree with the reference on the outcome.
func TestRouterDrawsOnlyWhatItReads(t *testing.T) {
	g := topology.Hypercube84()
	n := g.N()
	dist := g.Distances()
	// One pair two hops apart, and three disjoint pairs at least three
	// hops apart.
	var near, far [][2]int
	used := make([]bool, n)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n && !used[v]; w++ {
			switch {
			case near == nil && dist[v][w] == 2:
				near = [][2]int{{v, w}}
			case len(far) < 3 && !used[w] && dist[v][w] >= 3:
				far = append(far, [2]int{v, w})
				used[v], used[w] = true, true
			}
		}
	}
	if near == nil || len(far) < 3 {
		t.Fatalf("Hypercube84 lacks the test pairs: near %v, far %v", near, far)
	}
	r := newRouter(g, TrivialLayout(n), rand.New(rand.NewSource(4)), 5, g.FlatDistances())
	for _, pairs := range [][][2]int{near, far} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, limit := range []int{1, 3, 2*n + 4*len(pairs)} {
				r.sc.prep(seed)
				ok := r.trialSearch(pairs, limit)
				var stamped []int
				for k, s := range r.sc.stamp {
					if s == r.sc.gen {
						stamped = append(stamped, k)
					}
				}
				read := map[int]bool{}
				seq, refOK := refTrial(r, readRecorder(eagerPerturb(r.cost, n, seed), n, read), pairs, limit)
				var reads []int
				for k := range read {
					reads = append(reads, k)
				}
				sort.Ints(reads)
				if ok != refOK || len(seq) != len(r.sc.seq) {
					t.Fatalf("pairs %v seed %d limit %d: trial (%v, %d swaps) != reference (%v, %d swaps)",
						pairs, seed, limit, ok, len(r.sc.seq), refOK, len(seq))
				}
				if len(stamped) != len(reads) {
					t.Fatalf("pairs %v seed %d limit %d: drew %d ordinals, the search reads %d", pairs, seed, limit, len(stamped), len(reads))
				}
				for i := range reads {
					if stamped[i] != reads[i] {
						t.Fatalf("pairs %v seed %d limit %d: drew ordinal %d, the search reads %d", pairs, seed, limit, stamped[i], reads[i])
					}
				}
				if all := n * (n - 1) / 2; len(stamped) >= all/4 {
					t.Errorf("pairs %v seed %d limit %d: drew %d of %d ordinals", pairs, seed, limit, len(stamped), all)
				}
			}
		}
	}
}
