package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestZigguratMatchesMathRand pins the contract the router's byte-identical
// output rests on: the inlined splitmix64 gaussian sampler reproduces
// rand.New(&splitmix64{state: seed}).NormFloat64() bit for bit, across
// enough draws per seed to exercise the rare base-strip and wedge-rejection
// branches of the ziggurat.
func TestZigguratMatchesMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, 1 << 63, ^uint64(0)} {
		ref := rand.New(&splitmix64{state: seed})
		sm := &splitmix64{state: seed}
		for i := 0; i < 200000; i++ {
			want := ref.NormFloat64()
			got := sm.normFloat64()
			if got != want {
				t.Fatalf("seed %#x draw %d: normFloat64 = %v, rand.NormFloat64 = %v", seed, i, got, want)
			}
		}
	}
}

// TestZigguratHelpersMatchMathRand pins the two derived streams the sampler
// is built from, so a future drift is reported at the primitive that moved.
func TestZigguratHelpersMatchMathRand(t *testing.T) {
	refU := rand.New(&splitmix64{state: 7})
	smU := &splitmix64{state: 7}
	for i := 0; i < 100000; i++ {
		if got, want := smU.uint32n(), refU.Uint32(); got != want {
			t.Fatalf("draw %d: uint32n = %#x, rand.Uint32 = %#x", i, got, want)
		}
	}
	refF := rand.New(&splitmix64{state: 9})
	smF := &splitmix64{state: 9}
	for i := 0; i < 100000; i++ {
		if got, want := smF.float64n(), refF.Float64(); got != want {
			t.Fatalf("draw %d: float64n = %v, rand.Float64 = %v", i, got, want)
		}
	}
}

// TestZigguratSqueezeExact pins the squeeze in front of the wedge's exp:
// for every wedge strip, at x values across the strip (its ends, the ulps
// next to them and interior points, both signs) and at uniform levels at
// and around the squeeze bounds, the unwidened bounds and the float32
// rounding boundary of the exact test, zigWedgeAccept must decide exactly
// as l < float32(exp(−x²/2)) does. It also requires the squeeze to decide
// most of a uniform sample of wedge draws on its own, so a bound that
// silently degenerates to "always call exp" fails here.
func TestZigguratSqueezeExact(t *testing.T) {
	around := func(l float32, out []float32) []float32 {
		for k := 0; k < 4; k++ {
			out = append(out, l)
			l = math.Nextafter32(l, 2)
		}
		l = math.Nextafter32(out[len(out)-4], -1)
		for k := 0; k < 4; k++ {
			out = append(out, l)
			l = math.Nextafter32(l, -1)
		}
		return out
	}
	for i := int32(1); i < 128; i++ {
		kn := uint64(zigKn[i])
		js := []uint64{kn, kn + 1, kn + 2, 1<<31 - 2, 1<<31 - 1, 1 << 31}
		for q := uint64(1); q < 16; q++ {
			js = append(js, kn+(1<<31-kn)*q/16)
		}
		b := zigSqueeze[i]
		for _, j := range js {
			for _, x := range []float64{float64(j) * zigWn64[i], -float64(j) * zigWn64[i]} {
				ax := math.Abs(x)
				exact := float32(math.Exp(-.5 * x * x))
				lo, hi := b.loA+b.loB*ax, b.hiA+b.hiB*ax
				levels := []float32{zigFn[i], zigFn[i-1]}
				for _, l := range []float64{
					float64(exact), lo, hi,
					lo + zigSqueezeMargin, hi - zigSqueezeMargin,
				} {
					levels = around(float32(l), levels)
				}
				for _, l := range levels {
					if got, want := zigWedgeAccept(i, x, l), l < exact; got != want {
						t.Fatalf("strip %d x=%v level %v: squeezed %v, exp says %v (bounds %v, %v; exp %v)",
							i, x, l, got, want, lo, hi, exact)
					}
				}
			}
		}
	}

	// Uniform wedge draws, as slowNormFloat64 makes them.
	rng := rand.New(rand.NewSource(1))
	const draws = 200000
	undecided := 0
	for n := 0; n < draws; n++ {
		i := int32(1 + rng.Intn(127))
		j := zigKn[i] + uint32(rng.Int63n(int64(1<<31-zigKn[i])+1))
		x := float64(j) * zigWn64[i]
		l := zigFn[i] + float32(rng.Float64())*(zigFn[i-1]-zigFn[i])
		if got, want := zigWedgeAccept(i, x, l), l < float32(math.Exp(-.5*x*x)); got != want {
			t.Fatalf("strip %d x=%v level %v: squeezed %v, exp says %v", i, x, l, got, want)
		}
		b := zigSqueeze[i]
		if lf := float64(l); lf >= b.loA+b.loB*x && lf <= b.hiA+b.hiB*x {
			undecided++
		}
	}
	if share := float64(undecided) / draws; share > 0.2 {
		t.Errorf("squeeze leaves %.1f%% of wedge draws to exp; want ≤ 20%%", 100*share)
	} else {
		t.Logf("squeeze leaves %.1f%% of wedge draws to exp", 100*share)
	}
}
