//go:build amd64

// Off amd64 the Go loops are the only kernel set, so nothing here has a
// second set to compare.

package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
)

// fuzzFloat draws a finite float64 that is ±0, one, of an extreme exponent
// (subnormal up to near overflow, so products overflow and sums cancel to
// NaN), or a normal gaussian.
func fuzzFloat(r *rand.Rand) float64 {
	sign := float64(1 - 2*r.Intn(2))
	switch r.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign
	case 2:
		return sign * math.Ldexp(1+r.Float64(), r.Intn(2098)-1075)
	default:
		return r.NormFloat64()
	}
}

// fuzzFactor draws a complex factor from fuzzFloat's parts, exactly 1 one
// time in eight so the diagonal kernels' unit skips are taken.
func fuzzFactor(r *rand.Rand) complex128 {
	if r.Intn(8) == 0 {
		return 1
	}
	return complex(fuzzFloat(r), fuzzFloat(r))
}

func fuzzMatrix(r *rand.Rand, dim int) *linalg.Matrix {
	m := linalg.New(dim, dim)
	for i := range m.Data {
		m.Data[i] = fuzzFactor(r)
	}
	return m
}

// requireSameBits applies platform and goLoop to two copies of region and
// fails on the first amplitude whose bits differ.
func requireSameBits(t *testing.T, name string, region []complex128, platform, goLoop func([]complex128)) {
	t.Helper()
	got := append([]complex128(nil), region...)
	want := append([]complex128(nil), region...)
	platform(got)
	goLoop(want)
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: amplitude %d of %d is %v, the Go loop gives %v (input %v)",
				name, i, len(region), got[i], want[i], region[i])
		}
	}
}

// FuzzAVXKernelsMatchGo pins the AVX kernel set to the Go loops bit for
// bit: every amplitude tileMat1Q, tileMat2Q and scale write must carry the
// Float64bits the Go loop writes. It skips on a host without AVX, where the
// wrappers run the Go loops themselves. scale is checked at the three
// stride shapes its callers use: a half of a 1Q stride (tileDiag1Q below
// the region), the whole region (tileDiag1Q's fixed-bit scalar) and a
// quarter of a pair's quads (diagQuarter). Inputs: widths 1–14, masks in
// both orders (so runs of one amplitude, the VEX.128 path, and of two or
// more), a region that is the whole array or a tile at a nonzero base, and
// factors and amplitudes from fuzzFactor.
func FuzzAVXKernelsMatchGo(f *testing.F) {
	skipWithoutAVX(f)
	f.Fuzz(func(t *testing.T, nb, qa, qb uint8, tiled bool, seed int64) {
		n := 1 + int(nb)%14
		r := rand.New(rand.NewSource(seed))
		amp := make([]complex128, 1<<n)
		for i := range amp {
			amp[i] = fuzzFactor(r)
		}
		region, base := amp, 0
		if tiled && n > layerTileExp {
			base = (1 + r.Intn(len(amp)>>layerTileExp-1)) << layerTileExp
			region = amp[base : base+1<<layerTileExp]
		}
		// Masks stay below the region: bits above it are the callers' to read.
		k := bits.TrailingZeros(uint(len(region)))
		la, lb := int(qa)%k, int(qb)%k
		if lb == la {
			lb = (la + 1) % k
		}
		ma, mb := 1<<la, 1<<lb
		tag := fmt.Sprintf("n=%d base=%d masks=(%d,%d)", n, base, ma, mb)

		u := fuzzMatrix(r, 2)
		requireSameBits(t, "tileMat1Q "+tag, region,
			func(a []complex128) { tileMat1Q(a, ma, u) },
			func(a []complex128) { tileMat1QGo(a, ma, u) })
		d := fuzzFactor(r)
		half := [2]int{0, ma}[r.Intn(2)]
		requireSameBits(t, fmt.Sprintf("scale half off=%d %s", half, tag), region,
			func(a []complex128) { scale(a, ma, len(a), half, d) },
			func(a []complex128) { scaleGo(a, ma, len(a), half, d) })
		requireSameBits(t, "scale whole "+tag, region,
			func(a []complex128) { scale(a, len(a), len(a), 0, d) },
			func(a []complex128) { scaleGo(a, len(a), len(a), 0, d) })
		if ma == mb {
			return // one amplitude pair: no second bit
		}
		u4 := fuzzMatrix(r, 4)
		requireSameBits(t, "tileMat2Q "+tag, region,
			func(a []complex128) { tileMat2Q(a, ma, mb, u4) },
			func(a []complex128) { tileMat2QGo(a, ma, mb, u4) })
		lo, hi := min(ma, mb), max(ma, mb)
		off := [4]int{0, ma, mb, ma | mb}[r.Intn(4)]
		requireSameBits(t, fmt.Sprintf("scale quarter off=%d %s", off, tag), region,
			func(a []complex128) { scale(a, lo, hi, off, d) },
			func(a []complex128) { scaleGo(a, lo, hi, off, d) })
	})
}

// BenchmarkKernels reports ns per amplitude of each complex-arithmetic
// kernel over a 13-qubit region (scale at tileDiag1Q's half-stride shape
// and diagQuarter's quarter shape), once as the Go loop and once as the
// assembly routine (AVX; the Go loop again on a host without it), at the
// lowest strides (a run of one amplitude, the VEX.128 path), the lowest
// with runs of two (lo = 2), a middle and the highest strides.
func BenchmarkKernels(b *testing.B) {
	const n = 13
	rng := rand.New(rand.NewSource(1))
	amp := randomState(b, n, rng).Amp
	u, u4 := gates.H(), gates.RandomSU4(rng)
	d := expi(0.3)
	type side struct {
		name string
		fn   func(lo, hi int)
	}
	kernels := []struct {
		name  string
		sides [2]side
	}{
		{"mat1Q", [2]side{
			{"go", func(lo, _ int) { tileMat1QGo(amp, lo, u) }},
			{"asm", func(lo, _ int) { tileMat1Q(amp, lo, u) }}}},
		{"mat2Q", [2]side{
			{"go", func(lo, hi int) { tileMat2QGo(amp, hi, lo, u4) }},
			{"asm", func(lo, hi int) { tileMat2Q(amp, hi, lo, u4) }}}},
		{"scaleHalf", [2]side{
			{"go", func(lo, _ int) { scaleGo(amp, lo, len(amp), lo, d) }},
			{"asm", func(lo, _ int) { scale(amp, lo, len(amp), lo, d) }}}},
		{"scaleQuarter", [2]side{
			{"go", func(lo, hi int) { scaleGo(amp, lo, hi, lo|hi, d) }},
			{"asm", func(lo, hi int) { scale(amp, lo, hi, lo|hi, d) }}}},
	}
	strides := []struct {
		name   string
		lo, hi int
	}{{"low", 1, 2}, {"lo2", 2, 4}, {"mid", 1 << 5, 1 << 7}, {"high", 1 << (n - 2), 1 << (n - 1)}}
	for _, k := range kernels {
		for _, st := range strides {
			for _, sd := range k.sides {
				b.Run(k.name+"/"+st.name+"/"+sd.name, func(b *testing.B) {
					for b.Loop() {
						sd.fn(st.lo, st.hi)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(amp)), "ns/amp")
				})
			}
		}
	}
}
