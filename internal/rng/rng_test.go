package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestScrambleKnownAnswers pins splitmix64 to its published output: the
// first words of the stream seeded at 0 (Vigna's reference
// implementation). Every jitter and fault schedule in the repository
// replays through these functions, so a drift moves all of them.
func TestScrambleKnownAnswers(t *testing.T) {
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	src := NewSource(0)
	for i, w := range want {
		if got := src.Uint64(); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
		if got := Scramble(uint64(i+1) * Gamma); got != w {
			t.Fatalf("Scramble((%d)·Gamma) = %#x, want %#x", i+1, got, w)
		}
	}
	if got := Frac(^uint64(0)); got >= 1 || got < 1-1.0/(1<<52) {
		t.Errorf("Frac(max) = %v, want the largest float64 below 1", got)
	}
}

// counterSource is the reference stream behind one counter draw: its first
// word is the counter state's, and every later word comes from the
// slow-path sub-stream. math/rand's own NormFloat64 over it is the value
// AbsNormAt must reproduce.
type counterSource struct {
	z     uint64
	first bool
	sub   splitmix64
}

func newCounterSource(seed uint64, k int) *counterSource {
	z := seed + uint64(k+1)*Gamma
	return &counterSource{z: z, first: true, sub: splitmix64{state: Scramble(z ^ subSalt)}}
}

func (s *counterSource) Uint64() uint64 {
	if s.first {
		s.first = false
		return Scramble(s.z)
	}
	return s.sub.Uint64()
}

func (s *counterSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *counterSource) Seed(int64)   { panic("unused") }

// TestAbsNormAtMatchesMathRand checks the counter draw against math/rand's
// ziggurat over the reference stream, across enough (seed, ordinal) pairs
// to take the base-strip and wedge branches many times, and requires that
// some draws did take the slow path.
func TestAbsNormAtMatchesMathRand(t *testing.T) {
	slow := 0
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, 1 << 63, ^uint64(0)} {
		for k := 0; k < 50000; k++ {
			want := math.Abs(rand.New(newCounterSource(seed, k)).NormFloat64())
			if got := AbsNormAt(seed, k); got != want {
				t.Fatalf("seed %#x ordinal %d: AbsNormAt = %v, math/rand = %v", seed, k, got, want)
			}
			j := int32(uint32(Scramble(seed+uint64(k+1)*Gamma) >> 32))
			if zigAbsInt32(j) >= zigKn[j&0x7F] {
				slow++
			}
		}
	}
	if slow < 1000 {
		t.Errorf("only %d slow-path draws; the check did not reach the sub-stream", slow)
	}
}

// TestAbsNormAtDistribution checks the family's moments and independence
// over 4·10⁶ (seed, ordinal) draws: the mean of |g| is √(2/π) and the mean
// of g² is 1, each within 5σ, and the correlation between ordinals k and
// k+lag of one seed is 0 within 5σ at lags 1 and 2. It also requires no
// two ordinals up to 4 apart to draw the identical value, which
// independent draws do with probability ~2⁻³¹ per pair. A slow-path
// sub-stream seeded at the counter state itself reads ordinal k+1's word
// as its wedge level and, on rejection, ordinal k+2's as its redraw, so
// ~0.3% of draws would copy their second neighbour's value: thousands of
// duplicates, and a lag-2 correlation of ~10σ.
func TestAbsNormAtDistribution(t *testing.T) {
	const seeds, ordinals, maxLag = 1000, 4000, 4
	var n, sum, sumSq, sum4 float64
	type moments struct{ n, sx, sy, sxx, syy, sxy float64 }
	var lag [3]moments
	dups := 0
	seedRNG := rand.New(rand.NewSource(1))
	g := make([]float64, ordinals)
	for s := 0; s < seeds; s++ {
		seed := seedRNG.Uint64()
		for k := range g {
			g[k] = AbsNormAt(seed, k)
			n++
			sum += g[k]
			sumSq += g[k] * g[k]
			sum4 += g[k] * g[k] * g[k] * g[k]
		}
		for k := range g {
			for l := 1; l <= maxLag && k+l < ordinals; l++ {
				if g[k] == g[k+l] {
					dups++
				}
				if l < len(lag) {
					m, x, y := &lag[l], g[k], g[k+l]
					m.n, m.sx, m.sy, m.sxx, m.syy, m.sxy = m.n+1, m.sx+x, m.sy+y, m.sxx+x*x, m.syy+y*y, m.sxy+x*y
				}
			}
		}
	}
	mean := sum / n
	if want, sigma := math.Sqrt(2/math.Pi), math.Sqrt((1-2/math.Pi)/n); math.Abs(mean-want) > 5*sigma {
		t.Errorf("mean |g| = %.6f, want %.6f ± %.6f (5σ)", mean, want, 5*sigma)
	}
	if m2, sigma := sumSq/n, math.Sqrt(2/n); math.Abs(m2-1) > 5*sigma {
		t.Errorf("mean g² = %.6f, want 1 ± %.6f (5σ)", m2, 5*sigma)
	}
	if m4 := sum4 / n; math.Abs(m4-3) > 0.05 {
		t.Errorf("mean g⁴ = %.4f, want 3", m4)
	}
	for l := 1; l < len(lag); l++ {
		m := lag[l]
		cov := m.sxy/m.n - (m.sx/m.n)*(m.sy/m.n)
		vx, vy := m.sxx/m.n-(m.sx/m.n)*(m.sx/m.n), m.syy/m.n-(m.sy/m.n)*(m.sy/m.n)
		if r, sigma := cov/math.Sqrt(vx*vy), 1/math.Sqrt(m.n); math.Abs(r) > 5*sigma {
			t.Errorf("lag-%d correlation = %.5f, want 0 ± %.5f (5σ)", l, r, 5*sigma)
		} else {
			t.Logf("lag-%d correlation %.5f (σ %.5f)", l, r, sigma)
		}
	}
	if dups > 2 {
		t.Errorf("%d ordinal pairs up to %d apart drew the identical value; independent draws make ~0", dups, maxLag)
	}
}
