// Package rng holds the repository's one splitmix64 generator and the
// samplers built on it. Every deterministic random stream — the router's
// per-pair gaussians, the Monte-Carlo noise trajectories, the cache's and
// the daemon client's retry jitter, the fault-injection schedules — is
// splitmix64 over a counter, so a stream position is a pure function of
// (seed, counter) and a run replays exactly.
package rng

import (
	"math"
	"math/rand"
)

// Gamma is the splitmix64 state increment (Weyl sequence constant, the
// golden-ratio conjugate).
const Gamma = 0x9E3779B97F4A7C15

// Scramble is the splitmix64 output function over a raw state value: a
// bijective finalizer whose output on sequential inputs is statistically
// indistinguishable from random.
func Scramble(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Frac maps a scrambled word to a fraction in [0, 1) from its top 53 bits.
func Frac(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// splitmix64 is a tiny rand.Source64 with O(1) construction: math/rand's
// default source runs a 607-step seeding procedure, which dominates when a
// stream serves only a few hundred draws. The state advances by Gamma per
// draw, so a copy is the stream's exact position.
type splitmix64 struct{ state uint64 }

// NewSource returns a splitmix64 rand.Source64 whose first Uint64 is
// Scramble(state + Gamma).
func NewSource(state uint64) rand.Source64 { return &splitmix64{state: state} }

func (s *splitmix64) Uint64() uint64 {
	s.state += Gamma
	return Scramble(s.state)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// subSalt separates a counter draw's slow-path sub-stream from the counter
// states. A draw at state z that fails the ziggurat's fast test finishes on
// the stream seeded at Scramble(z ^ subSalt). Seeding it at z itself would
// reuse z+Gamma — the next ordinal's counter state — so the two ordinals'
// values would be correlated; the scrambled seed lands at an unrelated
// point of the 2⁶⁴ state space, where meeting another ordinal's counter
// state within a trial's few thousand draws has probability ~2⁻⁵⁰.
const subSalt = 0xD1B54A32D192ED03

// AbsNormAt returns |g| for ordinal k of the counter-based gaussian family
// keyed by seed: a pure function of (seed, k), so a caller draws only the
// ordinals it reads, in any order. The draw runs the ziggurat of
// math/rand's NormFloat64 on the uniform Scramble(seed + (k+1)·Gamma) —
// ordinal k's value is splitmix64 stream seed's (k+1)-th word — and the
// ~1% of draws that fail the inlined fast test finish in slowNormFloat64
// on a sub-stream (see subSalt).
func AbsNormAt(seed uint64, k int) float64 {
	z := seed + uint64(k+1)*Gamma
	j := int32(uint32(Scramble(z) >> 32))
	i := j & 0x7F
	if a := zigAbsInt32(j); a < zigKn[i] {
		// |float64(j)·w| == float64(|j|)·w bit for bit: IEEE negation is
		// exact and rounding is sign-symmetric.
		return float64(a) * zigWn64[i]
	}
	return absNormSlow(z, j)
}

// absNormSlow finishes AbsNormAt's draw at counter state z whose first
// word gave j, on the sub-stream seeded at Scramble(z ^ subSalt).
func absNormSlow(z uint64, j int32) float64 {
	s := splitmix64{state: Scramble(z ^ subSalt)}
	return math.Abs(s.slowNormFloat64(j))
}
