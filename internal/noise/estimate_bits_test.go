//go:build amd64 && !amd64.v3

// The bits below are those of the amd64 kernels without fused
// multiply-add: GOAMD64=v3 lets the compiler fuse the Go loops' products
// and sums, which rounds differently, and other platforms run the Go
// loops under their own fusion rules.

package noise_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/noise"
)

// estimatePin is one Monte-Carlo estimate, to the bit: 16 shots from seed
// through the routed fixture of the given width under one of two noise
// models (0: uniform control error with decoherence; 1: a weaker uniform
// error, one bad coupling — the first two-qubit gate's — and weaker
// decoherence).
type estimatePin struct {
	width, model int
	seed         int64
	fidelity     uint64
	control      uint64
	decoherence  uint64
}

// estimateBitPins holds, per noise.MonteCarloVersion, the math.Float64bits
// of Fidelity, Control and Decoherence for the routed fixtures of widths
// 12–16 (state vectors on both sides of the simulator's 128 KiB tile), two
// noise models and seeds 1–3, in that loop order. It completes
// errorSitePins: the version string promises that no estimate moves
// without a bump, and the tolerances of the other estimator tests cannot
// see a last-bit move.
var estimateBitPins = map[string][]estimatePin{
	"lockstep/v2": {
		{12, 0, 1, 0x3fec000000000000, 0x3fe8ea56cf5226be, 0x3feacf178cf8d683},
		{12, 0, 2, 0x3fe4000000000000, 0x3fe8ea56cf5226be, 0x3feacf178cf8d683},
		{12, 0, 3, 0x3fe6000000000000, 0x3fe8ea56cf5226be, 0x3feacf178cf8d683},
		{12, 1, 1, 0x3fe6000000000000, 0x3fe13160a8376073, 0x3fed4a29bfd138bd},
		{12, 1, 2, 0x3fe6000000000000, 0x3fe13160a8376073, 0x3fed4a29bfd138bd},
		{12, 1, 3, 0x3fdc000000000000, 0x3fe13160a8376073, 0x3fed4a29bfd138bd},
		{13, 0, 1, 0x3fee2ba21a94fbef, 0x3fed4d4088671ec4, 0x3fee22ef6008dd87},
		{13, 0, 2, 0x3fea000000000000, 0x3fed4d4088671ec4, 0x3fee22ef6008dd87},
		{13, 0, 3, 0x3ff0000000000000, 0x3fed4d4088671ec4, 0x3fee22ef6008dd87},
		{13, 1, 1, 0x3fec2ba21a94fbef, 0x3feae10ff95ad65b, 0x3fef0de3caa47bcf},
		{13, 1, 2, 0x3fec000000000000, 0x3feae10ff95ad65b, 0x3fef0de3caa47bcf},
		{13, 1, 3, 0x3fea000000000000, 0x3feae10ff95ad65b, 0x3fef0de3caa47bcf},
		{14, 0, 1, 0x3febcbbf4f11b0f1, 0x3fe6a1ef3fddf9e5, 0x3fe90581c2024161},
		{14, 0, 2, 0x3fe16f3422578f8c, 0x3fe6a1ef3fddf9e5, 0x3fe90581c2024161},
		{14, 0, 3, 0x3fe7a216c0958974, 0x3fe6a1ef3fddf9e5, 0x3fe90581c2024161},
		{14, 1, 1, 0x3fdfc6b8e13f0ef4, 0x3fde53cdd056dfb5, 0x3fec4be34ef7ad4e},
		{14, 1, 2, 0x3fdaf5c362fee2ba, 0x3fde53cdd056dfb5, 0x3fec4be34ef7ad4e},
		{14, 1, 3, 0x3fe1d4d03c831609, 0x3fde53cdd056dfb5, 0x3fec4be34ef7ad4e},
		{15, 0, 1, 0x3fee000000000000, 0x3fee50f1b41c1147, 0x3feded1e7ca3c34e},
		{15, 0, 2, 0x3fec000000000000, 0x3fee50f1b41c1147, 0x3feded1e7ca3c34e},
		{15, 0, 3, 0x3ff0000000000000, 0x3fee50f1b41c1147, 0x3feded1e7ca3c34e},
		{15, 1, 1, 0x3fec000000000000, 0x3feb1bd0c2538a0d, 0x3feef21d24259a14},
		{15, 1, 2, 0x3fee000000000000, 0x3feb1bd0c2538a0d, 0x3feef21d24259a14},
		{15, 1, 3, 0x3ff0000000000000, 0x3feb1bd0c2538a0d, 0x3feef21d24259a14},
		{16, 0, 1, 0x3fe2000000000000, 0x3fe46518be84fe4f, 0x3fe75a6e327f0c54},
		{16, 0, 2, 0x3fd8000000000001, 0x3fe46518be84fe4f, 0x3fe75a6e327f0c54},
		{16, 0, 3, 0x3fe4000000000000, 0x3fe46518be84fe4f, 0x3fe75a6e327f0c54},
		{16, 1, 1, 0x3fe4000000000000, 0x3fdd8c7f585406f7, 0x3feb563c5405be86},
		{16, 1, 2, 0x3fdc000000000000, 0x3fdd8c7f585406f7, 0x3feb563c5405be86},
		{16, 1, 3, 0x3fd8000000000000, 0x3fdd8c7f585406f7, 0x3feb563c5405be86},
	},
}

// TestMonteCarloEstimateBits holds every pinned estimate to its bits.
func TestMonteCarloEstimateBits(t *testing.T) {
	pins, ok := estimateBitPins[noise.MonteCarloVersion]
	if !ok {
		t.Fatalf("no estimate bits pinned for MonteCarloVersion %q: pin this build's bits under the new version", noise.MonteCarloVersion)
	}
	var got []estimatePin
	for w := 12; w <= 16; w++ {
		m, routed := routedFixture(t, w)
		var edge [2]int
		for _, op := range routed.Ops {
			if op.Is2Q() {
				edge = [2]int{min(op.Qubits[0], op.Qubits[1]), max(op.Qubits[0], op.Qubits[1])}
				break
			}
		}
		timing := m.GateDurations()
		for mi, model := range []noise.Model{
			{GateError: 0.002, DecoherenceRate: 0.001, Timing: timing},
			{GateError: 0.0005, EdgeE2Q: map[[2]int]float64{edge: 0.05}, DecoherenceRate: 0.0005, Timing: timing},
		} {
			for seed := int64(1); seed <= 3; seed++ {
				e, err := noise.MonteCarloEstimator{Shots: 16, Seed: seed}.Estimate(context.Background(), routed, model)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, estimatePin{w, mi, seed,
					math.Float64bits(e.Fidelity), math.Float64bits(e.Control), math.Float64bits(e.Decoherence)})
			}
		}
	}
	if len(got) != len(pins) {
		t.Fatalf("%d estimates, %d pinned under %q", len(got), len(pins), noise.MonteCarloVersion)
	}
	for i, g := range got {
		if g != pins[i] {
			t.Errorf("width %d model %d seed %d: estimate bits %#x/%#x/%#x, pinned %#x/%#x/%#x under %q: bump MonteCarloVersion and pin the new bits",
				g.width, g.model, g.seed, g.fidelity, g.control, g.decoherence,
				pins[i].fidelity, pins[i].control, pins[i].decoherence, noise.MonteCarloVersion)
		}
	}
}
