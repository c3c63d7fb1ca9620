package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/noise"
	"repro/internal/workloads"
)

// TestEvaluateKeyNoiseStability pins the noise/v1 cache-key compatibility
// criteria: every noise-off key — including on a machine that *carries* a
// profile — is bit-identical to what earlier builds computed (warm
// baseline -cachedir entries keep hitting), and every semantic noise knob
// separates keys.
func TestEvaluateKeyNoiseStability(t *testing.T) {
	plain := HeavyHex20CX()
	noisy := plain
	noisy.Noise = &arch.NoiseProfile{E2Q: 0.002, TDec: 0.001}
	c := workloads.QFT(8, true)
	base := Options{Seed: 2022, Trials: 5}

	// An inert profile (no fidelity model, no noise routing) must not move
	// the key: fig11/fig13 golden runs and their warm caches predate noise.
	if plain.EvaluateKey(c, base) != noisy.EvaluateKey(c, base) {
		t.Fatal("a carried-but-unused noise profile changed the evaluate key")
	}
	inert := base
	inert.Noise = &arch.NoiseProfile{E2Q: 0.1}
	if plain.EvaluateKey(c, base) != plain.EvaluateKey(c, inert) {
		t.Fatal("Options.Noise without a fidelity model changed the evaluate key")
	}

	count := base
	count.Fidelity = FidelityCount
	if noisy.EvaluateKey(c, base) == noisy.EvaluateKey(c, count) {
		t.Fatal("enabling fidelity estimation did not change the key")
	}
	mc := base
	mc.Fidelity = FidelityMonteCarlo
	if noisy.EvaluateKey(c, count) == noisy.EvaluateKey(c, mc) {
		t.Fatal("count and montecarlo share a key")
	}
	// Shots normalize like Trials: implicit default == explicit default,
	// and shots are ignored outside the Monte-Carlo model.
	mcDefault := mc
	mcDefault.NoiseShots = noise.DefaultShots
	if noisy.EvaluateKey(c, mc) != noisy.EvaluateKey(c, mcDefault) {
		t.Fatal("implicit and explicit default shots diverged")
	}
	mcMore := mc
	mcMore.NoiseShots = 1024
	if noisy.EvaluateKey(c, mc) == noisy.EvaluateKey(c, mcMore) {
		t.Fatal("shot count did not separate Monte-Carlo keys")
	}
	countShots := count
	countShots.NoiseShots = 1024
	if noisy.EvaluateKey(c, count) != noisy.EvaluateKey(c, countShots) {
		t.Fatal("count-model key depends on shots (field is ignored)")
	}

	route := count
	route.NoiseRoute = NoiseRoutePure
	if noisy.EvaluateKey(c, count) == noisy.EvaluateKey(c, route) {
		t.Fatal("noise routing did not change the key")
	}
	blend := count
	blend.NoiseRoute = NoiseRouteBlend
	if noisy.EvaluateKey(c, route) == noisy.EvaluateKey(c, blend) {
		t.Fatal("pure and blend routing share a key")
	}

	// The effective profile's content is part of the identity.
	hotter := plain
	hotter.Noise = &arch.NoiseProfile{E2Q: 0.004, TDec: 0.001}
	if noisy.EvaluateKey(c, count) == hotter.EvaluateKey(c, count) {
		t.Fatal("different machine profiles share a key")
	}
	edged := plain
	edged.Noise = &arch.NoiseProfile{E2Q: 0.002, TDec: 0.001,
		EdgeE2Q: map[[2]int]float64{{0, 1}: 0.05}}
	if noisy.EvaluateKey(c, count) == edged.EvaluateKey(c, count) {
		t.Fatal("per-edge overrides not keyed")
	}
}

// TestEvaluateKeyMonteCarloVersion pins the estimator version tag against
// keys computed by earlier builds: Monte-Carlo keys moved, both from the
// untagged build (the lockstep trajectory runner changes fidelities in the
// last bits) and from lockstep/v1 (the simulator's layer pass changed its
// rounding order), so warm disk tiers must recompute them. Every key moved
// again with core.Evaluate/v2 (counter-based router draws move every
// routed circuit); the v2 count-model and noise-free keys are pinned so
// the next unintended key change fails here. The Monte-Carlo key moved
// once more from lockstep/v2 (virtual SWAPs move estimates' last bits).
func TestEvaluateKeyMonteCarloVersion(t *testing.T) {
	noisy := HeavyHex20CX()
	noisy.Noise = &arch.NoiseProfile{E2Q: 0.002, TDec: 0.001}
	c := workloads.QFT(8, true)
	base := Options{Seed: 2022, Trials: 5}
	count, mc := base, base
	count.Fidelity = FidelityCount
	mc.Fidelity = FidelityMonteCarlo
	for _, tc := range []struct {
		name   string
		opt    Options
		before string
		same   bool
	}{
		{"noise-free core.Evaluate/v1", base, "5f239e7cdf436a57f0ee283f159b184fc1ddfd03cd3c20591755100d7db2f1ed", false},
		{"count core.Evaluate/v1", count, "e867ac6b38e93661e245cd3e1f5985e94d53736d232439073e3fe7a7ca1fc791", false},
		{"noise-free", base, "e9cb228bf4c51f3494a88a66bcdaa1196140f68dbb779d8b971f42b26e2e366c", true},
		{"count", count, "00a77f82f7d34bddb460d168c786af747fe50d8db4bdb6e03ae64dfbad610e6f", true},
		{"montecarlo", mc, "81a764cfc7cc82d2b50df32a0ca0a632bb8698f9e0a3c5d5e64ff7ca56353da0", false},
		{"montecarlo lockstep/v1", mc, "ff60fb029a6ae2e158c72ba4df223eccc4a889f470f66c1b5bdcaa2aac9e4450", false},
		{"montecarlo lockstep/v2", mc, "39363b3d05b6d72e03c1245bb034bfcc1691e61dbcc8dd3ca8b6b6746f2dea25", false},
	} {
		if got := noisy.EvaluateKey(c, tc.opt).String(); (got == tc.before) != tc.same {
			t.Errorf("%s key %s (earlier build: %s, want same=%v)", tc.name, got, tc.before, tc.same)
		}
	}
}

// TestFidelityMetrics: evaluating under a noise profile fills the three
// fidelity metrics; without a fidelity model they stay zero and
// Metrics.String is unchanged (golden byte-identity).
func TestFidelityMetrics(t *testing.T) {
	m, err := FromSpec("grid:rows=4,cols=4,basis=syc,e2q=0.002,tdec=0.001")
	if err != nil {
		t.Fatal(err)
	}
	c := workloads.GHZ(8)
	opt := DefaultOptions()
	off, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if off.EstFidelity != 0 || off.ControlFidelity != 0 || off.DecoherenceFidelity != 0 {
		t.Fatalf("fidelity metrics nonzero with FidelityOff: %+v", off)
	}
	opt.Fidelity = FidelityCount
	on, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"EstFidelity":         on.EstFidelity,
		"ControlFidelity":     on.ControlFidelity,
		"DecoherenceFidelity": on.DecoherenceFidelity,
	} {
		if v <= 0 || v >= 1 {
			t.Errorf("%s = %g, want in (0,1)", name, v)
		}
	}
	if on.EstFidelity != on.ControlFidelity*on.DecoherenceFidelity {
		t.Error("count model fidelity is not the product of its components")
	}
	// The routing metrics and their rendering are untouched by estimation.
	offNoFid := off
	offNoFid.EstFidelity, offNoFid.ControlFidelity, offNoFid.DecoherenceFidelity = 0, 0, 0
	onNoFid := on
	onNoFid.EstFidelity, onNoFid.ControlFidelity, onNoFid.DecoherenceFidelity = 0, 0, 0
	if offNoFid != onNoFid {
		t.Fatalf("fidelity estimation changed routing metrics:\n  off %+v\n  on  %+v", off, on)
	}
	if strings.Contains(off.String(), "fidelity") {
		t.Fatal("Metrics.String grew a fidelity column; goldens would break")
	}
}

// TestMachineProfileWinsOverOptions: a machine's own spec-declared profile
// takes precedence over the sweep-level Options.Noise default.
func TestMachineProfileWinsOverOptions(t *testing.T) {
	m, err := FromSpec("grid:rows=4,cols=4,basis=syc,e2q=0.05")
	if err != nil {
		t.Fatal(err)
	}
	c := workloads.GHZ(6)
	opt := DefaultOptions()
	opt.Fidelity = FidelityCount
	own, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Noise = &arch.NoiseProfile{E2Q: 0.5}
	overlaid, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if own.EstFidelity != overlaid.EstFidelity {
		t.Fatalf("Options.Noise overrode the machine profile: %g vs %g",
			own.EstFidelity, overlaid.EstFidelity)
	}
	// A profile-less machine falls back to the Options default.
	bare := HeavyHex20CX()
	fallback, err := bare.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fallback.EstFidelity <= 0 || fallback.EstFidelity >= 1 {
		t.Fatalf("Options.Noise fallback fidelity = %g", fallback.EstFidelity)
	}
}

// TestNoiseConfigErrors: estimation and routing without any profile, and
// routing modes out of range, fail with descriptive errors instead of
// silently evaluating noiselessly.
func TestNoiseConfigErrors(t *testing.T) {
	m := HeavyHex20CX()
	c := workloads.GHZ(6)
	opt := DefaultOptions()
	opt.Fidelity = FidelityCount
	if _, err := m.EvaluateContext(context.Background(), c, opt); err == nil || !strings.Contains(err.Error(), "no noise profile") {
		t.Fatalf("profile-less fidelity estimation error = %v", err)
	}
	opt = DefaultOptions()
	opt.NoiseRoute = NoiseRoutePure
	if _, err := m.EvaluateContext(context.Background(), c, opt); err == nil || !strings.Contains(err.Error(), "no noise profile") {
		t.Fatalf("profile-less noise routing error = %v", err)
	}
	opt = DefaultOptions()
	opt.Noise = &arch.NoiseProfile{E2Q: 0.01}
	opt.NoiseRoute = NoiseRouteMode(99)
	if _, err := m.EvaluateContext(context.Background(), c, opt); err == nil {
		t.Fatal("unknown noise-route mode accepted")
	}
	opt = DefaultOptions()
	opt.Noise = &arch.NoiseProfile{E2Q: 0.01}
	opt.Fidelity = FidelityModel(99)
	if _, err := m.EvaluateContext(context.Background(), c, opt); err == nil {
		t.Fatal("unknown fidelity model accepted")
	}
}

// TestErrorWeightedRoutingBeatsHops is the headline acceptance pin: on a
// heterogeneous machine — a 4×4 grid with one coupling 300× worse than the
// rest — routing against error-weighted edge costs must yield strictly
// higher estimated fidelity than hop-count routing for a workload whose
// traffic crosses the grid, and never lower across the sampled workloads.
func TestErrorWeightedRoutingBeatsHops(t *testing.T) {
	m, err := FromSpec("grid:rows=4,cols=4,basis=syc,e2q=0.001,e2q-5-6=0.3")
	if err != nil {
		t.Fatal(err)
	}
	eval := func(wl string, size int, mode NoiseRouteMode) Metrics {
		t.Helper()
		c, err := workloads.Generate(wl, size, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: 2022, Trials: 5, Fidelity: FidelityCount, NoiseRoute: mode}
		met, err := m.EvaluateContext(context.Background(), c, opt)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	// The pinned strict win: QFT(10) improves ~3× under error weighting.
	off := eval("QFT", 10, NoiseRouteOff)
	pure := eval("QFT", 10, NoiseRoutePure)
	if pure.EstFidelity <= off.EstFidelity {
		t.Fatalf("error-weighted routing lost: pure %g <= off %g", pure.EstFidelity, off.EstFidelity)
	}
	if pure.EstFidelity < 2*off.EstFidelity {
		t.Fatalf("error-weighted win collapsed: pure %g vs off %g (historically ~3x)",
			pure.EstFidelity, off.EstFidelity)
	}
	// Blend mode (error weights × SWAP pressure) must also clear baseline
	// on this workload.
	blend := eval("QFT", 10, NoiseRouteBlend)
	if blend.EstFidelity <= off.EstFidelity {
		t.Fatalf("blend routing lost: %g <= %g", blend.EstFidelity, off.EstFidelity)
	}
}
