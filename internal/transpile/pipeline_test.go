package transpile

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/topology"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// pipelineContext builds a PassContext over a machine description and a
// deterministic workload circuit.
func pipelineContext(t *testing.T, g *topology.Graph, b weyl.Basis, workload string, width int, seed int64) *PassContext {
	t.Helper()
	c, err := workloads.Generate(workload, width, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &PassContext{Graph: g, Basis: b, Circuit: c, Seed: seed, Trials: 5}
}

// twoComponents is a 6-vertex graph split into two 3-vertex paths.
func twoComponents() *topology.Graph {
	g := topology.NewGraph("two-components", 6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	return g
}

func TestLayoutPassDisconnectedGraphErrors(t *testing.T) {
	// A 4-qubit circuit cannot be placed on a graph whose largest
	// connected component holds 3 vertices; the pass must surface
	// DenseLayout's descriptive error, not a bogus cross-component layout.
	ctx := pipelineContext(t, twoComponents(), weyl.BasisCX, "GHZ", 4, 7)
	err := LayoutPass{}.Apply(ctx)
	if err == nil {
		t.Fatal("layout pass accepted a disconnected graph")
	}
	if !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("error %q does not name the disconnection", err)
	}
	if ctx.Layout != nil {
		t.Fatal("failed pass left a layout behind")
	}
}

func TestPipelineRunStopsAtFailingPass(t *testing.T) {
	ctx := pipelineContext(t, twoComponents(), weyl.BasisCX, "GHZ", 4, 7)
	pipe := Pipeline{LayoutPass{}, RoutePass{}, TranslatePass{}}
	err := pipe.Run(ctx)
	if err == nil {
		t.Fatal("pipeline succeeded on a disconnected graph")
	}
	if !strings.Contains(err.Error(), "layout pass") {
		t.Fatalf("error %q does not name the failing pass", err)
	}
	if len(ctx.Timings) != 0 {
		t.Fatalf("failed first pass recorded %d timings", len(ctx.Timings))
	}
}

func TestRoutePassRequiresLayout(t *testing.T) {
	ctx := pipelineContext(t, topology.Tree20(), weyl.BasisSqrtISwap, "GHZ", 8, 3)
	if err := (RoutePass{}).Apply(ctx); err == nil {
		t.Fatal("route pass ran without a layout")
	}
}

func TestProfileAndReweightPassesRequireUpstreamArtifacts(t *testing.T) {
	ctx := pipelineContext(t, topology.Tree20(), weyl.BasisSqrtISwap, "GHZ", 8, 3)
	if err := (ProfilePass{}).Apply(ctx); err == nil {
		t.Fatal("profile pass ran without a routed circuit")
	}
	if err := (ProfileGuidedPass{}).Apply(ctx); err == nil {
		t.Fatal("profile-guided pass ran without a pilot routing")
	}
	if err := (TranslatePass{}).Apply(ctx); err == nil {
		t.Fatal("translate pass ran without a routed circuit")
	}
}

// TestTranslatePassPreservesFingerprint pins the translation pass's
// contract: the routed circuit it reads is byte-untouched (its unitary
// fingerprint is preserved exactly), its counts are deterministic across
// runs and equal to the circuit TranslateToBasis builds, and that circuit's
// gate content is exactly what the KAK counting rules prescribe — 1Q ops
// pass through, every 2Q op becomes basis-gate applications (translation's
// interleaved u3 frames are placeholders, so full statevector equality is
// deliberately not claimed).
func TestTranslatePassPreservesFingerprint(t *testing.T) {
	g := topology.SquareLattice16()
	durations := arch.DefaultTiming()
	run := func() (*PassContext, uint64) {
		ctx := pipelineContext(t, g, weyl.BasisSqrtISwap, "QFT", 6, 11)
		pipe := Pipeline{LayoutPass{}, RoutePass{}}
		if err := pipe.Run(ctx); err != nil {
			t.Fatal(err)
		}
		before := ctx.Routed.Circuit.Fingerprint()
		if err := (TranslatePass{Durations: durations}).Apply(ctx); err != nil {
			t.Fatal(err)
		}
		if after := ctx.Routed.Circuit.Fingerprint(); after != before {
			t.Fatalf("translation mutated its input: fingerprint %d -> %d", before, after)
		}
		return ctx, before
	}
	a, fpA := run()
	b, fpB := run()
	if fpA != fpB {
		t.Fatalf("routing not deterministic: input fingerprints %d vs %d", fpA, fpB)
	}
	if a.Counts != b.Counts {
		t.Fatalf("translation counts not deterministic: %+v vs %+v", a.Counts, b.Counts)
	}
	translated, err := TranslateToBasis(a.Routed.Circuit, weyl.BasisSqrtISwap)
	if err != nil {
		t.Fatal(err)
	}
	want := BasisCounts{
		Total2Q:       translated.CountTwoQubit(),
		Critical2Q:    Critical2Q(translated),
		PulseDuration: PulseDurationTable(translated, durations),
	}
	if a.Counts != want {
		t.Fatalf("counted translation %+v, built translation %+v", a.Counts, want)
	}
	// Structural contract: only basis gates and 1Q ops remain.
	got2Q := 0
	for _, op := range translated.Ops {
		if op.Is2Q() {
			if op.Name != "siswap" {
				t.Fatalf("translated circuit contains non-basis 2Q gate %s", op.Name)
			}
			got2Q++
		}
	}
	if got2Q != a.Counts.Total2Q {
		t.Fatalf("translated 2Q count %d, TranslatePass counted %d", got2Q, a.Counts.Total2Q)
	}
}

// TestProfilePassDeterministic pins measurement determinism: routing the
// same circuit with the same seed twice and profiling both yields
// identical per-edge counts.
func TestProfilePassDeterministic(t *testing.T) {
	g := topology.Corral11()
	measure := func() *EdgeProfile {
		ctx := pipelineContext(t, g, weyl.BasisSqrtISwap, "QuantumVolume", 12, 17)
		pipe := Pipeline{LayoutPass{}, RoutePass{}, ProfilePass{}}
		if err := pipe.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.Profile
	}
	a, b := measure(), measure()
	if a.Total() != b.Total() {
		t.Fatalf("profile totals diverge: %d vs %d", a.Total(), b.Total())
	}
	for _, e := range g.Edges() {
		if a.Count(e[0], e[1]) != b.Count(e[0], e[1]) {
			t.Fatalf("edge %v count diverges: %d vs %d", e, a.Count(e[0], e[1]), b.Count(e[0], e[1]))
		}
	}
	if a.Total() == 0 {
		t.Fatal("QV-12 on the corral routed with zero SWAPs — profile test is vacuous")
	}
}

// TestPipelineRecordsTimings checks each executed pass lands one ordered
// timing entry.
func TestPipelineRecordsTimings(t *testing.T) {
	ctx := pipelineContext(t, topology.Tree20(), weyl.BasisSqrtISwap, "QFT", 8, 5)
	pipe := Pipeline{LayoutPass{}, RoutePass{}, ProfilePass{}, TranslatePass{}}
	if err := pipe.Run(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{"layout", "route", "profile", "translate"}
	if len(ctx.Timings) != len(want) {
		t.Fatalf("got %d timings, want %d", len(ctx.Timings), len(want))
	}
	for i, pt := range ctx.Timings {
		if pt.Name != want[i] {
			t.Errorf("timing %d is %q, want %q", i, pt.Name, want[i])
		}
		if pt.Duration < 0 {
			t.Errorf("pass %q has negative duration", pt.Name)
		}
	}
}

// TestProfileGuidedPassKeepsCheapest is the keep-cheapest invariant at the
// pass level: after the pass, induced SWAPs never exceed the pilot's, for
// any iteration bound.
func TestProfileGuidedPassKeepsCheapest(t *testing.T) {
	for _, iters := range []int{1, 2, 3, 5} {
		ctx := pipelineContext(t, topology.Corral11(), weyl.BasisSqrtISwap, "QuantumVolume", 14, 29)
		pipe := Pipeline{LayoutPass{}, RoutePass{}}
		if err := pipe.Run(ctx); err != nil {
			t.Fatal(err)
		}
		pilotSwaps := ctx.Routed.SwapCount
		if err := (ProfileGuidedPass{Iterations: iters}).Apply(ctx); err != nil {
			t.Fatal(err)
		}
		if ctx.Routed.SwapCount > pilotSwaps {
			t.Fatalf("iterations=%d: guided swaps %d exceed pilot %d", iters, ctx.Routed.SwapCount, pilotSwaps)
		}
		if ctx.Profile == nil || ctx.Profile.Total() == 0 {
			t.Fatalf("iterations=%d: pilot profile missing or empty", iters)
		}
	}
}
