package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/transpile"
	"repro/internal/workloads"
)

// legacyTranspile is a frozen reimplementation of the pre-pipeline
// monolithic Transpile (dense layout → router → optional single
// pilot→reweight step → translation, hardwired in sequence), kept as the
// reference the pass pipeline must reproduce byte-for-byte.
func legacyTranspile(m Machine, c *circuit.Circuit, opt Options) (*Transpiled, error) {
	routeOnce := func(cost [][]float64) (transpile.Layout, *transpile.RouteResult, error) {
		layout, err := transpile.DenseLayoutCost(m.Graph, c, cost)
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		var routed *transpile.RouteResult
		switch opt.Router {
		case RouterStochastic:
			routed, err = transpile.StochasticSwapCostCtx(context.Background(), m.Graph, c, layout, rng, opt.Trials, cost)
		case RouterSabre:
			routed, err = transpile.SabreSwapCostCtx(context.Background(), m.Graph, c, layout, rng, cost)
		default:
			return nil, nil, fmt.Errorf("unknown router %d", opt.Router)
		}
		if err != nil {
			return nil, nil, err
		}
		return layout, routed, nil
	}
	layout, routed, err := routeOnce(nil)
	if err != nil {
		return nil, err
	}
	var profile *transpile.EdgeProfile
	if opt.ProfileGuided {
		profile, err = transpile.ProfileRoutedCircuit(m.Graph, routed.Circuit)
		if err != nil {
			return nil, err
		}
		if routed.SwapCount > 0 {
			wdist, err := m.Graph.WeightedDistances(profile.Weights(transpile.DefaultPressureAlpha))
			if err != nil {
				return nil, err
			}
			gLayout, gRouted, err := routeOnce(wdist)
			if err != nil {
				return nil, err
			}
			if gRouted.SwapCount < routed.SwapCount {
				layout, routed = gLayout, gRouted
			}
		}
	}
	translated, err := transpile.TranslateToBasis(routed.Circuit, m.Basis)
	if err != nil {
		return nil, err
	}
	return &Transpiled{
		Layout:     layout,
		Routed:     routed.Circuit,
		Translated: translated,
		Metrics: Metrics{
			Machine:       m.Name,
			Width:         c.N,
			PreRouting2Q:  c.CountTwoQubit(),
			TotalSwaps:    routed.Circuit.CountByName("swap"),
			InducedSwaps:  routed.SwapCount,
			CriticalSwaps: routed.Circuit.CriticalSwaps(),
			Total2Q:       translated.CountTwoQubit(),
			Critical2Q:    transpile.Critical2Q(translated),
			PulseDuration: transpile.PulseDuration(translated, m.Basis),
		},
		Profile: profile,
	}, nil
}

// TestPipelineMatchesLegacyTranspile pins the pass-pipeline refactor: for
// every Machines16 machine, in baseline and single-iteration guided mode,
// the pipeline's artifacts are byte-identical to the pre-refactor
// monolithic flow — same layout, same routed and translated circuits
// (fingerprints cover width, ops, params, and unitary bit patterns), same
// metrics, same pilot profile totals.
func TestPipelineMatchesLegacyTranspile(t *testing.T) {
	for _, m := range Machines16() {
		for _, wl := range []string{"QuantumVolume", "GHZ"} {
			c, err := workloads.Generate(wl, 12, rand.New(rand.NewSource(31)))
			if err != nil {
				t.Fatal(err)
			}
			for _, guided := range []bool{false, true} {
				opt := Options{Seed: 2022, Trials: 5, ProfileGuided: guided}
				want, err := legacyTranspile(m, c, opt)
				if err != nil {
					t.Fatalf("%s/%s legacy: %v", m.Name, wl, err)
				}
				got, err := m.TranspileContext(context.Background(), c, opt)
				if err != nil {
					t.Fatalf("%s/%s pipeline: %v", m.Name, wl, err)
				}
				tag := fmt.Sprintf("%s/%s guided=%v", m.Name, wl, guided)
				if !reflect.DeepEqual(got.Layout, want.Layout) {
					t.Errorf("%s: layout diverged: %v vs %v", tag, got.Layout, want.Layout)
				}
				if got.Routed.Fingerprint() != want.Routed.Fingerprint() {
					t.Errorf("%s: routed circuit diverged", tag)
				}
				if got.Translated.Fingerprint() != want.Translated.Fingerprint() {
					t.Errorf("%s: translated circuit diverged", tag)
				}
				if got.Metrics != want.Metrics {
					t.Errorf("%s: metrics diverged:\n got %+v\nwant %+v", tag, got.Metrics, want.Metrics)
				}
				if guided {
					if got.Profile == nil || want.Profile == nil {
						t.Fatalf("%s: missing pilot profile", tag)
					}
					if got.Profile.Total() != want.Profile.Total() {
						t.Errorf("%s: pilot profile diverged: %d vs %d", tag, got.Profile.Total(), want.Profile.Total())
					}
				}
			}
		}
	}
}

// TestProfileIterationsMonotone pins the keep-cheapest acceptance
// criterion: ProfileIterations=N never yields more induced SWAPs than N−1
// (the iteration sequence is a deterministic prefix extension, and the
// incumbent is replaced only by strictly cheaper routings).
func TestProfileIterationsMonotone(t *testing.T) {
	for _, m := range []Machine{Corral11SqrtISwap(), Tree20SqrtISwap()} {
		c, err := workloads.Generate("QuantumVolume", 14, rand.New(rand.NewSource(37)))
		if err != nil {
			t.Fatal(err)
		}
		prev := -1
		for n := 1; n <= 4; n++ {
			tr, err := m.TranspileContext(context.Background(), c, Options{Seed: 2022, Trials: 5, ProfileGuided: true, ProfileIterations: n})
			if err != nil {
				t.Fatalf("%s iterations=%d: %v", m.Name, n, err)
			}
			if prev >= 0 && tr.Metrics.InducedSwaps > prev {
				t.Errorf("%s: iterations=%d induced %d > iterations=%d induced %d",
					m.Name, n, tr.Metrics.InducedSwaps, n-1, prev)
			}
			prev = tr.Metrics.InducedSwaps
		}
	}
}

// TestProfileIterationsDefaultEquivalence pins backward compatibility:
// ProfileIterations 0 and 1 are the same single pilot→reweight step guided
// mode has always run.
func TestProfileIterationsDefaultEquivalence(t *testing.T) {
	m := Corral11SqrtISwap()
	c, err := workloads.Generate("QuantumVolume", 14, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := m.EvaluateContext(context.Background(), c, Options{Seed: 2022, Trials: 5, ProfileGuided: true})
	if err != nil {
		t.Fatal(err)
	}
	one, err := m.EvaluateContext(context.Background(), c, Options{Seed: 2022, Trials: 5, ProfileGuided: true, ProfileIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zero != one {
		t.Fatalf("iterations 0 and 1 diverge: %+v vs %+v", zero, one)
	}
}

// TestEvaluateKeyIterationStability pins the cache-key compatibility
// criteria: iteration counts 0 and 1 share the single-step guided key
// namespace (warm PR 3 -cachedir entries keep hitting), >1 gets its own
// namespace, and baseline keys ignore the field entirely.
func TestEvaluateKeyIterationStability(t *testing.T) {
	m := Corral11SqrtISwap()
	c, err := workloads.Generate("GHZ", 10, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	guided := Options{Seed: 2022, Trials: 5, ProfileGuided: true}
	one := guided
	one.ProfileIterations = 1
	two := guided
	two.ProfileIterations = 2
	three := guided
	three.ProfileIterations = 3
	if m.EvaluateKey(c, guided) != m.EvaluateKey(c, one) {
		t.Fatal("iterations=1 moved the single-step guided key: warm PR 3 entries would miss")
	}
	if m.EvaluateKey(c, guided) == m.EvaluateKey(c, two) {
		t.Fatal("iterations=2 shares the single-step guided key")
	}
	if m.EvaluateKey(c, two) == m.EvaluateKey(c, three) {
		t.Fatal("iterations 2 and 3 share a key")
	}
	base := Options{Seed: 2022, Trials: 5}
	baseIters := base
	baseIters.ProfileIterations = 5
	if m.EvaluateKey(c, base) != m.EvaluateKey(c, baseIters) {
		t.Fatal("baseline key depends on ProfileIterations (field is ignored without ProfileGuided)")
	}
}
