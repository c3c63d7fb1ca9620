package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workloads"
)

// profiledMachines are the SNAIL designs whose fence/root links concentrate
// SWAP pressure — the topologies profile-guided routing exists for.
func profiledMachines() []Machine {
	return []Machine{
		Corral11SqrtISwap(),
		Corral12SqrtISwap(),
		Tree20SqrtISwap(),
		TreeRR20SqrtISwap(),
	}
}

func TestProfileGuidedNeverWorse(t *testing.T) {
	// Transpile keeps the cheaper of pilot and guided routing, so guided
	// mode can never induce more SWAPs than the baseline it profiled.
	for _, m := range profiledMachines() {
		for _, wl := range []string{"QuantumVolume", "QFT"} {
			c, err := workloads.Generate(wl, 16, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			base := Options{Seed: 2022, Trials: 5}
			guided := base
			guided.ProfileGuided = true
			mb, err := m.EvaluateContext(context.Background(), c, base)
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", m.Name, wl, err)
			}
			mg, err := m.EvaluateContext(context.Background(), c, guided)
			if err != nil {
				t.Fatalf("%s/%s guided: %v", m.Name, wl, err)
			}
			if mg.TotalSwaps > mb.TotalSwaps {
				t.Errorf("%s/%s: guided swaps %d > baseline %d", m.Name, wl, mg.TotalSwaps, mb.TotalSwaps)
			}
		}
	}
}

func TestProfileGuidedDeterministic(t *testing.T) {
	m := Corral11SqrtISwap()
	c, err := workloads.Generate("QuantumVolume", 14, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 7, Trials: 5, ProfileGuided: true}
	a, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("profile-guided evaluation nondeterministic: %+v vs %+v", a, b)
	}
}

func TestProfileGuidedSabre(t *testing.T) {
	m := Tree20SqrtISwap()
	c, err := workloads.Generate("QFT", 12, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.EvaluateContext(context.Background(), c, Options{Seed: 7, Router: RouterSabre})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := m.EvaluateContext(context.Background(), c, Options{Seed: 7, Router: RouterSabre, ProfileGuided: true})
	if err != nil {
		t.Fatal(err)
	}
	if guided.TotalSwaps > base.TotalSwaps {
		t.Errorf("SABRE guided swaps %d > baseline %d", guided.TotalSwaps, base.TotalSwaps)
	}
}

func TestProfileGuidedTranspileExposesProfile(t *testing.T) {
	m := Corral11SqrtISwap()
	c, err := workloads.Generate("QuantumVolume", 12, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.TranspileContext(context.Background(), c, Options{Seed: 7, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Profile != nil {
		t.Error("baseline transpile should carry no profile")
	}
	tg, err := m.TranspileContext(context.Background(), c, Options{Seed: 7, Trials: 5, ProfileGuided: true})
	if err != nil {
		t.Fatal(err)
	}
	if tg.Profile == nil {
		t.Fatal("guided transpile lost its pilot profile")
	}
	if tg.Profile.Total() != tr.Routed.CountByName("swap") {
		t.Errorf("pilot profile total %d, baseline routed swaps %d", tg.Profile.Total(), tr.Routed.CountByName("swap"))
	}
}

func TestEvaluateKeySeparatesProfileModes(t *testing.T) {
	m := Corral11SqrtISwap()
	c, err := workloads.Generate("GHZ", 10, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 2022, Trials: 5}
	guided := base
	guided.ProfileGuided = true
	if m.EvaluateKey(c, base) == m.EvaluateKey(c, guided) {
		t.Fatal("baseline and profile-guided evaluations share a cache key")
	}
	// The baseline key must not move when the flag is merely *available*:
	// warm PR-2 cache directories stay valid for default-mode runs. Guard
	// by construction: the guided field is appended only when set, so the
	// baseline hash covers the same bytes as before the feature existed.
	if m.EvaluateKey(c, base) != m.EvaluateKey(c, Options{Seed: 2022, Trials: 5, ProfileGuided: false}) {
		t.Fatal("baseline key unstable")
	}
}

func TestProfileGuidedCacheIsolation(t *testing.T) {
	m := Corral11SqrtISwap()
	c, err := workloads.Generate("QuantumVolume", 12, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewMetricsCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 2022, Trials: 5, Cache: store}
	guided := base
	guided.ProfileGuided = true
	if _, err := m.EvaluateContext(context.Background(), c, base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateContext(context.Background(), c, guided); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Fills != 2 {
		t.Errorf("fills = %d, want 2 (modes must not share entries)", st.Fills)
	}
	if st.Hits() != 0 {
		t.Errorf("hits = %d, want 0 (cross-mode hit!)", st.Hits())
	}
	// Same-mode repeats hit.
	if _, err := m.EvaluateContext(context.Background(), c, base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateContext(context.Background(), c, guided); err != nil {
		t.Fatal(err)
	}
	st = store.Stats()
	if st.Fills != 2 || st.Hits() != 2 {
		t.Errorf("after repeats: fills = %d hits = %d, want 2/2", st.Fills, st.Hits())
	}
}
