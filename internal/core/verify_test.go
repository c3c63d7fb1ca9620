package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestEvaluateVerifyNeutral pins the Options.Verify contract: a verified
// evaluation succeeds on the stock pipeline and returns exactly the
// metrics of an unverified one (the pass checks, never changes, the
// routing) — which is why Verify is excluded from the cache key.
func TestEvaluateVerifyNeutral(t *testing.T) {
	c := workloads.QuantumVolume(8, rand.New(rand.NewSource(6)))
	for _, m := range []Machine{Tree20SqrtISwap(), Corral11SqrtISwap(), HeavyHex20CX()} {
		base := Options{Seed: 2022, Trials: 5}
		plain, err := m.EvaluateContext(context.Background(), c, base)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		base.Verify = true
		verified, err := m.EvaluateContext(context.Background(), c, base)
		if err != nil {
			t.Fatalf("%s verified: %v", m.Name, err)
		}
		if plain != verified {
			t.Fatalf("%s: verified metrics differ:\n  plain    %+v\n  verified %+v", m.Name, plain, verified)
		}
	}
}

// TestEvaluateVerifyBypassesCache pins the assurance contract: a verified
// Evaluate must run the full pipeline even when an identical (unverified)
// evaluation is already cached — a hit would silently skip verification.
func TestEvaluateVerifyBypassesCache(t *testing.T) {
	c := workloads.QuantumVolume(6, rand.New(rand.NewSource(9)))
	m := Tree20SqrtISwap()
	store, err := NewMetricsCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 2022, Trials: 5, Cache: store}
	warm, err := m.EvaluateContext(context.Background(), c, opt) // fills the cache
	if err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	opt.Verify = true
	verified, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if after.Hits() != before.Hits() {
		t.Fatalf("verified Evaluate consulted the cache (%d -> %d hits); it must re-run the pipeline", before.Hits(), after.Hits())
	}
	if warm != verified {
		t.Fatalf("verified metrics diverged from cached ones:\n  cached   %+v\n  verified %+v", warm, verified)
	}
}

// TestEvaluateVerifyGuided covers the profile-guided pipeline: VerifyPass
// sits after the guided re-route, so it checks the routing that is
// actually kept.
func TestEvaluateVerifyGuided(t *testing.T) {
	c := workloads.QuantumVolume(8, rand.New(rand.NewSource(7)))
	m := Tree20SqrtISwap()
	opt := Options{Seed: 2022, Trials: 5, ProfileGuided: true, Verify: true}
	if _, err := m.EvaluateContext(context.Background(), c, opt); err != nil {
		t.Fatalf("guided verified evaluation: %v", err)
	}
}

// TestEvaluateVerifyWidthError pins the descriptive failure on machines
// whose routed circuits exceed the simulator's capacity.
func TestEvaluateVerifyWidthError(t *testing.T) {
	c := workloads.QuantumVolume(32, rand.New(rand.NewSource(8)))
	m := Hypercube84SqrtISwap()
	_, err := m.EvaluateContext(context.Background(), c, Options{Seed: 2022, Trials: 5, Verify: true})
	if err == nil {
		t.Skip("32-qubit routing stayed simulable; width error not exercised")
	}
	if !strings.Contains(err.Error(), "verify pass") {
		t.Fatalf("width failure %q does not name the verify pass", err)
	}
}
