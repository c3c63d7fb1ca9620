package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/noise"
	"repro/internal/transpile"
	"repro/internal/workloads"
)

// TestCellTimeoutFailsCell: an already-expired per-cell budget (1ns is
// guaranteed dead by the pipeline's first cooperative poll) fails the
// evaluation with context.DeadlineExceeded — no sleeping required to pin
// the deadline path.
func TestCellTimeoutFailsCell(t *testing.T) {
	m := HeavyHex20CX()
	c := workloads.QFT(10, true)
	opt := DefaultOptions()
	opt.CellTimeout = time.Nanosecond
	if _, err := m.EvaluateContext(context.Background(), c, opt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns cell budget = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvaluateContextCancelled: a dead caller context fails the evaluation
// with context.Canceled even with no CellTimeout set.
func TestEvaluateContextCancelled(t *testing.T) {
	m := HeavyHex20CX()
	c := workloads.QFT(8, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.EvaluateContext(ctx, c, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx = %v, want context.Canceled", err)
	}
}

// TestEvaluateKeyExcludesRuntimeKnobs pins the cache-key contract the
// resume journal depends on, field by field over Options. The runtime
// knobs (Parallelism, CellTimeout, Verify, Cache) never change what an
// evaluation computes, so they must not change its identity; every other
// field must move the key under a base that activates it (ProfileIterations
// under ProfileGuided, NoiseShots under Monte-Carlo, Noise under a fidelity
// model). The table is checked against the struct, so a new Options field
// fails here until it is classified.
func TestEvaluateKeyExcludesRuntimeKnobs(t *testing.T) {
	m := HeavyHex20CX()
	c := workloads.QFT(8, true)
	store, err := NewMetricsCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	type edit func(*Options)
	guided := func(o *Options) { o.ProfileGuided = true }
	counted := func(o *Options) { o.Fidelity = FidelityCount; o.Noise = &arch.NoiseProfile{E2Q: 0.01} }
	sampled := func(o *Options) { o.Fidelity = FidelityMonteCarlo }
	runtimeOnly := map[string]edit{
		"Parallelism": func(o *Options) { o.Parallelism = 4 },
		"CellTimeout": func(o *Options) { o.CellTimeout = time.Second },
		"Verify":      func(o *Options) { o.Verify = true },
		"Cache":       func(o *Options) { o.Cache = store },
	}
	keyed := map[string][2]edit{
		"Seed":              {nil, func(o *Options) { o.Seed = 2023 }},
		"Trials":            {nil, func(o *Options) { o.Trials = 7 }},
		"Router":            {nil, func(o *Options) { o.Router = RouterSabre }},
		"ProfileGuided":     {nil, guided},
		"ProfileIterations": {guided, func(o *Options) { o.ProfileIterations = 3 }},
		"Noise":             {counted, func(o *Options) { o.Noise = &arch.NoiseProfile{E2Q: 0.02} }},
		"Fidelity":          {nil, func(o *Options) { o.Fidelity = FidelityCount }},
		"NoiseShots":        {sampled, func(o *Options) { o.NoiseShots = 64 }},
		"NoiseRoute":        {nil, func(o *Options) { o.NoiseRoute = NoiseRoutePure }},
	}
	base := Options{Seed: 2022, Trials: 5}
	for name, e := range runtimeOnly {
		o := base
		e(&o)
		if m.EvaluateKey(c, base) != m.EvaluateKey(c, o) {
			t.Errorf("%s changed the evaluate key", name)
		}
	}
	for name, e := range keyed {
		from := base
		if e[0] != nil {
			e[0](&from)
		}
		to := from
		e[1](&to)
		if m.EvaluateKey(c, from) == m.EvaluateKey(c, to) {
			t.Errorf("%s did not change the evaluate key", name)
		}
	}
	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if _, ok := runtimeOnly[name]; ok {
			continue
		}
		if _, ok := keyed[name]; !ok {
			t.Errorf("Options.%s is not classified as keyed or runtime-only", name)
		}
	}
	if n := len(runtimeOnly) + len(keyed); n != rt.NumField() {
		t.Errorf("%d classified fields, Options has %d", n, rt.NumField())
	}
}

// TestEvaluateContextMatchesEvaluate: an evaluation under
// context.Background() and one under a generous CellTimeout (a live
// deadline context) must report the same metrics.
func TestEvaluateContextMatchesEvaluate(t *testing.T) {
	m := Tree20SqrtISwap()
	c := workloads.QFT(8, true)
	opt := DefaultOptions()
	want, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.CellTimeout = time.Hour
	got, err := m.EvaluateContext(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("context-threaded metrics diverged:\n  plain %+v\n  ctx   %+v", want, got)
	}
}

// TestIdentityMatchesEvaluateKey holds Identity and EvaluateKey to one
// notion of sameness: over options that differ in spelling (an implicit or
// explicit default, an inert field set or not) or in substance, two share
// a key exactly when their identity forms are equal, and Identity is
// idempotent.
func TestIdentityMatchesEvaluateKey(t *testing.T) {
	m := HeavyHex20CX()
	c := workloads.QFT(8, true)
	p := &arch.NoiseProfile{E2Q: 0.002, TDec: 0.001}
	variants := []Options{
		{Seed: 1},
		{Seed: 1, Trials: transpile.DefaultTrials},
		{Seed: 1, Trials: 5, Parallelism: 4, CellTimeout: time.Second, Verify: true},
		{Seed: 1, ProfileIterations: 3},
		{Seed: 1, ProfileGuided: true},
		{Seed: 1, ProfileGuided: true, ProfileIterations: 1},
		{Seed: 1, ProfileGuided: true, ProfileIterations: 3},
		{Seed: 1, Noise: p},
		{Seed: 1, NoiseShots: 64},
		{Seed: 1, Noise: p, Fidelity: FidelityCount},
		{Seed: 1, Noise: p, Fidelity: FidelityCount, NoiseShots: 64},
		{Seed: 1, Noise: p, Fidelity: FidelityMonteCarlo},
		{Seed: 1, Noise: p, Fidelity: FidelityMonteCarlo, NoiseShots: noise.DefaultShots},
		{Seed: 1, Noise: p, Fidelity: FidelityMonteCarlo, NoiseShots: 64},
		{Seed: 1, Noise: p, NoiseRoute: NoiseRoutePure},
		{Seed: 1, Noise: &arch.NoiseProfile{E2Q: 0.004}, NoiseRoute: NoiseRoutePure},
		{Seed: 1, Router: RouterSabre},
		{Seed: 2},
	}
	for i, a := range variants {
		if id := a.Identity(); !reflect.DeepEqual(id.Identity(), id) {
			t.Errorf("variant %d: Identity is not idempotent", i)
		}
		for j, b := range variants[:i] {
			sameID := reflect.DeepEqual(a.Identity(), b.Identity())
			if sameKey := m.EvaluateKey(c, a) == m.EvaluateKey(c, b); sameID != sameKey {
				t.Errorf("variants %d and %d: equal identity %v, equal key %v", j, i, sameID, sameKey)
			}
		}
	}
}

// TestNamesRoundTrip: every value of the evaluation enums parses back from
// its name, and an unknown name is refused with the accepted ones listed.
func TestNamesRoundTrip(t *testing.T) {
	testNames(t, RouterNames, "want stochastic or sabre")
	testNames(t, FidelityNames, "want count or montecarlo")
	testNames(t, NoiseRouteNames, "want pure or blend")
}

func testNames[T ~int](t *testing.T, n Names[T], want string) {
	t.Helper()
	for i := range n {
		if v, err := n.Parse("flag", n.String(T(i))); err != nil || v != T(i) {
			t.Errorf("Parse(String(%d)) = %d, %v", i, v, err)
		}
	}
	if _, err := n.Parse("flag", "bogus"); err == nil || err.Error() != `unknown flag "bogus": `+want {
		t.Errorf("Parse(bogus) = %v, want %q", err, want)
	}
}
