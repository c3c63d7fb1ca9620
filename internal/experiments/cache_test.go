package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestSweepWarmCacheByteIdentical is the cache's correctness bar: a sweep
// through a cold store, the same sweep served warm, and the uncached sweep
// all produce byte-identical Series, and the warm pass performs zero
// additional routing (no new fills).
func TestSweepWarmCacheByteIdentical(t *testing.T) {
	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			uncached := spec
			uncached.Parallelism = 1
			want, err := uncached.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			store := cache.NewMemory[core.Metrics](0)
			cold := spec
			cold.Parallelism = 1
			cold.Cache = store
			got, err := cold.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cold cached run diverges from uncached:\n got: %+v\nwant: %+v", got, want)
			}
			afterCold := store.Stats()
			if afterCold.Fills == 0 {
				t.Fatal("cold run filled nothing — cache not consulted")
			}

			warm := cold
			got, err = warm.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("warm cached run diverges from uncached:\n got: %+v\nwant: %+v", got, want)
			}
			afterWarm := store.Stats()
			if afterWarm.Fills != afterCold.Fills {
				t.Fatalf("warm run recomputed: fills %d -> %d", afterCold.Fills, afterWarm.Fills)
			}
			if hits := afterWarm.Hits() - afterCold.Hits(); hits != afterCold.Fills {
				t.Fatalf("warm run hit %d times, want %d (one per cell)", hits, afterCold.Fills)
			}
		})
	}
}

// TestSweepWarmCacheParallel checks the cache under the worker pool: a
// parallel warm run matches the serial uncached output exactly, and the
// singleflight layer keeps fills at one per distinct cell regardless of
// concurrency.
func TestSweepWarmCacheParallel(t *testing.T) {
	spec := Fig11Spec(true)
	spec.Workloads = []string{"GHZ", "QFT"}

	serial := spec
	serial.Parallelism = 1
	want, err := serial.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	store := cache.NewMemory[core.Metrics](0)
	for pass := 0; pass < 2; pass++ {
		par := spec
		par.Parallelism = 4
		par.Cache = store
		got, err := par.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: parallel cached run diverges from serial uncached", pass)
		}
	}
	st := store.Stats()
	if st.Fills != uint64(st.Entries) {
		t.Fatalf("fills %d != distinct cells %d (dedup failed?)", st.Fills, st.Entries)
	}
}

// TestHeadlinesSharedStoreNoExtraRouting pins the acceptance criterion: a
// repeated Headlines invocation against a shared store performs zero
// additional Evaluate routing calls and returns identical ratios.
func TestHeadlinesSharedStoreNoExtraRouting(t *testing.T) {
	store := cache.NewMemory[core.Metrics](0)
	first, err := HeadlinesContext(context.Background(), serialQuickConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := store.Stats()
	if afterFirst.Fills == 0 {
		t.Fatal("first Headlines run filled nothing — store not threaded through")
	}

	second, err := HeadlinesContext(context.Background(), serialQuickConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := store.Stats()
	if afterSecond.Fills != afterFirst.Fills {
		t.Fatalf("repeated Headlines routed again: fills %d -> %d", afterFirst.Fills, afterSecond.Fills)
	}
	if afterSecond.Hits()-afterFirst.Hits() != afterFirst.Fills {
		t.Fatalf("repeated Headlines hit %d times, want %d",
			afterSecond.Hits()-afterFirst.Hits(), afterFirst.Fills)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm Headlines diverges: %+v vs %+v", first, second)
	}
}

// TestCorralScalingSharedStore does the same for the §7 scaling study.
func TestCorralScalingSharedStore(t *testing.T) {
	store := cache.NewMemory[core.Metrics](0)
	first, err := CorralScalingContext(context.Background(), []int{6, 8}, serialQuickConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	fills := store.Stats().Fills
	second, err := CorralScalingContext(context.Background(), []int{6, 8}, serialQuickConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Fills != fills {
		t.Fatalf("repeated CorralScaling routed again: fills %d -> %d", fills, store.Stats().Fills)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm CorralScaling diverges from cold")
	}
}

// TestEvaluateKeySeparation ensures distinct evaluation coordinates never
// share a cache slot: changing the seed, trials, router, circuit, or
// machine must produce a different result or at least a different key — we
// assert indirectly by checking that two different-seed evaluations both
// fill (no false hit).
func TestEvaluateKeySeparation(t *testing.T) {
	store := cache.NewMemory[core.Metrics](0)
	m := core.Tree20SqrtISwap()
	c, err := BenchmarkCircuit("GHZ", 8, 2022)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Options{Seed: 1, Trials: 5, Parallelism: 1, Cache: store}
	if _, err := m.EvaluateContext(context.Background(), c, base); err != nil {
		t.Fatal(err)
	}
	variants := []core.Options{
		{Seed: 2, Trials: 5, Parallelism: 1, Cache: store},
		{Seed: 1, Trials: 6, Parallelism: 1, Cache: store},
		{Seed: 1, Trials: 5, Router: core.RouterSabre, Parallelism: 1, Cache: store},
	}
	for i, opt := range variants {
		if _, err := m.EvaluateContext(context.Background(), c, opt); err != nil {
			t.Fatal(err)
		}
		if got := store.Stats().Fills; got != uint64(i+2) {
			t.Fatalf("variant %d aliased an earlier key: fills = %d, want %d", i, got, i+2)
		}
	}
	// Same coordinates, different machine with identical name but another
	// topology: must not alias.
	other := core.TreeRR20SqrtISwap()
	other.Name = m.Name
	if _, err := other.EvaluateContext(context.Background(), c, base); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Fills; got != uint64(len(variants)+2) {
		t.Fatalf("different topology aliased: fills = %d", got)
	}
	// And the exact original call is a pure hit.
	fills := store.Stats().Fills
	if _, err := m.EvaluateContext(context.Background(), c, base); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Fills != fills {
		t.Fatal("identical evaluation missed the cache")
	}
}
