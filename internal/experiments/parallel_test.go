package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
)

// equivSpecs are reduced sweeps covering both sweep kinds and every
// Fig4–Fig14 machine family; the full-size specs only differ in sizes and
// trial counts, which don't change the code paths under test.
func equivSpecs() []SweepSpec {
	fig11 := Fig11Spec(true)
	fig11.Workloads = []string{"GHZ", "QFT"}
	fig13 := Fig13Spec(true)
	fig13.Workloads = []string{"QuantumVolume"}
	fig13.Sizes = []int{10}
	fig4 := Fig4Spec(true)
	fig4.Workloads = []string{"GHZ"}
	fig4.Sizes = []int{16}
	fig12 := Fig12Spec(true)
	fig12.Workloads = []string{"GHZ"}
	fig12.Sizes = []int{16}
	fig14 := Fig14Spec(true)
	fig14.Workloads = []string{"GHZ"}
	fig14.Sizes = []int{16}
	return []SweepSpec{fig11, fig13, fig4, fig12, fig14}
}

// TestRunParallelMatchesSerial asserts the sweep engine's core determinism
// guarantee: Parallelism 0 (auto) and explicit worker counts produce Series
// byte-identical to the serial (Parallelism 1) run — same labels, points,
// and ordering.
func TestRunParallelMatchesSerial(t *testing.T) {
	for _, spec := range equivSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			serial := spec
			serial.Parallelism = 1
			want, err := serial.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{0, 4} {
				par := spec
				par.Parallelism = p
				got, err := par.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Parallelism=%d diverges from serial:\n got: %+v\nwant: %+v", p, got, want)
				}
			}
		})
	}
}

// fig15At runs the closed-form Fig. 15 study at an explicit seed and
// decomposition-pool bound, every other Config field left zero.
func fig15At(samples int, seed int64, dc decomp.Config, parallelism int) (*Fig15Result, error) {
	var cfg Config
	cfg.Seed = seed
	cfg.Parallelism = parallelism
	return RunFig15ConfigContext(context.Background(), samples, dc, cfg)
}

// TestFig15ParallelMatchesSerial asserts the decomposition fan-out's
// determinism: every (n, k, sample) cell optimizes under its own
// FNV-derived seed, so the serial and worker-pool schedules produce
// byte-identical studies (exact float equality, not tolerance).
func TestFig15ParallelMatchesSerial(t *testing.T) {
	cfg := fastDecompCfg()
	want, err := fig15At(2, 42, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 4} {
		got, err := fig15At(2, 42, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Fig. 15 at Parallelism=%d diverges from serial", p)
		}
	}
}

// TestHeadlinesParallelMatchesSerial moves the router's old serial ==
// parallel invariant to cell level: the headline study evaluates its
// (size, machine) cells on the cell pool and reduces them in index order,
// so the ratios are bit-identical at every Parallelism.
func TestHeadlinesParallelMatchesSerial(t *testing.T) {
	cfg := QuickConfig()
	cfg.Parallelism = 1
	want, err := HeadlinesContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 4} {
		cfg.Parallelism = p
		got, err := HeadlinesContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism=%d diverges from serial:\n got: %+v\nwant: %+v", p, got, want)
		}
	}
}

// TestCorralScalingParallelMatchesSerial is the same invariant for the
// Corral scaling study, whose rings are its cells.
func TestCorralScalingParallelMatchesSerial(t *testing.T) {
	posts := []int{6, 8, 10}
	cfg := QuickConfig()
	cfg.Parallelism = 1
	want, err := CorralScalingContext(context.Background(), posts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 4} {
		cfg.Parallelism = p
		got, err := CorralScalingContext(context.Background(), posts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism=%d diverges from serial:\n got: %+v\nwant: %+v", p, got, want)
		}
	}
}

// TestFig15CellSeedStability pins the per-cell seed scheme (a seed is a
// pure function of coordinates, so schedules can never change results).
func TestFig15CellSeedStability(t *testing.T) {
	// Golden value pins the derivation across builds and refactors — a
	// self-comparison would pass even if the scheme picked up a
	// process-varying component.
	if got := fig15CellSeed(7, 2, 3, 1); got != 1595833209106522590 {
		t.Fatalf("fig15CellSeed(7,2,3,1) = %d, derivation scheme drifted", got)
	}
	seen := map[int64][3]int{}
	for _, c := range [][3]int{{2, 3, 0}, {2, 3, 1}, {2, 4, 0}, {3, 3, 0}} {
		s := fig15CellSeed(7, c[0], c[1], c[2])
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %v and %v", c, prev)
		}
		seen[s] = c
	}
}

// TestRunContextCancelled ensures a cancelled context aborts the sweep.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Fig11Spec(true)
	spec.Parallelism = 2
	if _, err := spec.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestHeadlinesContextCancelled ensures a cancelled context aborts the
// headline study before its cell pool runs.
func TestHeadlinesContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	cfg.Parallelism = 2
	if _, err := HeadlinesContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCorralScalingContextCancelled ensures a cancelled context aborts the
// Corral scaling study before its cell pool runs.
func TestCorralScalingContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	cfg.Parallelism = 2
	if _, err := CorralScalingContext(ctx, []int{6, 8, 10}, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestTaskSeedStability pins the FNV seed-derivation scheme: the routing
// seed of a sweep cell depends only on its coordinates, so reordering or
// re-slicing a sweep can never change a cell's result.
func TestTaskSeedStability(t *testing.T) {
	a := SweepSpec{ID: "fig11", Config: Config{Options: core.Options{Seed: 2022}}}
	if a.taskSeed("GHZ", 8, "Hypercube") != a.taskSeed("GHZ", 8, "Hypercube") {
		t.Fatal("taskSeed not deterministic")
	}
	distinct := map[int64]string{}
	for _, c := range []struct {
		w string
		n int
		m string
	}{
		{"GHZ", 8, "Hypercube"},
		{"GHZ", 8, "Tree"},
		{"GHZ", 10, "Hypercube"},
		{"QFT", 8, "Hypercube"},
	} {
		s := a.taskSeed(c.w, c.n, c.m)
		if prev, dup := distinct[s]; dup {
			t.Fatalf("seed collision between %v and %s", c, prev)
		}
		distinct[s] = c.w + c.m
	}
}
