package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFig11DefaultMatchesPR2 pins the default (ProfileGuided=false)
// pipeline to an exact Fig. 11 quick-mode series: the profile-guided
// subsystem must be invisible until switched on. The golden file is the
// FormatSeries output `qcbench -fig 11` prints. A change that moves the
// router's random stream regenerates it, bumps core.evaluateKeyDomain and
// must pass TestClaimsEnsemble; the counter-based draws did.
func TestFig11DefaultMatchesPR2(t *testing.T) {
	want, err := os.ReadFile("testdata/fig11_quick_pr2.golden")
	if err != nil {
		t.Fatal(err)
	}
	series, err := Fig11Spec(true).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := FormatSeries(series, SwapCounts)
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("default pipeline diverged from PR 2 at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("default pipeline output length diverged from PR 2: %d vs %d lines", len(gl), len(wl))
	}
}

// TestFig11ProfileGuidedMatchesGolden pins the profile-guided pipeline the
// same way the default one is pinned: the guided Fig. 11 quick-mode series
// must reproduce the recorded output, regenerated with the default golden
// whenever the router's random stream moves. Any other diff means the
// guided pass sequence changed behavior — bump
// core.evaluateKeyDomain (or the guided key tag) and regenerate with
// `qcbench -fig 11 -profile`.
func TestFig11ProfileGuidedMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig11_quick_profile_pr4.golden")
	if err != nil {
		t.Fatal(err)
	}
	spec := Fig11Spec(true)
	spec.ProfileGuided = true
	series, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := FormatSeries(series, SwapCounts)
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("guided pipeline diverged from PR 4 at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("guided pipeline output length diverged from PR 4: %d vs %d lines", len(gl), len(wl))
	}
}

// corralTreeSubset filters a spec down to the SNAIL corral/tree machines.
func corralTreeSubset(spec SweepSpec) SweepSpec {
	var ms []core.Machine
	for _, m := range spec.Machines {
		if strings.Contains(m.Name, "Tree") || strings.Contains(m.Name, "Corral") {
			ms = append(ms, m)
		}
	}
	spec.Machines = ms
	return spec
}

func TestProfileGuidedSweepNotWorse(t *testing.T) {
	spec := corralTreeSubset(Fig11Spec(true))
	spec.Workloads = []string{"QuantumVolume", "QFT"}
	if len(spec.Machines) != 4 {
		t.Fatalf("expected 4 corral/tree machines, got %d", len(spec.Machines))
	}
	base, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spec.ProfileGuided = true
	guided, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(guided) {
		t.Fatal("series shape changed under profile guidance")
	}
	improved := 0
	for i := range base {
		if len(base[i].Points) != len(guided[i].Points) {
			t.Fatalf("%s/%s: point count changed", base[i].Label, base[i].Workload)
		}
		for j := range base[i].Points {
			bp, gp := base[i].Points[j], guided[i].Points[j]
			if gp.Total > bp.Total {
				t.Errorf("%s/%s size %d: guided swaps %g > baseline %g",
					base[i].Label, base[i].Workload, bp.Size, gp.Total, bp.Total)
			}
			if gp.Total < bp.Total {
				improved++
			}
		}
	}
	t.Logf("profile guidance improved %d cells (never regressed)", improved)
}

// TestProfileGuidedSharedCachedirNoCrossModeHits runs the same sweep in
// baseline then guided mode against one shared on-disk cache directory:
// the guided run must see zero hits from the baseline's entries (and vice
// versa), while a same-mode rerun is served entirely from disk.
func TestProfileGuidedSharedCachedirNoCrossModeHits(t *testing.T) {
	dir := t.TempDir()
	spec := Fig11Spec(true)
	spec.Workloads = []string{"GHZ"}
	spec.Parallelism = 1

	storeBase, err := core.NewMetricsCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cache = storeBase
	baseSeries, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells := storeBase.Stats().Fills
	if cells == 0 {
		t.Fatal("baseline sweep cached nothing")
	}

	storeGuided, err := core.NewMetricsCache(0, dir) // fresh store, same disk tier
	if err != nil {
		t.Fatal(err)
	}
	spec.ProfileGuided = true
	spec.Cache = storeGuided
	if _, err := spec.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	gst := storeGuided.Stats()
	if gst.Hits() != 0 {
		t.Fatalf("guided run got %d hits from the baseline's shared cachedir (cross-mode contamination)", gst.Hits())
	}
	if gst.Fills != cells {
		t.Errorf("guided run filled %d cells, baseline filled %d", gst.Fills, cells)
	}

	// Same-mode warm rerun: everything from disk, zero evaluations.
	storeWarm, err := core.NewMetricsCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cache = storeWarm
	if _, err := spec.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	wst := storeWarm.Stats()
	if wst.Fills != 0 || wst.DiskHits != cells {
		t.Errorf("guided warm rerun: fills = %d diskHits = %d, want 0/%d", wst.Fills, wst.DiskHits, cells)
	}

	// And the baseline mode still hits its own entries.
	storeWarmBase, err := core.NewMetricsCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec.ProfileGuided = false
	spec.Cache = storeWarmBase
	warmBase, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	bst := storeWarmBase.Stats()
	if bst.Fills != 0 || bst.DiskHits != cells {
		t.Errorf("baseline warm rerun: fills = %d diskHits = %d, want 0/%d", bst.Fills, bst.DiskHits, cells)
	}
	if FormatSeries(warmBase, spec.Kind) != FormatSeries(baseSeries, spec.Kind) {
		t.Error("baseline warm rerun not byte-identical to cold run")
	}
}
