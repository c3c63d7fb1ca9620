package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	if n := minSamplesFor(0.99); n != 1000 {
		t.Fatalf("minSamplesFor(0.99) = %d, want 1000", n)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Fatal("p99 reported from 999 samples (9 beyond it)")
	}
	v, ok := percentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Fatal("p50 reported from 19 samples")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

// TestQuartilesMatchPython checks quartiles against Python's
// statistics.quantiles(xs, n=4), the rule the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// TestKeyMixReproducible: a client's key stream is a pure function of the
// seed and the client, and different seeds or clients draw differently.
func TestKeyMixReproducible(t *testing.T) {
	const n, draws = 168, 2000
	stream := func(seed int64, c int) []int {
		next := keyMix(seed, c, n)
		out := make([]int, draws)
		for i := range out {
			out[i] = next()
			if out[i] < 0 || out[i] >= n {
				t.Fatalf("key %d outside [0, %d)", out[i], n)
			}
		}
		return out
	}
	equal := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a := stream(7, 0)
	if !equal(a, stream(7, 0)) {
		t.Fatal("same seed and client drew different keys")
	}
	if equal(a, stream(7, 1)) || equal(a, stream(8, 0)) {
		t.Fatal("different seeds or clients drew the same keys")
	}
	seen := make(map[int]bool)
	for _, k := range a {
		seen[k] = true
	}
	if len(seen) < n*9/10 {
		t.Fatalf("2000 draws hit only %d of %d keys", len(seen), n)
	}
}

// TestWindowPercentiles: the daemon's p50 and p99 are medians over whole
// windows of each window's percentiles, skipping windows too thin for a
// p99 and the partial window at the end.
func TestWindowPercentiles(t *testing.T) {
	var r clientRun
	add := func(window, n int, lat float64) {
		for i := 0; i < n; i++ {
			r.done = append(r.done, time.Duration(window)*rateWindow+time.Duration(i))
			r.lat = append(r.lat, lat+float64(i)/float64(n))
		}
	}
	add(0, 1000, 1) // p50 1.499, p99 1.989
	add(1, 1000, 3) // p50 3.499, p99 3.989
	add(2, 999, 9)  // too few for a p99: skipped
	add(3, 1000, 2) // p50 2.499, p99 2.989
	add(4, 5000, 50)
	r.wall = 4*rateWindow + rateWindow/2 // window 4 is partial
	p50, p99, ok := r.percentiles()
	if !ok || math.Abs(p50-2.499) > 1e-9 || math.Abs(p99-2.989) > 1e-9 {
		t.Fatalf("percentiles = %v, %v, %v; want 2.499, 2.989, true", p50, p99, ok)
	}
	r.wall = rateWindow / 2
	if _, _, ok := r.percentiles(); ok {
		t.Fatal("percentiles reported without a whole window")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTime: a span's self time is its duration minus the union of its
// children's intervals, and module totals add up to the root's duration.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "par.pass", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "experiments.cell", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "experiments.cell", Parent: 0, Start: ms(20), End: ms(50)}, // overlaps the first
		{Name: "core.transpile", Parent: 1, Start: ms(12), End: ms(28)},
		{Name: "transpile.route", Parent: 3, Start: ms(12), End: ms(22)},
		{Name: "transpile.route", Parent: 3, Start: ms(22), End: ms(40)}, // overruns its parent
		{Name: "noise.estimate", Parent: 0, Start: ms(60), End: ms(70)},
	}
	want := []time.Duration{ms(100 - 40 - 10), ms(20 - 16), ms(30), ms(0), ms(10), ms(18), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%d %s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["par"] != ms(50) || by["experiments"] != ms(34) || by["transpile"] != ms(28) || by["noise"] != ms(10) {
		t.Errorf("module self times %v", by)
	}
	if m := meanMicros(spans, "transpile.route"); m != 14000 {
		t.Errorf("mean route span = %vµs, want 14000", m)
	}
}

// TestNilTracer: an untraced run's nil tracer records nothing.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	i := tr.begin("core.key", -1)
	tr.end(i)
	tr.rename(i, "x")
	if at := tr.add("transpile.route", i, ms(3), ms(2)); at != ms(3) {
		t.Fatalf("nil add advanced to %v", at)
	}
}

// TestWorse pins the bound comparator in both directions.
func TestWorse(t *testing.T) {
	for _, tc := range []struct {
		base, cur float64
		better    string
		bound     float64
		worse     bool
	}{
		{100, 119, "lower", 0.2, false},
		{100, 121, "lower", 0.2, true},
		{100, 50, "lower", 0.2, false},
		{100, 81, "higher", 0.2, false},
		{100, 79, "higher", 0.2, true},
		{100, 150, "higher", 0.2, false},
		{100, 100, "lower", 0, false},
	} {
		got, err := worse(tc.base, tc.cur, tc.better, tc.bound)
		if err != nil || got != tc.worse {
			t.Errorf("worse(%v, %v, %s, %v) = %v, %v; want %v", tc.base, tc.cur, tc.better, tc.bound, got, err, tc.worse)
		}
	}
	if _, err := worse(0, 1, "lower", 0.1); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, err := worse(1, 1, "sideways", 0.1); err == nil {
		t.Error("unknown direction accepted")
	}
}

// TestAgreeBothDirections checks that two run sets agree only when
// neither median is worse than the other by more than the bound.
func TestAgreeBothDirections(t *testing.T) {
	for _, tc := range []struct {
		a, b float64
		bad  bool
	}{
		{100, 110, false},
		{100, 90, false},
		{100, 130, true}, // B worse
		{130, 100, true}, // A worse: the sets disagree all the same
	} {
		if verdict, bad := agree(tc.a, tc.b, "lower", 0.25); bad != tc.bad {
			t.Errorf("agree(%v, %v) = %q, %v; want bad=%v", tc.a, tc.b, verdict, bad, tc.bad)
		}
	}
}

// TestSeedDiffs checks the same-seed comparison of exact metrics.
func TestSeedDiffs(t *testing.T) {
	run := func(seed int64, v float64) seededResult {
		return seededResult{Seed: seed, result: result{Metrics: map[string]metricValue{"swaps_total": {Value: v}}}}
	}
	a := []seededResult{run(1, 100), run(2, 200)}
	if d := seedDiffs(a, []seededResult{run(2, 200), run(1, 100), run(3, 7)}, "swaps_total"); d != "" {
		t.Errorf("equal runs reported as %q", d)
	}
	if d := seedDiffs(a, []seededResult{run(1, 101), run(2, 200)}, "swaps_total"); d != "seed 1 100→101" {
		t.Errorf("one changed seed reported as %q", d)
	}
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json, the metric tables
// and the workload list in step, and checks the bounds' limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadRuns) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadRuns))
	}
	for _, w := range bf.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("workload %s has no run function", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, table has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, table has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if d.moves == "" {
			t.Errorf("%s does not say which end-to-end metric it moves", d.name)
		}
	}
}
