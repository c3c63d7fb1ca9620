// Benchmarks regenerating each paper artifact (Tables 1-2, Figs. 4-15) in
// reduced "quick" configurations, plus ablations and micro-benchmarks of
// the pipeline's hot paths. Full-size regeneration is the job of the cmd/
// tools (qcbench -full, fidsweep); these benches keep each iteration small
// enough for routine `go test -bench=.` runs on one core.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/decomp"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/gates"
	"repro/internal/optimize"
	"repro/internal/sim"
	"repro/internal/snail"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
	"repro/internal/workloads"
)

// ---- Tables ----

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 8 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 7 {
			b.Fatal("bad table")
		}
	}
}

// runSweep executes a reduced sweep spec as a benchmark body.
func runSweep(b *testing.B, spec experiments.SweepSpec, workloadSubset []string) {
	b.Helper()
	spec.Workloads = workloadSubset
	for i := 0; i < b.N; i++ {
		series, err := spec.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// ---- Figures 4, 11, 12: SWAP-count sweeps ----

func BenchmarkFig4(b *testing.B) {
	runSweep(b, experiments.Fig4Spec(true), []string{"QuantumVolume", "GHZ"})
}

func BenchmarkFig11(b *testing.B) {
	runSweep(b, experiments.Fig11Spec(true), []string{"QuantumVolume", "QFT", "GHZ"})
}

func BenchmarkFig12(b *testing.B) {
	runSweep(b, experiments.Fig12Spec(true), []string{"QuantumVolume", "GHZ"})
}

// BenchmarkFig11WarmCache is the sweep-level cache benchmark: after the
// first iteration, every cell is a content-addressed hit, so the loop
// measures cache-service latency for a full figure regeneration. Hit/miss
// counts land in the bench JSON (scripts/bench.sh).
func BenchmarkFig11WarmCache(b *testing.B) {
	spec := experiments.Fig11Spec(true)
	spec.Workloads = []string{"QuantumVolume", "QFT", "GHZ"}
	spec.Parallelism = 1
	store, err := core.NewMetricsCache(0, "")
	if err != nil {
		b.Fatal(err)
	}
	spec.Cache = store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	st := store.Stats()
	b.ReportMetric(float64(st.Hits())/float64(b.N), "cache_hits/op")
	b.ReportMetric(float64(st.Misses)/float64(b.N), "cache_misses/op")
}

// ---- Figures 13, 14: co-design sweeps ----

func BenchmarkFig13(b *testing.B) {
	runSweep(b, experiments.Fig13Spec(true), []string{"QuantumVolume", "QFT", "GHZ"})
}

func BenchmarkFig14(b *testing.B) {
	runSweep(b, experiments.Fig14Spec(true), []string{"QuantumVolume", "GHZ"})
}

// ---- Figure 6: chevron ----

func BenchmarkFig6(b *testing.B) {
	m := dynamics.ExchangeModel{G: 2 * math.Pi * 0.5, T1: 40}
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.ChevronMap(m, 2.0, 48, 2*math.Pi*1.5, 33); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 15: n√iSWAP fidelity study (reduced) ----

func BenchmarkFig15(b *testing.B) {
	dc := decomp.Config{Restarts: 2, Adam: optimize.AdamConfig{MaxIter: 150, LearningRate: 0.08}}
	var cfg experiments.Config
	cfg.Seed = 7
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig15ConfigContext(context.Background(), 2, dc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §1/§6 headline ratios ----

// headlineBenchConfig is the quick serial Headlines configuration the
// benchmarks share, with an optional store.
func headlineBenchConfig(store *core.MetricsCache) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Parallelism = 1
	cfg.Cache = store
	return cfg
}

func BenchmarkHeadlines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.HeadlinesContext(context.Background(), headlineBenchConfig(nil))
		if err != nil {
			b.Fatal(err)
		}
		if h.Total2QRatio <= 1 {
			b.Fatalf("co-design advantage vanished: %+v", h)
		}
	}
}

// BenchmarkHeadlinesWarmCache measures Headlines served from a shared
// content-addressed store: every iteration after the first is pure cache
// hits, so ns/op approaches the non-routing overhead. The custom
// cache_hits/op and cache_misses/op metrics land in the bench JSON via
// scripts/bench.sh.
func BenchmarkHeadlinesWarmCache(b *testing.B) {
	store, err := core.NewMetricsCache(0, "")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h, err := experiments.HeadlinesContext(context.Background(), headlineBenchConfig(store))
		if err != nil {
			b.Fatal(err)
		}
		if h.Total2QRatio <= 1 {
			b.Fatalf("co-design advantage vanished: %+v", h)
		}
	}
	st := store.Stats()
	b.ReportMetric(float64(st.Hits())/float64(b.N), "cache_hits/op")
	b.ReportMetric(float64(st.Misses)/float64(b.N), "cache_misses/op")
}

// ---- Profile-guided routing (ISSUE 3 tentpole) ----

// BenchmarkProfileGuided compares baseline and profile-guided routing on
// the SNAIL corral/tree machines with a 16-qubit QuantumVolume circuit.
// The swaps metric lands in the bench JSON (scripts/bench.sh) so the
// profile-guided SWAP advantage is tracked across PRs; guided mode keeps
// the cheaper of pilot and re-weighted routing, so its count can never
// exceed the baseline's.
func BenchmarkProfileGuided(b *testing.B) {
	machines := []core.Machine{
		core.Corral11SqrtISwap(),
		core.Corral12SqrtISwap(),
		core.Tree20SqrtISwap(),
		core.TreeRR20SqrtISwap(),
	}
	c, err := workloads.Generate("QuantumVolume", 16, rand.New(rand.NewSource(22)))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range machines {
		for _, mode := range []string{"baseline", "profiled"} {
			b.Run(m.Graph.Name+"/"+mode, func(b *testing.B) {
				opt := core.Options{Seed: 2022, Trials: 5, ProfileGuided: mode == "profiled"}
				var swaps int
				for i := 0; i < b.N; i++ {
					met, err := m.EvaluateContext(context.Background(), c, opt)
					if err != nil {
						b.Fatal(err)
					}
					swaps = met.TotalSwaps
				}
				b.ReportMetric(float64(swaps), "swaps")
			})
		}
	}
}

// BenchmarkTranspilePassShares attributes default-pipeline wall-clock to
// its passes: the layout_share/route_share/translate_share metrics are each
// pass's fraction of total pipeline time (summing to ~1), recorded in the
// bench JSON by scripts/bench.sh so pass-level perf regressions show up
// between PRs even when end-to-end time moves.
func BenchmarkTranspilePassShares(b *testing.B) {
	m := core.Tree20SqrtISwap()
	c, err := workloads.Generate("QuantumVolume", 16, rand.New(rand.NewSource(24)))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Seed: 2022, Trials: 5}
	perPass := map[string]time.Duration{}
	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := m.TranspileContext(context.Background(), c, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range tr.Timings {
			perPass[pt.Name] += pt.Duration
			total += pt.Duration
		}
	}
	if total > 0 {
		for _, name := range []string{"layout", "route", "translate"} {
			b.ReportMetric(float64(perPass[name])/float64(total), name+"_share")
		}
	}
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationRouters compares StochasticSwap with the SABRE lookahead
// router on the same workload/topology, reporting their swap counts.
func BenchmarkAblationRouters(b *testing.B) {
	g := topology.HeavyHex84()
	c, _ := workloads.Generate("QuantumVolume", 24, rand.New(rand.NewSource(9)))
	layout, err := transpile.DenseLayout(g, c)
	if err != nil {
		b.Fatal(err)
	}
	for _, router := range []string{"stochastic", "sabre"} {
		b.Run(router, func(b *testing.B) {
			var swaps int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				var res *transpile.RouteResult
				var err error
				if router == "stochastic" {
					res, err = transpile.StochasticSwapCostCtx(context.Background(), g, c, layout, rng, 10, nil)
				} else {
					res, err = transpile.SabreSwapCostCtx(context.Background(), g, c, layout, rng, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
				swaps = res.SwapCount
			}
			b.ReportMetric(float64(swaps), "swaps")
		})
	}
}

// BenchmarkAblationSNAILParallelism quantifies the value of the SNAIL's
// simultaneous in-neighborhood drives (paper §4.1) by scheduling the same
// routed circuit with and without per-SNAIL serialization.
func BenchmarkAblationSNAILParallelism(b *testing.B) {
	hw, err := snail.Tree84Hardware()
	if err != nil {
		b.Fatal(err)
	}
	m := core.Tree84SqrtISwap()
	c, _ := workloads.Generate("QuantumVolume", 32, rand.New(rand.NewSource(10)))
	tr, err := m.TranspileContext(context.Background(), c, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	dur := map[string]float64{"siswap": 0.5, "swap": 1.5, "su4": 1.0}
	for _, mode := range []string{"parallel", "serialized"} {
		b.Run(mode, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				ms, err := hw.Schedule(tr.Routed, dur, mode == "serialized")
				if err != nil {
					b.Fatal(err)
				}
				makespan = ms
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// ---- Micro-benchmarks of the pipeline's hot paths ----

func BenchmarkKAK(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	us := make([]*Matrix, 64)
	for i := range us {
		us[i] = gates.RandomSU4(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weyl.KAK(us[i%len(us)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeylCoordinates(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	us := make([]*Matrix, 64)
	for i := range us {
		us[i] = gates.RandomSU4(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weyl.Coordinates(us[i%len(us)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeCX(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	us := make([]*Matrix, 16)
	for i := range us {
		us[i] = gates.RandomSU4(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weyl.SynthesizeCX(us[i%len(us)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStochasticSwapQV(b *testing.B) {
	for _, size := range []int{16, 32} {
		b.Run(fmt.Sprintf("qv%d", size), func(b *testing.B) {
			g := topology.Hypercube84()
			c, _ := workloads.Generate("QuantumVolume", size, rand.New(rand.NewSource(14)))
			layout, err := transpile.DenseLayout(g, c)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := transpile.StochasticSwapCostCtx(context.Background(), g, c, layout, rand.New(rand.NewSource(int64(i))), 10, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDenseLayout(b *testing.B) {
	g := topology.Hypercube84()
	c, _ := workloads.Generate("QFT", 60, rand.New(rand.NewSource(15)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transpile.DenseLayout(g, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatevector16(b *testing.B) {
	c := workloads.QFT(16, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCircuitCtx(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatevectorFusion measures the gate-fusion scheduler (ISSUE 5
// tentpole) on a 16-qubit circuit shaped like real workloads after
// transpilation: per-layer 1Q dressing runs (h/rz/rx), diagonal cz/cp
// ladders, and su4 blocks preceded by 1Q frames. The fused variant runs
// sim.Run's default schedule; "unfused" forces the historical op-by-op
// path, so the pair quantifies fusion end to end.
func BenchmarkStatevectorFusion(b *testing.B) {
	const n = 16
	rng := rand.New(rand.NewSource(31))
	c := NewCircuit(n)
	for layer := 0; layer < 24; layer++ {
		for q := 0; q < n; q++ {
			c.H(q)
			c.RZ(q, rng.Float64())
			c.RX(q, rng.Float64())
		}
		for q := 0; q < n-1; q += 2 {
			c.CP(q, q+1, rng.Float64())
			c.CZ(q, q+1)
		}
		a := rng.Intn(n - 1)
		c.SU4(a, a+1, gates.RandomSU4(rng))
	}
	stats := sim.Schedule(c).Stats()
	for _, tc := range []struct {
		name string
		run  func(s *sim.State) error
	}{
		{"fused", func(s *sim.State) error { return s.RunCtx(context.Background(), c) }},
		{"unfused", func(s *sim.State) error { return s.RunUnfused(c) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := sim.NewState(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := tc.run(s); err != nil {
					b.Fatal(err)
				}
			}
			if tc.name == "fused" {
				// Layer-batching shape of the schedule under test (ISSUE 9):
				// how many fkLayer steps the circuit compiled to, the mean
				// members per layer, and the fraction of kernel applications
				// that run inside layers. Constant per circuit; recorded so
				// BENCH snapshots catch scheduler drift.
				b.ReportMetric(float64(stats.Layers), "layers_per_circuit")
				b.ReportMetric(stats.AvgWidth, "batch_width_avg")
				b.ReportMetric(stats.LayerShare, "fused_layer_share")
			}
		})
	}
}

// BenchmarkStatevectorISwapKernel measures the iSWAP-family inner-block mix
// kernel on a 16-qubit circuit of interleaved iswap/siswap gates — the gate
// mix of a translated SNAIL circuit. The "generic" variant forces the same
// ops through Apply2Q by attaching explicit unitaries, so the pair
// quantifies the kernel specialization.
func BenchmarkStatevectorISwapKernel(b *testing.B) {
	const n = 16
	rng := rand.New(rand.NewSource(23))
	fast := NewCircuit(n)
	for i := 0; i < 256; i++ {
		a := rng.Intn(n)
		c := rng.Intn(n - 1)
		if c >= a {
			c++
		}
		if i%2 == 0 {
			fast.ISwap(a, c)
		} else {
			fast.SqrtISwap(a, c)
		}
	}
	generic := NewCircuit(n)
	for _, op := range fast.Ops {
		u, err := OpUnitary(op)
		if err != nil {
			b.Fatal(err)
		}
		generic.Append(Op{Name: op.Name, Qubits: op.Qubits, U: u})
	}
	for _, tc := range []struct {
		name string
		c    *Circuit
	}{{"mix2q", fast}, {"generic", generic}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunCircuitCtx(context.Background(), tc.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecomposeSqrtISwapK3(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	target := gates.RandomSU4(rng)
	cfg := decomp.Config{Restarts: 1, Adam: optimize.AdamConfig{MaxIter: 200, LearningRate: 0.08}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decomp.Decompose(target, 2, 3, rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Robustness: disk-tier fault absorption ----

// BenchmarkCacheDiskFaultRetry measures the two-tier cache's disk layer
// under a deterministic 10% injected read/write fault rate with retries
// enabled. disk_retries/op is how many backoff retries the tier absorbed
// per operation; degraded is 1 if the error budget ever quarantined the
// disk tier (expected 0 here: absorbed transients never charge the
// budget). The memory LRU is kept tiny so gets actually reach the disk.
func BenchmarkCacheDiskFaultRetry(b *testing.B) {
	ffs := faultinject.NewFaultFS(cache.OSFS{}, 1)
	ffs.ReadFail, ffs.WriteFail = 0.1, 0.1
	store, err := cache.New[int](2, b.TempDir(),
		cache.WithFS(ffs), cache.WithRetry(4, 0), cache.WithJitterSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]cache.Key, 64)
	for i := range keys {
		h := cache.NewHasher("bench/disk-fault")
		h.WriteInt(int64(i))
		keys[i] = h.Sum()
	}
	for i, k := range keys {
		store.Put(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if v, ok := store.Get(k); ok && v != i%len(keys) {
			b.Fatalf("corrupted value %d for key %d", v, i%len(keys))
		}
	}
	b.StopTimer()
	st := store.Stats()
	b.ReportMetric(float64(st.Retries)/float64(b.N), "disk_retries/op")
	degraded := 0.0
	if st.Degraded {
		degraded = 1
	}
	b.ReportMetric(degraded, "degraded")
}

// BenchmarkNoisyEvaluate measures one noise-aware evaluation end to end —
// error-weighted routing plus Monte-Carlo trajectory sampling — on the
// heterogeneous 4×4 grid the routing acceptance test pins. est_fidelity is
// the (deterministic, seeded) fidelity estimate so bench snapshots catch a
// silent model drift; noisy_eval_ns/op mirrors ns/op under a stable name
// for the JSON schema (scripts/bench.sh).
func BenchmarkNoisyEvaluate(b *testing.B) {
	m, err := core.FromSpec("grid:rows=4,cols=4,basis=syc,e2q=0.001,e2q-5-6=0.3")
	if err != nil {
		b.Fatal(err)
	}
	c, err := workloads.Generate("QFT", 10, rand.New(rand.NewSource(77)))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{
		Seed:       2022,
		Trials:     5,
		Fidelity:   core.FidelityMonteCarlo,
		NoiseShots: 64,
		NoiseRoute: core.NoiseRoutePure,
	}
	var met core.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, err = m.EvaluateContext(context.Background(), c, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if met.EstFidelity <= 0 || met.EstFidelity >= 1 {
		b.Fatalf("est fidelity %g out of range", met.EstFidelity)
	}
	b.ReportMetric(met.EstFidelity, "est_fidelity")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "noisy_eval_ns/op")
}

// ---- Evaluation service (qcbenchd) ----

// BenchmarkDaemonWarmEvaluate measures the evaluation service's serving
// overhead end to end: an in-process qcbenchd takes one cold batch of 32
// identical concurrent requests (collapsing to a single evaluation via
// cross-client dedup), then the timed loop measures warm request latency —
// HTTP round trip plus memory-tier cache hit, no routing. Reports
// daemon_warm_eval_us (microseconds per warm request) and
// daemon_dedup_per_op (dedup-or-hit joins per cold request; ~31/32 means
// the whole batch cost one evaluation). Both land in the bench JSON
// (scripts/bench.sh).
func BenchmarkDaemonWarmEvaluate(b *testing.B) {
	srv, err := daemon.New(daemon.Config{Logf: func(format string, args ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			b.Error(err)
		}
	}()
	base := "http://" + addr
	req := daemon.EvaluateRequest{
		Machine:  "grid:rows=2,cols=2,name=bench",
		Workload: "GHZ",
		Size:     4,
		Seed:     1,
		Trials:   1,
	}
	const cold = 32
	var wg sync.WaitGroup
	errs := make([]error, cold)
	for i := 0; i < cold; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := daemon.NewClient(base)
			c.JitterSeed = uint64(i + 1)
			_, errs[i] = c.Evaluate(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	st := srv.Store().Snapshot()
	if st.Fills != 1 {
		b.Fatalf("cold batch cost %d evaluations, want 1", st.Fills)
	}
	dedup := float64(st.Dedups+st.MemHits+st.DiskHits) / float64(cold)
	client := daemon.NewClient(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Evaluate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "daemon_warm_eval_us")
	b.ReportMetric(dedup, "daemon_dedup_per_op")
}
