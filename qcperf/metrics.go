package main

// metricDef names one reported metric. The end-to-end table is what an
// untraced run prints and the per-layer table what a traced run prints;
// BENCHMARK.json lists the same names and units (a test holds the three in
// step).
type metricDef struct {
	name, unit, better string
	moves              string // per-layer: the end-to-end metric it should move, and where
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"evals_per_s", "1/s", "higher", ""},
	{"p50_ms", "ms", "lower", ""},
	{"p99_ms", "ms", "lower", ""},
	{"mem_held_mb", "MB", "lower", ""},
	{"swaps_total", "count", "lower", ""},
	{"two_q_total", "count", "lower", ""},
	{"pulse_total", "pulse", "lower", ""},
}

// exactPerSeed names the end-to-end metrics that a fixed seed determines
// exactly. Their spread across seeds sets their bound in BENCHMARK.json;
// --compare also requires them to repeat exactly at each seed.
var exactPerSeed = map[string]bool{"swaps_total": true, "two_q_total": true, "pulse_total": true}

// modules are the layers a traced run's wall-clock is split across.
var modules = []string{"experiments", "par", "workloads", "arch", "core", "cache", "transpile", "noise", "sim", "daemon"}

// perLayer lists the traced run's metrics, each with the end-to-end metric
// and workload it should move. BENCHMARK.json has no field for that map,
// so it lives here. Layers a workload does not exercise read 0 there.
//
// The simulator runs inside noise.MonteCarloEstimator.Estimate, so its
// time there is charged to noise: sim.self_share reads 0 on noisy-mc.
// sim.schedule_ms and sim.run_ms come from one ideal run of each routed
// circuit, made after the traced passes and outside every span.
var perLayer = append([]metricDef{
	{"transpile.route_ms", "ms", "lower", "evals_per_s on sweep84-cold"},
	{"transpile.layout_ms", "ms", "lower", "evals_per_s on sweep84-cold"},
	{"transpile.translate_ms", "ms", "lower", "evals_per_s on sweep84-cold"},
	{"core.metrics_ms", "ms", "lower", "evals_per_s on sweep84-cold"},
	{"par.busy_share", "share", "higher", "evals_per_s on sweep84-cold"},
	{"transpile.swaps_induced", "count", "lower", "swaps_total on sweep84-cold"},
	{"noise.estimate_ms", "ms", "lower", "evals_per_s on noisy-mc"},
	{"noise.fidelity_mean", "share", "higher", "the fidelity gate on noisy-mc"},
	{"sim.schedule_ms", "ms", "lower", "evals_per_s on noisy-mc"},
	{"sim.run_ms", "ms", "lower", "evals_per_s on noisy-mc"},
	{"sim.layers_per_circuit", "count", "lower", "evals_per_s on noisy-mc"},
	{"sim.fused_layer_share", "share", "higher", "evals_per_s on noisy-mc"},
	{"sim.bytes_computed", "B", "lower", "evals_per_s on noisy-mc"},
	{"workloads.gen_us", "us", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"arch.build_us", "us", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"core.key_us", "us", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"cache.mem_get_us", "us", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"cache.disk_get_us", "us", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"cache.mem_hit_ratio", "share", "higher", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"cache.disk_hit_ratio", "share", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"cache.evictions", "count", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"daemon.server_ms", "ms", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"daemon.http_us", "us", "lower", "p50_ms, p99_ms and evals_per_s on daemon-warm"},
	{"runtime.gc_pause_ms", "ms", "lower", "evals_per_s and p99_ms on every workload"},
	{"runtime.alloc_mb", "MB", "lower", "evals_per_s and p99_ms on every workload"},
	{"trace.coverage", "share", "higher", "none: the share of the traced wall-clock the spans cover"},
	{"trace.evals_per_s", "1/s", "higher", "none: evals_per_s with tracing on"},
	{"trace.overhead_evals_per_s", "1/s", "higher", "none: traced minus untraced evals_per_s"},
}, selfShareDefs()...)

func selfShareDefs() []metricDef {
	out := make([]metricDef, len(modules))
	for i, m := range modules {
		out[i] = metricDef{m + ".self_share", "share", "lower", "evals_per_s on every workload"}
	}
	return out
}
