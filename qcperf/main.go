// Command qcperf is the repository's end-to-end benchmark. It times calls
// into the program's public packages from outside, on three workloads:
//
//   - sweep84-cold: the quick Fig. 12 and Fig. 14 sweeps (84-qubit
//     machines, six circuits) evaluated cold, pass after pass;
//   - noisy-mc: a Monte-Carlo fidelity sweep at widths 12–14;
//   - daemon-warm: an in-process qcbenchd serving a prefilled working set
//     from its memory and disk cache tiers to a closed-loop client.
//
// Each run prints a human-readable report and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer metrics, from spans the benchmark records around
// the calls it makes. --steady N runs each workload N times and compares
// the spread of every end-to-end metric with its bound in BENCHMARK.json.
//
// Run it from the repository root with qcperf/run.sh, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workers bounds every worker pool and GOMAXPROCS. The benchmark host has
// two cores; more workers would only measure oversubscription.
const workers = 2

// setupReps is how many times each run sets up; setup_s is the median.
const setupReps = 5

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

// tracePath is where a traced run writes its spans.
func (c config) tracePath() string {
	return filepath.Join(c.outDir, fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
}

// report collects one run's metrics, operation counts and detail lines.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	lines     []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) info(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.info("FAIL "+format, args...)
}

var workloadRuns = map[string]func(context.Context, config) (*report, error){
	"sweep84-cold": runSweep84,
	"noisy-mc":     runNoisyMC,
	"daemon-warm":  runDaemonWarm,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep84-cold, noisy-mc or daemon-warm")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "how long the timed part runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("outdir", ".bench_build", "directory for traces and the daemon's disk cache tier")
	steady := fs.Int("steady", 0, "run each workload (or --workload) this many times and report spreads against BENCHMARK.json")
	save := fs.String("save", "", "with --steady: write the runs' results to this JSON file")
	compare := fs.String("compare", "", "compare two files written by --save: A,B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return compareSets(*compare, stdout, stderr)
	}
	if *steady > 0 {
		return steadiness(*workload, *steady, *seed, *seconds, *outDir, *save, stdout, stderr)
	}
	fn, ok := workloadRuns[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "qcperf: need --workload (sweep84-cold, noisy-mc, daemon-warm), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "qcperf: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: *outDir}

	rep, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %s: %v\n", *workload, err)
		return 1
	}
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range table {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "qcperf: %s: metric %s was not measured\n", *workload, d.name)
			return 1
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintf(stderr, "qcperf: %s: no operations attempted\n", *workload)
		return 1
	}

	fmt.Fprintf(stdout, "qcperf %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "env: %s\n", environment())
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, "  "+l)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", n, rep.metrics[n], units[n])
	}
	fmt.Fprintf(stdout, "  attempted=%d failed=%d correct=%v\n", out.Attempted, out.Failed, out.Correct)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment describes the host a result was measured on.
func environment() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// memSampleEvery is how often a memSampler reads the runtime's memory.
const memSampleEvery = 50 * time.Millisecond

// memSampler samples, while a timed part runs, the memory the Go runtime
// holds from the operating system: everything it has mapped minus what
// it has released. The process's peak resident size is one extreme
// sample of GC timing and moved by up to a fifth from run to run; the
// median held memory is steady.
type memSampler struct {
	stop chan struct{}
	done chan float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var held []float64
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			held = append(held, float64(samples[0].Value.Uint64()-samples[1].Value.Uint64())/(1<<20))
			select {
			case <-m.stop:
				m.done <- median(held)
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// medianMB stops the sampler and returns the median held memory in MiB.
func (m *memSampler) medianMB() float64 {
	close(m.stop)
	return <-m.done
}

// memSample is the part of runtime.MemStats the runs report as deltas.
type memSample struct {
	pauseNs, alloc uint64
	numGC          uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc, numGC: ms.NumGC}
}

func memDelta(a, b memSample) string {
	return fmt.Sprintf("runtime: %d GCs, %.1f ms paused, %.0f MB allocated", b.numGC-a.numGC, float64(b.pauseNs-a.pauseNs)/1e6, float64(b.alloc-a.alloc)/(1<<20))
}
