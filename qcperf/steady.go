package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSet is a steadiness run's results, by workload.
type runSet map[string][]seededResult

// seededResult is one run's result and the seed it ran with.
type seededResult struct {
	Seed int64 `json:"seed"`
	result
}

// steadiness runs each workload n times, with seeds seed, seed+1, …, as
// separate processes, and prints every end-to-end metric's median,
// quartiles, spread (interquartile range over median) and max/min ratio
// against its bound in BENCHMARK.json.
func steadiness(workload string, n int, seed int64, seconds int, outDir, save string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range bf.Workloads {
		if workload == "" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	set := runSet{}
	code := 0
	for _, w := range names {
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--outdir", outDir, "--workload", w, "--seed", strconv.FormatInt(s, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "qcperf: %s seed %d: %v\n", w, s, err)
				code = 1
				continue
			}
			r, err := lastResult(out)
			if err != nil {
				fmt.Fprintf(stderr, "qcperf: %s seed %d: %v\n", w, s, err)
				code = 1
				continue
			}
			if !r.Correct {
				fmt.Fprintf(stdout, "%s seed %d: correct=false (%d of %d failed)\n", w, s, r.Failed, r.Attempted)
				code = 1
			}
			set[w] = append(set[w], seededResult{s, r})
		}
		summarize(w, set[w], bf, stdout)
	}
	if save != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(save, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "qcperf: %v\n", err)
			return 1
		}
	}
	return code
}

// lastResult parses the result line a run ends with.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// values collects one metric across runs.
func values(rs []seededResult, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// summarize prints one workload's spread table. A spread is "steady" when
// it is under a third of the metric's bound. setup_s is judged like the
// rest, though only the move of its median between run sets is gated.
func summarize(w string, rs []seededResult, bf *benchmarkFile, stdout io.Writer) {
	fmt.Fprintf(stdout, "%s: %d runs\n", w, len(rs))
	fmt.Fprintf(stdout, "  %-14s %12s %12s %12s %8s %7s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "max/min", "verdict")
	for _, m := range bf.EndToEnd {
		xs := values(rs, m.Name)
		if len(xs) == 0 {
			fmt.Fprintf(stdout, "  %-14s missing\n", m.Name)
			continue
		}
		q1, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		sp := spread(xs)
		verdict := "steady"
		switch {
		case sp > m.Bound:
			verdict = "NOISY: over bound"
		case sp > m.Bound/3:
			verdict = "within bound, over a third"
		}
		ratio := 0.0
		if lo != 0 {
			ratio = hi / lo
		}
		fmt.Fprintf(stdout, "  %-14s %12.6g %12.6g %12.6g %8.4f %7.3f %8.4f  %s\n", m.Name, median(xs), q1, q3, sp, m.Bound, ratio, verdict)
	}
}

// compareSets compares two saved run sets ("A,B"). For every workload and
// end-to-end metric, the two medians agree when neither is worse than the
// other by more than the metric's bound. A metric that is exact per seed
// must also read the same in both sets for every seed they share.
func compareSets(arg string, stdout, stderr io.Writer) int {
	a, b, ok := strings.Cut(arg, ",")
	if !ok {
		fmt.Fprintf(stderr, "qcperf: --compare wants two files, A,B\n")
		return 2
	}
	bf, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "qcperf: %v\n", err)
		return 1
	}
	var sets [2]runSet
	for i, path := range []string{a, b} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "qcperf: %s: %v\n", path, err)
			return 1
		}
	}
	code := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			ra, rb := sets[0][w.Name], sets[1][w.Name]
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			verdict, bad := agree(ma, mb, m.Better, m.Bound)
			if exactPerSeed[m.Name] {
				if diff := seedDiffs(ra, rb, m.Name); diff != "" {
					verdict, bad = "CHANGED at the same seed: "+diff, true
				}
			}
			if bad {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-14s %12.6g %12.6g %+8.4f  %s\n", w.Name, m.Name, ma, mb, (mb-ma)/ma, verdict)
		}
	}
	return code
}

// agree judges two medians of one metric: bad when either is worse than
// the other by more than bound.
func agree(ma, mb float64, better string, bound float64) (verdict string, bad bool) {
	bWorse, err := worse(ma, mb, better, bound)
	if err != nil {
		return err.Error(), true
	}
	aWorse, err := worse(mb, ma, better, bound)
	if err != nil {
		return err.Error(), true
	}
	switch {
	case bWorse:
		return "B WORSE by more than the bound", true
	case aWorse:
		return "A WORSE by more than the bound", true
	}
	return "agree", false
}

// seedDiffs lists the seeds at which two run sets read a metric
// differently, or "" when they agree at every seed they share.
func seedDiffs(ra, rb []seededResult, name string) string {
	at := make(map[int64]float64, len(ra))
	for _, r := range ra {
		if v, ok := r.Metrics[name]; ok {
			at[r.Seed] = v.Value
		}
	}
	var diffs []string
	for _, r := range rb {
		va, ok := at[r.Seed]
		if v, okb := r.Metrics[name]; ok && okb && v.Value != va {
			diffs = append(diffs, fmt.Sprintf("seed %d %g→%g", r.Seed, va, v.Value))
		}
	}
	return strings.Join(diffs, ", ")
}
