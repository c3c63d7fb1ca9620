package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// CorralScalingRow is one entry of the Corral scaling study: the paper's
// §7 future work asks how Corral-style rings compete with hypercubes as
// qubit counts grow. We scale the ring by adding posts (each post carries
// len(strides) qubits) and track both structural metrics and routed
// QuantumVolume cost.
type CorralScalingRow struct {
	Posts   int
	Strides []int
	Stats   topology.Stats
	// QVSwaps is the total SWAP count for a QuantumVolume circuit filling
	// ~80% of the machine, with the fixed study seed.
	QVSwaps int
	// QVDuration is the √iSWAP pulse-duration critical path.
	QVDuration float64
}

// CorralScalingContext grows the Corral ring and measures structure +
// routed cost. Strides follow the Corral(1,k) pattern with the long fence
// at roughly a third of the ring (the stride-3-of-8 ratio that realizes the
// paper's Corral 1,2), so the design keeps its low-diameter property as it
// scales. Each ring is one cell. The unified Config supplies the
// evaluation knobs: cfg.Parallelism bounds the pool the rings run on
// (0 = auto, 1 = serial) and never changes the measured rows; cfg.Cache,
// when non-nil, memoizes the routed QV evaluations so repeated studies
// skip identical routing; cfg.ProfileGuided routes each ring with the
// pressure-weighted pipeline (cache-keyed separately from baseline runs,
// iterated cfg.ProfileIterations times). ctx (tightened by cfg.Deadline
// when set) threads into each ring's evaluation, and cfg.CellTimeout
// bounds the rings individually; neither changes the rows a completed
// study reports. Every post count is validated before any ring is built.
func CorralScalingContext(ctx context.Context, posts []int, cfg Config) ([]CorralScalingRow, error) {
	for _, p := range posts {
		if p < 5 {
			return nil, fmt.Errorf("experiments: corral scaling needs ≥5 posts")
		}
	}
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	opt := cfg.Options
	opt.Trials = cfg.effectiveTrials()
	out := make([]CorralScalingRow, len(posts))
	err := par.ForEachCtx(ctx, len(posts), cfg.Parallelism, func(i int) error {
		p := posts[i]
		long := p/3 + 1
		strides := []int{1, long}
		g := topology.CorralRing(p, strides)
		g.Name = fmt.Sprintf("Corral-%dp(1,%d)", p, long)
		c, err := BenchmarkCircuit("QuantumVolume", g.N()*4/5, cfg.Seed)
		if err != nil {
			return err
		}
		met, err := core.NewMachine(g.Name, g, weyl.BasisSqrtISwap).EvaluateContext(ctx, c, opt)
		if err != nil {
			return err
		}
		out[i] = CorralScalingRow{
			Posts:      p,
			Strides:    strides,
			Stats:      g.Stats(),
			QVSwaps:    met.TotalSwaps,
			QVDuration: met.PulseDuration,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatCorralScaling renders the scaling study as a table.
func FormatCorralScaling(rows []CorralScalingRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %7s %5s %7s %7s %9s %10s\n",
		"design", "qubits", "dia", "avgD", "avgC", "QVswaps", "QVdur")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %7d %5d %7.2f %7.2f %9d %10.1f\n",
			r.Stats.Name, r.Stats.Qubits, r.Stats.Diameter, r.Stats.AvgDist,
			r.Stats.AvgConn, r.QVSwaps, r.QVDuration)
	}
	return sb.String()
}

// SeriesCSV renders sweep results as CSV with columns
// workload,machine,size,total,critical — plus a trailing est_fidelity
// column when any point carries a fidelity estimate (noise-off output is
// byte-identical to historical CSV).
func SeriesCSV(series []Series, kind SweepKind) string {
	totalName, critName := "total_swaps", "critical_swaps"
	if kind == Codesign {
		totalName, critName = "total_2q", "pulse_duration"
	}
	withFidelity := seriesHaveFidelity(series)
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload,machine,size,%s,%s", totalName, critName)
	if withFidelity {
		sb.WriteString(",est_fidelity")
	}
	sb.WriteString("\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%s,%s,%d,%g,%g", s.Workload, s.Label, p.Size, p.Total, p.Critical)
			if withFidelity {
				fmt.Fprintf(&sb, ",%g", p.Fidelity)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
