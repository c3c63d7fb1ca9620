package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/noise"
	"repro/internal/par"
	"repro/internal/sim"
)

// batch is a figure regeneration: a list of sweep specs, timed in two
// kinds of pass. A sweep pass runs every spec through
// experiments.SweepSpec.RunContext, the call a figure regeneration makes,
// on the spec's worker pool; it gives evals_per_s. A cell pass evaluates
// every cell with core.Machine.EvaluateContext, the call RunContext makes
// per cell, one cell at a time, and times each call, which RunContext does
// not expose; it gives p50_ms and p99_ms. Timed beside a second cell, a
// cell's latency also depends on the cell that shares the machine with it:
// over three same-seed noisy-mc runs, p50 ranged 10.2–12.4 ms with cells
// timed two at a time and 10.5–10.8 ms with cells timed alone. A traced
// pass performs RunContext's two stages itself (circuit generation, then
// each cell's calls) on the spec's worker pool, with a span around every
// public call. Every pass gives every spec a fresh memory-only cache, so
// every evaluation is cold.
type batch struct {
	specs []experiments.SweepSpec
	circs [][]*circuit.Circuit // [spec][workload·len(Sizes) + size index]
	keys  [][]cache.Key        // [spec][cell]: each cell's EvaluateKey

	// warmup is how many leading specs the set-up's warm-up pass
	// evaluates (0 = all).
	warmup int
}

// newBatch generates the specs' circuits and cell keys.
func newBatch(specs []experiments.SweepSpec, warmup int) (*batch, error) {
	b := &batch{specs: specs, warmup: warmup, circs: make([][]*circuit.Circuit, len(specs)), keys: make([][]cache.Key, len(specs))}
	for si, s := range specs {
		b.circs[si] = make([]*circuit.Circuit, len(s.Workloads)*len(s.Sizes))
		for i := range b.circs[si] {
			c, err := experiments.BenchmarkCircuit(s.Workloads[i/len(s.Sizes)], s.Sizes[i%len(s.Sizes)], s.Seed)
			if err != nil {
				return nil, err
			}
			b.circs[si][i] = c
		}
		for _, t := range s.Cells() {
			b.keys[si] = append(b.keys[si], s.Machines[t.Machine].EvaluateKey(b.circuit(si, t), s.CellOptions(t)))
		}
	}
	return b, nil
}

// circuit returns the logical circuit of spec si's cell t.
func (b *batch) circuit(si int, t experiments.SweepCell) *circuit.Circuit {
	return b.circs[si][circIndex(b.specs[si], t)]
}

// circIndex is the index of cell t's circuit in a spec's circuit list,
// which is ordered by workload, then size.
func circIndex(s experiments.SweepSpec, t experiments.SweepCell) int {
	for i, n := range s.Sizes {
		if n == t.Size {
			return t.Workload*len(s.Sizes) + i
		}
	}
	return -1
}

// cellOut is one evaluated cell.
type cellOut struct {
	met core.Metrics
	err error
	lat time.Duration // cell and traced passes only

	// routed is a traced Monte-Carlo cell's routed circuit, which
	// probeSim simulates once the traced passes are done.
	routed *circuit.Circuit
}

// passOut is one evaluation of every cell of every spec.
type passOut struct {
	cells  [][]cellOut            // [spec][cell index in SweepSpec.Cells order]
	series [][]experiments.Series // [spec], sweep passes only: what RunContext returned
	wall   time.Duration          // sweep passes: the time spent inside RunContext
}

func (p passOut) count() int {
	n := 0
	for _, cs := range p.cells {
		n += len(cs)
	}
	return n
}

// completed counts the cells that evaluated without error.
func (p passOut) completed() int {
	n := 0
	for _, cs := range p.cells {
		for _, c := range cs {
			if c.err == nil {
				n++
			}
		}
	}
	return n
}

// sweep is a sweep pass over the specs: each through RunContext with a
// fresh memory-only cache, the cells' metrics read back from that cache.
func (b *batch) sweep(ctx context.Context, specs []experiments.SweepSpec) passOut {
	out := passOut{cells: make([][]cellOut, len(specs)), series: make([][]experiments.Series, len(specs))}
	for si, s := range specs {
		store := cache.NewMemory[core.Metrics](0)
		s.Cache = store
		t0 := time.Now()
		series, err := s.RunContext(ctx)
		out.wall += time.Since(t0)
		if err == nil {
			// Every cell should be in the cache; one that is not failed
			// without RunContext saying so.
			err = fmt.Errorf("%s: cell missing from RunContext's cache", s.ID)
		}
		res := make([]cellOut, len(b.keys[si]))
		for ci, k := range b.keys[si] {
			if met, ok := store.Get(k); ok {
				res[ci].met = met
			} else {
				res[ci].err = err
			}
		}
		out.cells[si], out.series[si] = res, series
	}
	return out
}

// cellPass is a cell pass, or with a tracer a traced pass on the spec's
// worker pool under one root span for the pass.
func (b *batch) cellPass(ctx context.Context, tr *tracer) (passOut, error) {
	start := time.Now()
	root := tr.begin("par.pass", -1)
	defer tr.end(root)
	out := passOut{cells: make([][]cellOut, len(b.specs))}
	for si, s := range b.specs {
		s.Cache = cache.NewMemory[core.Metrics](0)
		circs := b.circs[si]
		if tr != nil {
			circs = make([]*circuit.Circuit, len(circs))
			err := par.ForEachCtx(ctx, len(circs), s.Parallelism, func(i int) error {
				sp := tr.begin("workloads.gen", root)
				defer tr.end(sp)
				c, err := experiments.BenchmarkCircuit(s.Workloads[i/len(s.Sizes)], s.Sizes[i%len(s.Sizes)], s.Seed)
				circs[i] = c
				return err
			})
			if err != nil {
				return passOut{}, err
			}
		}
		pool := 1
		if tr != nil {
			pool = s.Parallelism
		}
		cells := s.Cells()
		res := make([]cellOut, len(cells))
		err := par.ForEachCtx(ctx, len(cells), pool, func(i int) error {
			t := cells[i]
			c := circs[circIndex(s, t)]
			m := s.Machines[t.Machine]
			t0 := time.Now()
			var err error
			if tr == nil {
				res[i].met, err = m.EvaluateContext(ctx, c, s.CellOptions(t))
			} else {
				res[i], err = tracedCell(ctx, tr, root, m, c, s.CellOptions(t))
			}
			res[i].lat = time.Since(t0)
			if err != nil {
				// A failed cell is a failed operation, counted by the gate;
				// the pass goes on.
				res[i].err = fmt.Errorf("%s/%s/%s(%d): %w", s.ID, m.Name, s.Workloads[t.Workload], t.Size, err)
			}
			return nil
		})
		if err != nil {
			return passOut{}, err
		}
		out.cells[si] = res
	}
	out.wall = time.Since(start)
	return out, nil
}

// tracedCell performs the calls Machine.EvaluateContext makes for one cold
// cell — key, cache lookup, transpile, fidelity estimate, cache fill — as
// separate spans. The simulator work inside the Monte-Carlo estimator is
// part of the noise.estimate span, so it is charged to noise.
func tracedCell(ctx context.Context, tr *tracer, root int, m core.Machine, c *circuit.Circuit, opt core.Options) (cellOut, error) {
	var out cellOut
	cell := tr.begin("experiments.cell", root)
	defer tr.end(cell)

	sp := tr.begin("core.key", cell)
	key := m.EvaluateKey(c, opt)
	tr.end(sp)
	sp = tr.begin("cache.get", cell)
	met, hit := opt.Cache.Get(key)
	tr.end(sp)
	if hit {
		out.met = met
		return out, nil
	}

	topt := opt
	topt.Fidelity, topt.Cache = core.FidelityOff, nil
	sp = tr.begin("core.transpile", cell)
	t, err := m.TranspileContext(ctx, c, topt)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	at := tr.startOf(sp)
	for _, pt := range t.Timings {
		at = tr.add("transpile."+pt.Name, sp, at, pt.Duration)
	}
	out.met = t.Metrics

	if opt.Fidelity == core.FidelityMonteCarlo {
		out.routed = t.Routed
		est := noise.MonteCarloEstimator{Shots: opt.NoiseShots, Seed: opt.Seed, Parallelism: opt.Parallelism}
		sp = tr.begin("noise.estimate", cell)
		e, err := est.Estimate(ctx, t.Routed, noise.FromProfile(m.Noise, m.GateDurations()))
		tr.end(sp)
		if err != nil {
			return out, err
		}
		out.met.EstFidelity, out.met.ControlFidelity, out.met.DecoherenceFidelity = e.Fidelity, e.Control, e.Decoherence
	}

	sp = tr.begin("cache.put", cell)
	opt.Cache.Put(key, out.met)
	tr.end(sp)
	return out, nil
}

// probeSim schedules and runs, once each, the routed circuit of every
// Monte-Carlo cell of a traced pass: the ideal run, the simulator work each
// of the estimator's trajectories repeats, timed on its own. It runs after
// the traced passes, so its time is in no span, no share and no traced
// rate. It reports nothing for a pass without Monte-Carlo cells.
func probeSim(rep *report, p passOut) error {
	var n, layers, share, bytes float64
	var sched, run time.Duration
	for _, cs := range p.cells {
		for _, c := range cs {
			if c.routed == nil {
				continue
			}
			compact, _ := c.routed.CompactQubits()
			t0 := time.Now()
			prog := sim.Schedule(compact)
			sched += time.Since(t0)
			st, err := sim.NewState(compact.N)
			if err != nil {
				return err
			}
			t0 = time.Now()
			err = st.RunProgram(prog)
			run += time.Since(t0)
			if err != nil {
				return err
			}
			ps := prog.Stats()
			n++
			layers += float64(ps.Layers)
			share += ps.LayerShare
			bytes += 16 * float64(uint64(1)<<compact.N) * float64(prog.Steps())
		}
	}
	if n == 0 {
		return nil
	}
	rep.set("sim.schedule_ms", float64(sched)/n/float64(time.Millisecond))
	rep.set("sim.run_ms", float64(run)/n/float64(time.Millisecond))
	rep.set("sim.layers_per_circuit", layers/n)
	rep.set("sim.fused_layer_share", share/n)
	rep.set("sim.bytes_computed", bytes)
	return nil
}

// batchRun is the passes of a timed loop.
type batchRun struct {
	sweeps, cells []passOut
	wall          time.Duration
}

func (r batchRun) timedCells() int {
	n := 0
	for _, p := range r.cells {
		n += p.count()
	}
	return n
}

// all returns every pass, sweep passes first.
func (r batchRun) all() []passOut { return append(append([]passOut(nil), r.sweeps...), r.cells...) }

// loop runs rounds until at least d has elapsed and the cell passes timed
// at least minCells cells, or until limit elapses. A round is a sweep pass
// (if sweeps) followed by a cell pass (if cells) under tr.
func (b *batch) loop(ctx context.Context, sweeps, cells bool, tr *tracer, d, limit time.Duration, minCells int) (batchRun, error) {
	var r batchRun
	start := time.Now()
	for {
		if sweeps {
			r.sweeps = append(r.sweeps, b.sweep(ctx, b.specs))
		}
		if cells {
			p, err := b.cellPass(ctx, tr)
			if err != nil {
				return r, err
			}
			r.cells = append(r.cells, p)
		}
		r.wall = time.Since(start)
		if (r.wall >= d && r.timedCells() >= minCells) || r.wall >= limit {
			return r, nil
		}
	}
}

// passRate is the median over passes of cells completed per second.
func passRate(ps []passOut) float64 {
	rates := make([]float64, len(ps))
	for i, p := range ps {
		rates[i] = float64(p.completed()) / p.wall.Seconds()
	}
	return median(rates)
}

// runBatch is the shared body of the two batch workloads: set up (build
// the specs and run an untimed warm-up sweep pass) setupReps times, then
// either alternate sweep and cell passes (untraced) or split the run into
// an untraced half of sweep passes and a traced half, then check the
// results.
func runBatch(ctx context.Context, cfg config, build func() (*batch, error), extra func(*report, passOut)) (*report, error) {
	rep := newReport()
	var b *batch
	setups := make([]float64, setupReps)
	for k := range setups {
		t0 := time.Now()
		nb, err := build()
		if err != nil {
			return nil, err
		}
		warm := nb.specs
		if nb.warmup > 0 {
			warm = warm[:nb.warmup]
		}
		nb.sweep(ctx, warm)
		setups[k] = time.Since(t0).Seconds()
		b = nb
	}
	q := 0.99
	need := minSamplesFor(q)

	var timed batchRun // every timed pass; the gate checks them all
	if !cfg.trace {
		ms0 := readMem()
		mem := startMemSampler()
		r, err := b.loop(ctx, true, true, nil, cfg.seconds, 3*cfg.seconds, need)
		rep.set("mem_held_mb", mem.medianMB())
		if err != nil {
			return nil, err
		}
		timed = r
		lats := []float64{}
		for _, p := range r.cells {
			for _, cs := range p.cells {
				for _, c := range cs {
					if c.err == nil {
						lats = append(lats, float64(c.lat)/float64(time.Millisecond))
					}
				}
			}
		}
		p50, _ := percentile(lats, 0.5)
		p99, ok := percentile(lats, q)
		if !ok {
			return nil, fmt.Errorf("only %d cells timed in %v; p99 needs %d", len(lats), r.wall, need)
		}
		rep.set("setup_s", median(setups))
		rep.set("evals_per_s", passRate(r.sweeps))
		rep.set("p50_ms", p50)
		rep.set("p99_ms", p99)
		rep.info("timed %d sweep passes and %d cell passes (%d cells) in %.2fs; %s", len(r.sweeps), len(r.cells), len(lats), r.wall.Seconds(), memDelta(ms0, readMem()))
	} else {
		untraced, err := b.loop(ctx, true, false, nil, cfg.seconds/2, cfg.seconds, 0)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		ms0 := readMem()
		traced, err := b.loop(ctx, false, true, tr, cfg.seconds/2, cfg.seconds, 0)
		if err != nil {
			return nil, err
		}
		ms1 := readMem()
		timed = batchRun{sweeps: untraced.sweeps, cells: traced.cells}
		spans := tr.snapshot()
		if err := writeSpans(cfg.tracePath(), spans); err != nil {
			return nil, err
		}
		batchLayers(rep, spans, traced, passRate(untraced.sweeps), b.specs[0].Parallelism, ms0, ms1)
		if err := probeSim(rep, traced.cells[0]); err != nil {
			return nil, err
		}
	}
	first := timed.sweeps[0]
	for _, p := range timed.all() {
		rep.attempted += p.count()
	}

	var swaps, twoQ, induced int
	var pulse float64
	for _, cs := range first.cells {
		for _, c := range cs {
			swaps += c.met.TotalSwaps
			twoQ += c.met.Total2Q
			pulse += c.met.PulseDuration
			induced += c.met.InducedSwaps
		}
	}
	rep.set("swaps_total", float64(swaps))
	rep.set("two_q_total", float64(twoQ))
	rep.set("pulse_total", pulse)
	if cfg.trace {
		rep.set("transpile.swaps_induced", float64(induced))
	}
	if extra != nil {
		extra(rep, first)
	}
	return rep, b.gate(ctx, cfg.seed, rep, timed)
}

// batchLayers derives the per-layer metrics of a traced batch run.
func batchLayers(rep *report, spans []span, traced batchRun, untracedRate float64, workers int, ms0, ms1 memSample) {
	cells := float64(traced.timedCells())
	perCell := func(name string) float64 {
		_, total := spanTotal(spans, name)
		return float64(total) / cells / float64(time.Millisecond)
	}
	self := selfTimes(spans)
	var metricsSelf, busy, capacity time.Duration
	for i, s := range spans {
		switch {
		case s.Name == "core.transpile":
			metricsSelf += self[i]
		case s.Name == "par.pass":
			capacity += time.Duration(workers) * (s.End - s.Start)
		}
		if s.Parent >= 0 && spans[s.Parent].Name == "par.pass" {
			busy += s.End - s.Start
		}
	}
	rep.set("transpile.route_ms", perCell("transpile.route"))
	rep.set("transpile.layout_ms", perCell("transpile.layout"))
	rep.set("transpile.translate_ms", perCell("transpile.translate"))
	rep.set("core.metrics_ms", float64(metricsSelf)/cells/float64(time.Millisecond))
	rep.set("par.busy_share", float64(busy)/float64(capacity))
	rep.set("noise.estimate_ms", perCell("noise.estimate"))
	rep.set("workloads.gen_us", meanMicros(spans, "workloads.gen"))
	rep.set("core.key_us", meanMicros(spans, "core.key"))

	// The wall-clock to account for is the traced run's wall times the
	// worker count. The pool's idle time inside passes, waiting on the
	// slowest cells, is charged to par: it replaces the pass spans' own
	// self time, which only counts moments when both workers are idle.
	lanes := time.Duration(workers) * traced.wall
	bySelf := layerSelf(spans)
	bySelf["par"] = capacity - busy
	tracedRate := passRate(traced.cells)
	layerShares(rep, bySelf, lanes)
	rep.set("trace.evals_per_s", tracedRate)
	rep.set("trace.overhead_evals_per_s", tracedRate-untracedRate)
	rep.set("runtime.gc_pause_ms", float64(ms1.pauseNs-ms0.pauseNs)/1e6)
	rep.set("runtime.alloc_mb", float64(ms1.alloc-ms0.alloc)/(1<<20))
}

// layerShares reports each module's self time as a share of capacity,
// and their sum as the trace's coverage.
func layerShares(rep *report, bySelf map[string]time.Duration, capacity time.Duration) {
	var total time.Duration
	for _, m := range modules {
		rep.set(m+".self_share", float64(bySelf[m])/float64(capacity))
		total += bySelf[m]
	}
	rep.set("trace.coverage", float64(total)/float64(capacity))
}

// verifyCells is how many cells per spec the gate re-runs under
// Options.Verify, and verifyQubits the widest routed circuit it simulates.
const (
	verifyCells  = 2
	verifyQubits = 20
)

// gate checks a batch run's outputs, untimed: every pass equal to the
// first sweep pass, every sweep pass's Series equal to its cells' metrics,
// every cell internally consistent, and a seeded subset of cells unchanged
// when re-evaluated with Options.Verify.
func (b *batch) gate(ctx context.Context, seed int64, rep *report, r batchRun) error {
	first := r.sweeps[0]
	for pi, p := range r.all() {
		for si := range p.cells {
			for ci, c := range p.cells[si] {
				switch f := first.cells[si][ci]; {
				case c.err != nil:
					rep.fail("pass %d: %v", pi, c.err)
				case f.err == nil && c.met != f.met:
					rep.fail("pass %d cell %s differs from the first sweep pass's %s", pi, c.met, f.met)
				}
			}
		}
		if p.series != nil {
			b.checkSeries(rep, pi, p)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	verified := 0
	for si, s := range b.specs {
		cells := s.Cells()
		for ci, c := range first.cells[si] {
			if c.err != nil {
				continue
			}
			if err := consistent(c.met, s.Machines[cells[ci].Machine].Name, cells[ci].Size); err != nil {
				rep.fail("%s: %v", c.met, err)
			}
		}
		n, err := b.verifySubset(ctx, rng, rep, si, first)
		if err != nil {
			return err
		}
		verified += n
	}
	rep.info("%d cells re-evaluated under Options.Verify", verified)
	return nil
}

// checkSeries checks that the Series a sweep pass's RunContext calls
// returned are the points of the cells' metrics read from their caches.
func (b *batch) checkSeries(rep *report, pi int, p passOut) {
	for si, s := range b.specs {
		got := make([][]experiments.Point, s.NumSeries())
		for ci, t := range s.Cells() {
			got[t.Series] = append(got[t.Series], experiments.PointFromMetrics(s.Kind, t.Size, p.cells[si][ci].met))
		}
		series := p.series[si]
		if len(series) != len(got) {
			rep.fail("pass %d %s: RunContext returned %d series, want %d", pi, s.ID, len(series), len(got))
			continue
		}
		for i := range series {
			if !reflect.DeepEqual(series[i].Points, got[i]) {
				rep.fail("pass %d %s series %s/%s: RunContext %v, cached cells %v", pi, s.ID, series[i].Label, series[i].Workload, series[i].Points, got[i])
			}
		}
	}
}

// verifySubset re-evaluates a seeded choice of the spec's narrowest cells
// small enough to simulate with Options.Verify, which simulates the routed
// circuit against the logical one, and checks the metrics are unchanged.
// It returns how many cells it re-evaluated.
func (b *batch) verifySubset(ctx context.Context, rng *rand.Rand, rep *report, si int, first passOut) (int, error) {
	s := b.specs[si]
	cells := s.Cells()
	type cand struct{ ci, qubits int }
	var cands []cand
	for ci, t := range cells {
		if t.Size != s.Sizes[0] {
			continue
		}
		opt := s.CellOptions(t)
		opt.Cache, opt.Fidelity = nil, core.FidelityOff
		tp, err := s.Machines[t.Machine].TranspileContext(ctx, b.circuit(si, t), opt)
		if err != nil {
			return 0, err
		}
		if compact, _ := tp.Routed.CompactQubits(); compact.N <= verifyQubits {
			cands = append(cands, cand{ci, compact.N})
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].qubits < cands[j].qubits })
	if len(cands) == 0 {
		rep.fail("%s: no cell narrow enough to verify", s.ID)
		return 0, nil
	}
	cands = cands[:min(verifyCells, len(cands))]
	for _, k := range cands {
		t := cells[k.ci]
		opt := s.CellOptions(t)
		opt.Cache, opt.Verify = nil, true
		met, err := s.Machines[t.Machine].EvaluateContext(ctx, b.circuit(si, t), opt)
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("verify %s: %v", first.cells[si][k.ci].met, err)
		case met != first.cells[si][k.ci].met:
			rep.fail("verify %s: got %s", first.cells[si][k.ci].met, met)
		}
	}
	return len(cands), nil
}

// fidelityRounding is how far above 1 a fidelity may read: a mean of
// trajectory overlaps that are each 1 up to rounding can exceed 1 in the
// last bits.
const fidelityRounding = 1e-9

// consistent checks one cell's metrics against each other.
func consistent(m core.Metrics, machine string, width int) error {
	switch {
	case m.Machine != machine || m.Width != width:
		return fmt.Errorf("labelled %s/%d, want %s/%d", m.Machine, m.Width, machine, width)
	case m.InducedSwaps < 0 || m.TotalSwaps < m.InducedSwaps:
		return fmt.Errorf("total swaps %d < induced %d", m.TotalSwaps, m.InducedSwaps)
	case m.CriticalSwaps > m.TotalSwaps:
		return fmt.Errorf("critical swaps %d > total %d", m.CriticalSwaps, m.TotalSwaps)
	case m.Critical2Q > m.Total2Q:
		return fmt.Errorf("critical 2Q %d > total %d", m.Critical2Q, m.Total2Q)
	case m.Total2Q > 0 && m.PulseDuration <= 0:
		return fmt.Errorf("%d 2Q gates but pulse duration %g", m.Total2Q, m.PulseDuration)
	case m.EstFidelity < 0 || m.EstFidelity > 1+fidelityRounding:
		return fmt.Errorf("fidelity %g outside [0, 1]", m.EstFidelity)
	}
	return nil
}
