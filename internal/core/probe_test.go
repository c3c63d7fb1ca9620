package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/workloads"
)

// probeHashes pins, per evaluation key domain (evaluateKeyDomain, then
// noise.MonteCarloVersion), the hash of what the evaluation probe
// computes. Rows of earlier domains stay as history. A row is added, never
// edited: a change that moves the probe bumps the domain its numbers come
// from and pins the new hash under the new key. lockstep/v3 moved
// Monte-Carlo estimates in their last bits only, below the probe's
// rounding, so its row repeats v2's.
var probeHashes = map[string]string{
	"core.Evaluate/v2 lockstep/v2": "230919f15e19abe6017a3f23324d3f53bdbb30abc9deeb48bcd0c6896c8f3a4c",
	"core.Evaluate/v2 lockstep/v3": "230919f15e19abe6017a3f23324d3f53bdbb30abc9deeb48bcd0c6896c8f3a4c",
}

// probeCell is one evaluation of the probe: a registry machine spec with
// its noise profile, a workload of the given width, and the options that
// differ from a noiseless 3-trial stochastic-router evaluation.
type probeCell struct {
	machine  string
	workload string
	width    int
	opt      func(*Options)
}

// probeCells are the probe's evaluations. Most are as wide as, or nearly
// as wide as, their machine, where routing makes the most decisions: with
// widths of 6–12 the probe missed a 0.1 → 0.12 change of the stochastic
// router's perturbation scale that moves the fig11 goldens, and at these
// widths it catches 0.1 → 0.105.
func probeCells() []probeCell {
	sabre := func(o *Options) { o.Router = RouterSabre }
	guided := func(o *Options) { o.ProfileGuided = true }
	noisy := func(f FidelityModel, r NoiseRouteMode) func(*Options) {
		return func(o *Options) { o.Fidelity, o.NoiseRoute, o.NoiseShots = f, r, 24 }
	}
	both := func(fs ...func(*Options)) func(*Options) {
		return func(o *Options) {
			for _, f := range fs {
				f(o)
			}
		}
	}
	const (
		grid  = "grid:rows=4,cols=4,basis=syc,e2q=0.002,tdec=0.001,e2q-5-6=0.05"
		cube  = "hypercube:dim=4,basis=sqrtiswap,e2q=0.002,tdec=0.001,e2q-0-1=0.05"
		tree  = "tree:levels=2,e2q=0.002,tdec=0.001,e2q-0-4=0.05"
		count = FidelityCount
		mc    = FidelityMonteCarlo
	)
	none := func(*Options) {}
	return []probeCell{
		{grid, "QFT", 16, none},
		{grid, "QFT", 16, sabre},
		{grid, "TIM", 14, guided},
		{grid, "QFT", 14, both(sabre, guided)},
		{grid, "QFT", 16, noisy(count, NoiseRouteOff)},
		{grid, "TIM", 12, noisy(mc, NoiseRoutePure)},
		{grid, "QFT", 10, both(sabre, noisy(mc, NoiseRouteBlend))},
		{cube, "QFT", 16, none},
		{cube, "TIM", 16, sabre},
		{cube, "QFT", 14, guided},
		{cube, "TIM", 16, noisy(count, NoiseRoutePure)},
		{cube, "QFT", 12, both(sabre, noisy(mc, NoiseRouteOff))},
		{cube, "TIM", 10, both(guided, noisy(mc, NoiseRouteBlend))},
		{cube, "QFT", 14, noisy(count, NoiseRouteBlend)},
		{tree, "QFT", 18, none},
		{tree, "TIM", 20, sabre},
		{tree, "QFT", 16, both(sabre, guided)},
		{tree, "QFT", 12, noisy(mc, NoiseRoutePure)},
		{tree, "TIM", 16, both(sabre, noisy(count, NoiseRouteBlend))},
		{tree, "QFT", 14, both(guided, noisy(mc, NoiseRouteOff))},
	}
}

// probeCircuit builds a probe workload: QFT with its final swaps, or
// two Trotter steps of the transverse-field Ising Hamiltonian.
func probeCircuit(t *testing.T, name string, width int) *circuit.Circuit {
	switch name {
	case "QFT":
		return workloads.QFT(width, true)
	case "TIM":
		return workloads.TIMHamiltonian(width, 2)
	}
	t.Fatalf("no probe workload %q", name)
	return nil
}

// TestEvaluateProbe is the stale-cache check. Cached metrics are keyed by
// the evaluation's inputs and a domain string: evaluateKeyDomain, and for
// Monte-Carlo estimates noise.MonteCarloVersion. A change that moves what
// EvaluateContext computes for the same inputs must bump one of them, or a
// persistent cache serves the old numbers as fresh ones. The probe runs
// twenty evaluations over three registry families and two workloads, both
// routers, profile-guided routing on and off, every noise route and every
// fidelity model, and hashes each routed circuit's fingerprint, its
// integer metrics exactly and its float metrics at the precision the
// goldens print (pulse duration to 0.1, fidelities to 1e-4), which
// compiler fusion of multiply-adds on other platforms does not move. The
// hash must be the one pinned for the current domain.
func TestEvaluateProbe(t *testing.T) {
	var lines strings.Builder
	for i, pc := range probeCells() {
		m, err := FromSpec(pc.machine)
		if err != nil {
			t.Fatal(err)
		}
		c := probeCircuit(t, pc.workload, pc.width)
		opt := Options{Seed: int64(100 + i), Trials: 3}
		pc.opt(&opt)
		met, err := m.EvaluateContext(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("probe %d (%s %s-%d): %v", i, pc.machine, pc.workload, pc.width, err)
		}
		tr, err := m.TranspileContext(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		fmt.Fprintf(&lines, "%d %#x %d %d %d %d %d %d %d %.1f %.4f %.4f %.4f\n", i, tr.Routed.Fingerprint(),
			met.Width, met.PreRouting2Q, met.TotalSwaps, met.InducedSwaps, met.CriticalSwaps, met.Total2Q, met.Critical2Q,
			met.PulseDuration, met.EstFidelity, met.ControlFidelity, met.DecoherenceFidelity)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(lines.String())))
	domain := evaluateKeyDomain + " " + noise.MonteCarloVersion
	want, ok := probeHashes[domain]
	if got != want {
		t.Logf("probe lines (index, routed fingerprint, integer metrics, rounded float metrics):\n%s", lines.String())
	}
	switch {
	case !ok:
		t.Fatalf("no probe hash pinned for %q: pin %s under it", domain, got)
	case got != want:
		t.Fatalf("probe hash %s, pinned %s under %q: the evaluation moved under an unchanged cache domain; bump evaluateKeyDomain (or noise.MonteCarloVersion, if only Monte-Carlo estimates moved) and pin the new hash", got, want, domain)
	}
}
