package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// updateClaims regenerates testdata/claims_ensemble.json from this tree:
//
//	go test ./internal/experiments -run TestClaimsEnsemble -update-claims
//
// Regenerate it only from a tree whose routing is the accepted baseline;
// a change that moves the random stream is judged against the file, not
// written into it.
var updateClaims = flag.Bool("update-claims", false, "rewrite testdata/claims_ensemble.json from this tree")

const claimsFile = "testdata/claims_ensemble.json"

// claimSeeds is the ensemble: quick mode at base seeds 1..8.
const claimSeeds = 8

// claimsGateSE is how many Welch standard errors a claim's mean may move,
// and how far apart two machines' baseline means must be before their
// order counts as a claim.
const claimsGateSE = 3

// machineTotals is one machine's totals over a figure's (workload, size)
// cells: SWAPs and critical-path SWAPs for the topology figures, 2Q gates
// and pulse duration for the co-design figures.
type machineTotals struct {
	Machine  string  `json:"machine"`
	Total    float64 `json:"total"`
	Critical float64 `json:"critical"`
}

// claimRun is one seed's claims: the four §1/§6 headline ratios and every
// quick Fig. 11–14 machine's totals, machines in figure order.
type claimRun struct {
	Seed     int64                      `json:"seed"`
	Headline map[string]float64         `json:"headline"`
	Figures  map[string][]machineTotals `json:"figures"`
}

type claimsEnsemble struct {
	Config string     `json:"config"`
	Runs   []claimRun `json:"runs"`
}

// runClaims evaluates one seed of the ensemble under QuickConfig.
func runClaims(ctx context.Context, seed int64) (claimRun, error) {
	cfg := QuickConfig()
	cfg.Seed = seed
	h, err := HeadlinesContext(ctx, cfg)
	if err != nil {
		return claimRun{}, err
	}
	run := claimRun{
		Seed: seed,
		Headline: map[string]float64{
			"swap":          h.SwapRatio,
			"critical_swap": h.CriticalSwapRatio,
			"two_q":         h.Total2QRatio,
			"duration":      h.DurationRatio,
		},
		Figures: map[string][]machineTotals{},
	}
	for _, spec := range []SweepSpec{Fig11Spec(true), Fig12Spec(true), Fig13Spec(true), Fig14Spec(true)} {
		spec.Seed = seed
		series, err := spec.RunContext(ctx)
		if err != nil {
			return claimRun{}, err
		}
		totals := make([]machineTotals, len(spec.Machines))
		for i, m := range spec.Machines {
			totals[i].Machine = m.Name
		}
		for si, s := range series {
			mt := &totals[si%len(spec.Machines)]
			for _, p := range s.Points {
				mt.Total += p.Total
				mt.Critical += p.Critical
			}
		}
		run.Figures[spec.ID] = totals
	}
	return run, nil
}

// headlineClaims names the four §1/§6 ratios in claimRun.Headline.
var headlineClaims = []string{"swap", "critical_swap", "two_q", "duration"}

// column is one quantity of every run of an ensemble.
func column(runs []claimRun, f func(claimRun) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return xs
}

// meanSE returns the mean of xs and the variance of that mean, s²/n.
func meanSE(xs []float64) (mean, v float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return mean, v / (n - 1) / n
}

// claimsViolations judges got against the baseline ensemble base. A claim
// is a headline ratio's mean, or the order of two machines in a figure
// whose baseline means are more than claimsGateSE Welch standard errors
// apart; closer pairs are ties the ensemble cannot order, and are not
// checked. A headline mean fails when it moves by more than claimsGateSE
// Welch standard errors of the difference of the two ensembles' means.
func claimsViolations(base, got []claimRun) []string {
	var out []string
	for _, name := range headlineClaims {
		get := func(r claimRun) float64 { return r.Headline[name] }
		mb, vb := meanSE(column(base, get))
		mg, vg := meanSE(column(got, get))
		if se := math.Sqrt(vb + vg); math.Abs(mg-mb) > claimsGateSE*se {
			out = append(out, fmt.Sprintf("headline %s: mean %.4f, baseline %.4f (|Δ| = %.1f SE, limit %d)",
				name, mg, mb, math.Abs(mg-mb)/se, claimsGateSE))
		}
	}
	for _, fig := range slices.Sorted(maps.Keys(base[0].Figures)) {
		machines := base[0].Figures[fig]
		if len(got[0].Figures[fig]) != len(machines) {
			out = append(out, fmt.Sprintf("%s: %d machines, baseline %d", fig, len(got[0].Figures[fig]), len(machines)))
			continue
		}
		for _, metric := range []string{"total", "critical"} {
			value := func(r claimRun, i int) float64 {
				if metric == "total" {
					return r.Figures[fig][i].Total
				}
				return r.Figures[fig][i].Critical
			}
			for a := range machines {
				for b := a + 1; b < len(machines); b++ {
					ma, va := meanSE(column(base, func(r claimRun) float64 { return value(r, a) }))
					mb, vb := meanSE(column(base, func(r claimRun) float64 { return value(r, b) }))
					if math.Abs(ma-mb) <= claimsGateSE*math.Sqrt(va+vb) {
						continue // a tie at this ensemble size
					}
					ga, _ := meanSE(column(got, func(r claimRun) float64 { return value(r, a) }))
					gb, _ := meanSE(column(got, func(r claimRun) float64 { return value(r, b) }))
					if (ga < gb) != (ma < mb) || ga == gb {
						out = append(out, fmt.Sprintf("%s %s: %s %.1f vs %s %.1f, baseline %.1f vs %.1f",
							fig, metric, machines[a].Machine, ga, machines[b].Machine, gb, ma, mb))
					}
				}
			}
		}
	}
	return out
}

// TestClaimsEnsemble is the paper-claims gate on the router's random
// stream: it reruns the quick seed ensemble and requires every headline
// ratio's mean to stay within claimsGateSE Welch standard errors of the
// committed baseline, and every figure's well-separated machine pairs to
// keep their order. A router change that keeps the distribution of its
// draws passes even though every routed circuit moves; one that shifts
// the distribution fails.
func TestClaimsEnsemble(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns 8 seeds of the quick figures")
	}
	got := make([]claimRun, claimSeeds)
	for i := range got {
		var err error
		if got[i], err = runClaims(context.Background(), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if *updateClaims {
		b, err := json.MarshalIndent(claimsEnsemble{Config: "QuickConfig", Runs: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(claimsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(claimsFile)
	if err != nil {
		t.Fatal(err)
	}
	var base claimsEnsemble
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Runs) != claimSeeds {
		t.Fatalf("%s holds %d seeds, want %d", claimsFile, len(base.Runs), claimSeeds)
	}
	for _, name := range headlineClaims {
		get := func(r claimRun) float64 { return r.Headline[name] }
		mb, _ := meanSE(column(base.Runs, get))
		mg, _ := meanSE(column(got, get))
		t.Logf("headline %-13s mean %.3f (baseline %.3f)", name, mg, mb)
	}
	if v := claimsViolations(base.Runs, got); len(v) > 0 {
		t.Errorf("the seed ensemble moved off the paper's claims:\n  %s", strings.Join(v, "\n  "))
	}
}

// TestClaimsGateJudges pins the gate's arithmetic on a synthetic ensemble:
// an unchanged ensemble passes, a headline mean shifted by 4 SE fails, a
// swapped well-separated pair fails, and a swapped tie does not.
func TestClaimsGateJudges(t *testing.T) {
	mk := func(shift float64, tieSwap, sepSwap bool) []claimRun {
		runs := make([]claimRun, claimSeeds)
		for i := range runs {
			noise := float64(i%4) - 1.5 // sample sd ≈ 1.2
			a, b, c := 100+noise, 100.5+noise, 150+noise
			if tieSwap {
				a, b = b, a
			}
			if sepSwap {
				a, c = c, a
			}
			runs[i] = claimRun{
				Headline: map[string]float64{"swap": 4 + 0.1*noise + shift, "critical_swap": 4, "two_q": 3, "duration": 7},
				Figures:  map[string][]machineTotals{"fig": {{"A", a, a}, {"B", b, b}, {"C", c, c}}},
			}
		}
		return runs
	}
	base := mk(0, false, false)
	if v := claimsViolations(base, mk(0, false, false)); len(v) > 0 {
		t.Errorf("identical ensembles flagged: %v", v)
	}
	// The swap ratio's sd is ~0.12, so its mean's Welch SE over two
	// 8-seed ensembles is ~0.06: a 0.25 shift is ~4 SE.
	if v := claimsViolations(base, mk(0.25, false, false)); len(v) != 1 || !strings.Contains(v[0], "headline swap") {
		t.Errorf("a 4 SE headline shift gave %v, want one headline swap violation", v)
	}
	if v := claimsViolations(base, mk(0, true, false)); len(v) > 0 {
		t.Errorf("a swapped tie was flagged: %v", v)
	}
	if v := claimsViolations(base, mk(0, false, true)); len(v) == 0 {
		t.Error("a swapped well-separated pair was not flagged")
	}
}
