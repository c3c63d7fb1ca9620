// Command qcbench regenerates the paper's transpilation sweeps:
//
//	qcbench -fig 4    total/critical SWAPs, 84q standard topologies (Fig. 4)
//	qcbench -fig 11   total/critical SWAPs, 16q SNAIL topologies (Fig. 11)
//	qcbench -fig 12   total/critical SWAPs, 84q incl. Tree/Tree-RR (Fig. 12)
//	qcbench -fig 13   co-designed total 2Q + pulse duration, 16q (Fig. 13)
//	qcbench -fig 14   co-designed total 2Q + pulse duration, 84q (Fig. 14)
//	qcbench -headline the §1/§6 Heavy-Hex-vs-Hypercube summary ratios
//	qcbench -headline -seeds 8
//	                  the same ratios' mean and [min, max] over base seeds 1..8
//
// By default a reduced ("quick") configuration runs in seconds; -full uses
// the paper's sizes (16..80 qubits, 20 routing trials), which takes tens of
// minutes for the 84-qubit figures on one core.
//
// -profile enables profile-guided routing: every evaluation first routes a
// pilot pass under uniform hop distances, measures per-edge SWAP pressure,
// then re-lays-out and re-routes under pressure-weighted distances that
// price congested links (corral fences, tree roots) above idle ones,
// keeping the cheaper of the two routings. Roughly 2× the routing time;
// never worse than the baseline on induced SWAPs. -iterations N repeats
// the profile→reweight→reroute loop up to N times (keeping a candidate
// only when strictly cheaper, stopping early at a fixed point), so more
// iterations never route worse.
//
// -trials overrides the stochastic router's per-layer trial count (0 =
// mode default: 5 quick, 20 full). Negative values for -trials,
// -parallelism, -iterations, or -posts are rejected with usage errors.
//
// -machines "spec;spec;..." replaces a -fig sweep's machine set with
// architectures built from declarative specs (family:key=value,... — see
// package arch and the README's architecture-registry section), keeping
// the figure's workloads, sizes, seed, and output format. Cell seeds
// derive from the sweep ID and machine names, so specs whose name=
// parameters match a figure's stock machines reproduce its output
// byte-for-byte.
//
// -cachedir DIR enables the content-addressed result cache with an on-disk
// JSON tier rooted at DIR (created if missing): every evaluation is stored
// under a hash of its machine, circuit and result-changing options
// (core.Options.Identity), so regenerating a figure — or another figure
// sharing cells — skips routing that already ran, in this process or any
// earlier one, and baseline, profile-guided and noisy evaluations share a
// directory without cross-contamination. Cached output is
// byte-identical to a cold run of the same build: keys are content hashes
// of the inputs plus a pipeline version tag, so entries need no manual
// invalidation, but a directory written by a build with different routing
// or translation behavior (and an unbumped tag — see core.evaluateKeyDomain)
// is only as fresh as that tag. Hit/miss counts print to stderr on every
// exit path, including failed sweeps.
//
// -noise "e2q=P,tdec=R,e2q-a-b=P" attaches a noise profile to every machine
// in a -fig sweep (machines whose -machines specs declare their own e2q=/
// tdec= keys keep them — a machine's profile wins over the sweep default)
// and reports each cell's estimated output-state fidelity in an extra
// [estFidelity] table block (or est_fidelity CSV column). -noise-model
// picks the estimator: count (closed-form, the default) or montecarlo
// (trajectory sampling, -noise-shots trajectories per cell). -noise-route
// re-routes against error-weighted edge costs instead of plain hop counts:
// pure prices edges by −ln(1−p) alone; blend multiplies the error weights
// into measured SWAP-pressure weights after a pilot pass.
//
// -server URL runs a -fig sweep on a qcbenchd service, byte-identically:
// the request carries every knob above that changes a result, the noise
// flags included (daemon.Knobs). -cachedir, -resume and -parallelism are
// usage errors with it: the daemon owns its cache, journal and pool.
//
// Long unattended runs are bounded and interruptible: -cell-timeout D
// fails any single evaluation exceeding D (the sweep continues under
// -tolerant), -deadline D bounds the whole invocation, and Ctrl-C cancels
// cooperatively — in-flight cells stop at their next poll, partial results
// (under -tolerant) and cache stats still print. -tolerant completes a
// -fig sweep around failing cells instead of aborting on the first one,
// reporting the casualties on stderr. -resume FILE journals every
// completed cell to FILE (created if missing) and replays cells already
// journaled, so a killed sweep restarted with the same journal recomputes
// only what is missing and prints output byte-identical to an
// uninterrupted run. None of these knobs changes any number a completed
// run reports.
//
// Exactly one of -fig, -headline, -corralscaling must be chosen, and -csv,
// -tolerant, and -resume only apply to -fig sweeps; conflicting
// combinations are rejected with a usage error instead of being silently
// ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
)

func main() {
	cli.Exit("qcbench", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single exit point: every return path
// unwinds the defers, so the -cachedir stats line prints even when a sweep
// fails — log.Fatal's os.Exit used to skip it.
func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("qcbench", stderr)
	fig := fs.Int("fig", 0, "figure to regenerate: 4, 11, 12, 13, or 14")
	headline := fs.Bool("headline", false, "compute the Heavy-Hex vs Hypercube headline ratios")
	seeds := fs.Int("seeds", 0,
		"with -headline: run base seeds 1..N and print each ratio's mean and [min, max] (0 = the paper seed only)")
	corral := fs.Bool("corralscaling", false, "run the §7 Corral scaling study")
	csv := fs.Bool("csv", false, "emit sweep results as CSV (-fig only)")
	full := fs.Bool("full", false, "use the paper's full sizes (slow)")
	profile := fs.Bool("profile", false,
		"profile-guided routing: pilot pass, per-edge SWAP pressure, pressure-weighted final pass (~2x routing time, never more SWAPs)")
	iterations := fs.Int("iterations", 1,
		"profile→reweight feedback iterations for -profile (each keeps the routing only when strictly cheaper; stops early at a fixed point)")
	trialsFlag := fs.Int("trials", 0,
		"stochastic-router trials per layer (0 = mode default: 5 quick, 20 full)")
	parallelism := fs.Int("parallelism", 0,
		"cell pool size for -fig, -headline and -corralscaling (0 = all cores, 1 = serial; output is identical at any setting)")
	cachedir := fs.String("cachedir", "",
		"directory for the on-disk result cache (default off; warm entries make repeated runs skip identical routing)")
	posts := fs.String("posts", "6,8,10,12,16",
		"comma-separated Corral ring sizes for -corralscaling (each ≥5 posts)")
	cellTimeout := fs.Duration("cell-timeout", 0,
		"per-evaluation wall-clock budget (0 = unbounded; an expired cell fails with deadline exceeded)")
	deadline := fs.Duration("deadline", 0,
		"whole-run wall-clock budget (0 = unbounded)")
	tolerant := fs.Bool("tolerant", false,
		"complete a -fig sweep around failing cells instead of aborting; failures print to stderr")
	resume := fs.String("resume", "",
		"journal file for crash-resumable -fig sweeps (created if missing; journaled cells replay instead of recomputing)")
	machines := fs.String("machines", "",
		"replace a -fig sweep's machine set with architecture specs, e.g. \"corral:posts=11,basis=sqrtiswap;hypercube:dim=5\" (specs separated by ';' or by ',' before a family name; see README)")
	server := fs.String("server", "",
		"qcbenchd base URL (e.g. http://127.0.0.1:8123): run the -fig sweep on the evaluation service instead of locally; output is byte-identical to a local run")
	noiseFlag := fs.String("noise", "",
		"noise profile for every machine in a -fig sweep, e.g. \"e2q=0.002,tdec=0.001,e2q-0-1=0.05\" (machines whose specs carry their own e2q=/tdec= keys keep them)")
	noiseModel := fs.String("noise-model", "",
		"fidelity estimator: count (closed-form) or montecarlo (trajectory sampling); default count when noise is configured")
	noiseRoute := fs.String("noise-route", "",
		"error-weighted routing: pure (edge costs from error rates alone) or blend (error weights × measured SWAP pressure)")
	noiseShots := fs.Int("noise-shots", 0,
		"Monte-Carlo trajectories per cell for -noise-model montecarlo (0 = default)")
	if err := fs.Parse(args); err != nil {
		return cli.WrapParse(err)
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments %q (qcbench takes flags only)", fs.Args())
	}

	// Reject conflicting or silently-ignored combinations up front: the old
	// CLI let -headline win over an explicit -fig and dropped -csv under
	// -headline/-corralscaling without a word.
	var modes []string
	if *fig != 0 {
		modes = append(modes, "-fig")
	}
	if *headline {
		modes = append(modes, "-headline")
	}
	if *corral {
		modes = append(modes, "-corralscaling")
	}
	if len(modes) == 0 {
		fs.Usage()
		return cli.Usagef("choose one of -fig, -headline, -corralscaling")
	}
	if len(modes) > 1 {
		return cli.Usagef("%v are mutually exclusive; choose one", modes)
	}
	if *seeds < 0 {
		return cli.Usagef("-seeds must be ≥ 0 (0 = the paper seed only), got %d", *seeds)
	}
	if *seeds > 0 && !*headline {
		return cli.Usagef("-seeds only applies to -headline; it would be ignored under %s", modes[0])
	}
	if *csv && *fig == 0 {
		return cli.Usagef("-csv only applies to -fig sweeps; it would be ignored under %s", modes[0])
	}
	postsSet, iterationsSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "posts":
			postsSet = true
		case "iterations":
			iterationsSet = true
		}
	})
	if postsSet && !*corral {
		return cli.Usagef("-posts only applies to -corralscaling; it would be ignored under %s", modes[0])
	}
	if iterationsSet && !*profile {
		return cli.Usagef("-iterations only applies with -profile; it would be ignored otherwise")
	}
	// Negative knob values used to be swallowed silently (a negative trial
	// or worker count reads as "use the default" deep inside the pipeline);
	// reject them here where the mistake is visible.
	if *trialsFlag < 0 {
		return cli.Usagef("-trials must be ≥ 0 (0 = mode default), got %d", *trialsFlag)
	}
	if *parallelism < 0 {
		return cli.Usagef("-parallelism must be ≥ 0 (0 = all cores), got %d", *parallelism)
	}
	if *iterations < 1 {
		return cli.Usagef("-iterations must be ≥ 1, got %d", *iterations)
	}
	if *cellTimeout < 0 {
		return cli.Usagef("-cell-timeout must be ≥ 0 (0 = unbounded), got %v", *cellTimeout)
	}
	if *deadline < 0 {
		return cli.Usagef("-deadline must be ≥ 0 (0 = unbounded), got %v", *deadline)
	}
	if *tolerant && *fig == 0 {
		return cli.Usagef("-tolerant only applies to -fig sweeps; it would be ignored under %s", modes[0])
	}
	if *resume != "" && *fig == 0 {
		return cli.Usagef("-resume only applies to -fig sweeps; it would be ignored under %s", modes[0])
	}
	if *machines != "" && *fig == 0 {
		return cli.Usagef("-machines only applies to -fig sweeps; it would be ignored under %s", modes[0])
	}
	noiseConfigured := *noiseFlag != "" || *noiseModel != "" || *noiseRoute != "" || *noiseShots != 0
	if noiseConfigured && *fig == 0 {
		return cli.Usagef("noise flags only apply to -fig sweeps; they would be ignored under %s", modes[0])
	}
	// -noise-model/-noise-route without -noise are legal only when -machines
	// can supply per-machine profiles via e2q=/tdec= spec keys; a missing
	// profile then fails per cell with a descriptive core error.
	if (*noiseModel != "" || *noiseRoute != "") && *noiseFlag == "" && *machines == "" {
		return cli.Usagef("-noise-model/-noise-route need a noise profile: set -noise, or -machines specs with e2q=/tdec= keys")
	}
	fidelity, err := core.FidelityNames.Parse("-noise-model", *noiseModel)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	var noiseProfile *arch.NoiseProfile
	if *noiseFlag != "" {
		if noiseProfile, err = arch.ParseNoise(*noiseFlag); err != nil {
			return cli.Usagef("bad -noise: %v", err)
		}
	}
	if noiseConfigured && fidelity == core.FidelityOff {
		fidelity = core.FidelityCount
	}
	if *noiseShots < 0 {
		return cli.Usagef("-noise-shots must be ≥ 0 (0 = default), got %d", *noiseShots)
	}
	if *noiseShots > 0 && fidelity != core.FidelityMonteCarlo {
		return cli.Usagef("-noise-shots only applies to -noise-model montecarlo; it would be ignored otherwise")
	}
	routeMode, err := core.NoiseRouteNames.Parse("-noise-route", *noiseRoute)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	// Remote sweeps hand cache, journal, and pool sizing to the daemon;
	// flags that would silently do nothing (or fight the server) are
	// rejected rather than ignored.
	if *server != "" {
		if *fig == 0 {
			return cli.Usagef("-server only applies to -fig sweeps; it would be ignored under %s", modes[0])
		}
		if *cachedir != "" {
			return cli.Usagef("-cachedir does not apply with -server: the daemon owns the result cache")
		}
		if *resume != "" {
			return cli.Usagef("-resume does not apply with -server: the daemon journals sweeps server-side (qcbenchd -journaldir)")
		}
		if *parallelism != 0 {
			return cli.Usagef("-parallelism does not apply with -server: the daemon sizes its own worker pool")
		}
	}
	postSizes, err := parsePosts(*posts)
	if err != nil {
		return cli.Usagef("bad -posts: %v", err)
	}
	quick := !*full
	var spec experiments.SweepSpec
	if *fig != 0 {
		switch *fig {
		case 4:
			spec = experiments.Fig4Spec(quick)
		case 11:
			spec = experiments.Fig11Spec(quick)
		case 12:
			spec = experiments.Fig12Spec(quick)
		case 13:
			spec = experiments.Fig13Spec(quick)
		case 14:
			spec = experiments.Fig14Spec(quick)
		default:
			return cli.Usagef("unknown figure %d: want 4, 11, 12, 13, or 14", *fig)
		}
		// -machines swaps in a custom comparison set, keeping the figure's
		// workloads, sizes, seed, and output format. Cell seeds derive from
		// (sweep ID, machine name), so specs that name= themselves after a
		// figure's stock machines reproduce its cells exactly.
		if *machines != "" {
			ms, err := experiments.MachinesFromSpecs(*machines)
			if err != nil {
				return cli.Usagef("bad -machines: %v", err)
			}
			spec.Machines = ms
		}
	}

	// Ctrl-C and SIGTERM cancel cooperatively instead of killing the
	// process: every in-flight cell stops at its next poll, and the
	// deferred cache-stats (and, under -tolerant, partial-results) paths
	// still run.
	ctx, stop := cli.NotifyContext(context.Background())
	defer stop()

	// One unified experiment configuration feeds every mode: the CLI flags
	// land in experiments.Config once instead of positionally per harness.
	cfg := experiments.DefaultConfig()
	cfg.Quick = quick
	cfg.Trials = *trialsFlag
	cfg.Parallelism = *parallelism
	cfg.ProfileGuided = *profile
	cfg.ProfileIterations = *iterations
	cfg.CellTimeout = *cellTimeout
	cfg.Deadline = *deadline
	cfg.Tolerant = *tolerant
	cfg.Noise = noiseProfile
	cfg.Fidelity = fidelity
	cfg.NoiseShots = *noiseShots
	cfg.NoiseRoute = routeMode

	if *cachedir != "" {
		store, err := core.NewMetricsCache(0, *cachedir)
		if err != nil {
			return err
		}
		cfg.Cache = store
		defer func() {
			st := store.Stats()
			fmt.Fprintf(stderr, "cache: %d hits (%d mem, %d disk), %d misses, %d evaluations\n",
				st.Hits(), st.MemHits, st.DiskHits, st.Misses, st.Fills)
		}()
	}

	switch {
	case *corral:
		rows, err := experiments.CorralScalingContext(ctx, postSizes, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Corral scaling study (paper §7 future work): ring growth with")
		fmt.Fprintln(stdout, "the long fence at ~1/3 of the ring; QV at 80% machine fill.")
		fmt.Fprint(stdout, experiments.FormatCorralScaling(rows))
	case *headline && *seeds > 0:
		return printHeadlineEnsemble(ctx, stdout, cfg, *seeds)
	case *headline:
		h, err := experiments.HeadlinesContext(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "QuantumVolume average ratios, Heavy-Hex+CNOT / Hypercube+sqrtISWAP (sizes %v):\n", h.Sizes)
		for _, r := range headlineRows {
			fmt.Fprintf(stdout, "  %-18s %.2fx   (paper: %.2fx)\n", r.label, r.get(h), r.paper)
		}
	default:
		// Figure specs pin their historical seed and explicit trial counts
		// (and with them their cache keys); the flags set everything else.
		seed, trials := spec.Seed, spec.Trials
		spec.Config = cfg
		spec.Seed = seed
		if *trialsFlag == 0 {
			spec.Trials = trials
		}
		// Refused here, before the local/-server split, so both refuse alike.
		if err := experiments.CheckSimulable(spec.Options, spec.Sizes...); err != nil {
			return cli.Usagef("%v", err)
		}
		headerSuffix := fmt.Sprintf("%s mode%s%s", mode(quick), profiledSuffix(*profile), noiseSuffix(fidelity, routeMode))
		if *server != "" {
			series, err := remoteSweep(ctx, *server, *fig, *machines, spec)
			return printSweep(stdout, stderr, *csv, *fig, headerSuffix, spec.Kind, series, err)
		}
		if *resume != "" {
			j, err := experiments.OpenJournal(*resume)
			if err != nil {
				return err
			}
			defer j.Close()
			resumed := j.Len()
			defer func() {
				fmt.Fprintf(stderr, "journal: %d cells replayed, %d recorded this run\n",
					resumed, j.Len()-resumed)
			}()
			spec.Journal = j
		}
		series, err := spec.RunContext(ctx)
		return printSweep(stdout, stderr, *csv, *fig, headerSuffix, spec.Kind, series, err)
	}
	return nil
}

// printSweep renders a completed -fig sweep: the full table or CSV when err
// is nil, the PARTIAL header plus surviving cells when err is a tolerant
// sweep's experiments.CellErrors aggregate (per-cell failures then go to
// stderr), and the bare error otherwise. Local and remote sweeps share this
// one path, so a -server run's output is byte-identical to a local run's.
func printSweep(stdout, stderr io.Writer, useCSV bool, fig int, headerSuffix string, kind experiments.SweepKind, series []experiments.Series, err error) error {
	if err != nil {
		var ce experiments.CellErrors
		if !errors.As(err, &ce) {
			return err
		}
		if useCSV {
			fmt.Fprint(stdout, experiments.SeriesCSV(series, kind))
		} else {
			fmt.Fprintf(stdout, "Figure %d (%s) — PARTIAL, %d cells failed\n", fig, headerSuffix, len(ce))
			fmt.Fprint(stdout, experiments.FormatSeries(series, kind))
		}
		for _, c := range ce {
			fmt.Fprintf(stderr, "cell failed: %v\n", c)
		}
		return err
	}
	if useCSV {
		fmt.Fprint(stdout, experiments.SeriesCSV(series, kind))
		return nil
	}
	fmt.Fprintf(stdout, "Figure %d (%s)\n", fig, headerSuffix)
	fmt.Fprint(stdout, experiments.FormatSeries(series, kind))
	return nil
}

// remoteSweep runs a -fig sweep on a qcbenchd server instead of locally
// (daemon.Client.RunSweep). The wire request is the spec the local path
// would run, with the figure's machines as declarative specs
// (FigMachineSpecs round-trips the stock sets name-and-fingerprint
// identically), so cell seeds, cache keys, every metric and the
// tolerant or fail-fast error match a local run exactly.
func remoteSweep(ctx context.Context, server string, fig int, machineSpecs string, spec experiments.SweepSpec) ([]experiments.Series, error) {
	specList := machineSpecs
	if specList == "" {
		var err error
		if specList, err = experiments.FigMachineSpecs(fig); err != nil {
			return nil, err
		}
	}
	return daemon.NewClient(strings.TrimRight(server, "/")).RunSweep(ctx, spec, specList)
}

func mode(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func profiledSuffix(profiled bool) string {
	if profiled {
		return ", profile-guided"
	}
	return ""
}

// noiseSuffix describes the noise configuration in the figure header, empty
// when noise is off so historical headers stay byte-identical.
func noiseSuffix(fidelity core.FidelityModel, route core.NoiseRouteMode) string {
	return [...]string{core.FidelityCount: ", noise: count model", core.FidelityMonteCarlo: ", noise: montecarlo"}[fidelity] +
		[...]string{core.NoiseRoutePure: ", error-weighted routing", core.NoiseRouteBlend: ", error×pressure routing"}[route]
}

// parsePosts parses the -posts list. Non-positive sizes are rejected here
// (a negative ring size is always a typo); the ≥5-posts design minimum
// still belongs to experiments.CorralScaling.
func parsePosts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("ring size %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// headlineRows are the §1/§6 ratios -headline prints, with the paper's
// values.
var headlineRows = []struct {
	label string
	paper float64
	get   func(experiments.Headline) float64
}{
	{"total SWAPs", 2.57, func(h experiments.Headline) float64 { return h.SwapRatio }},
	{"critical SWAPs", 5.63, func(h experiments.Headline) float64 { return h.CriticalSwapRatio }},
	{"total 2Q gates", 3.16, func(h experiments.Headline) float64 { return h.Total2QRatio }},
	{"pulse duration", 6.11, func(h experiments.Headline) float64 { return h.DurationRatio }},
}

// printHeadlineEnsemble runs the headline study at base seeds 1..n and
// prints each ratio's mean and range next to the paper's value: one seed
// cannot show how far the ratios move with the router's random stream.
// cfg.Deadline bounds the whole ensemble, not each seed.
func printHeadlineEnsemble(ctx context.Context, stdout io.Writer, cfg experiments.Config, n int) error {
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
		cfg.Deadline = 0
	}
	hs := make([]experiments.Headline, n)
	for i := range hs {
		cfg.Seed = int64(i + 1)
		var err error
		if hs[i], err = experiments.HeadlinesContext(ctx, cfg); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "QuantumVolume average ratios over base seeds 1..%d, Heavy-Hex+CNOT / Hypercube+sqrtISWAP (sizes %v):\n", n, hs[0].Sizes)
	for _, r := range headlineRows {
		sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		for _, h := range hs {
			v := r.get(h)
			sum, lo, hi = sum+v, math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Fprintf(stdout, "  %-18s mean %.2fx  [%.2fx, %.2fx]   (paper: %.2fx)\n", r.label, sum/float64(n), lo, hi, r.paper)
	}
	return nil
}
