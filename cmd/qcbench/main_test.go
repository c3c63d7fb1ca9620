package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runQ drives run() in-process, returning stdout, stderr, and the error.
func runQ(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb strings.Builder
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func wantUsageError(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected usage error containing %q, got nil", fragment)
	}
	var ue cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("expected usageError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestConflictingModesRejected(t *testing.T) {
	// -headline used to win silently over an explicit -fig.
	_, _, err := runQ(t, "-fig", "11", "-headline")
	wantUsageError(t, err, "mutually exclusive")
	_, _, err = runQ(t, "-headline", "-corralscaling")
	wantUsageError(t, err, "mutually exclusive")
	_, _, err = runQ(t, "-fig", "4", "-corralscaling", "-headline")
	wantUsageError(t, err, "mutually exclusive")
}

func TestIgnoredFlagsRejected(t *testing.T) {
	// -csv used to be dropped without a word under -headline/-corralscaling.
	_, _, err := runQ(t, "-headline", "-csv")
	wantUsageError(t, err, "-csv")
	_, _, err = runQ(t, "-corralscaling", "-csv")
	wantUsageError(t, err, "-csv")
	_, _, err = runQ(t, "-fig", "11", "-posts", "6")
	wantUsageError(t, err, "-posts")
	// Explicitly passing the default value is still an explicitly-set flag.
	_, _, err = runQ(t, "-fig", "11", "-posts", "6,8,10,12,16")
	wantUsageError(t, err, "-posts")
}

func TestNoModeIsUsageError(t *testing.T) {
	_, stderr, err := runQ(t)
	wantUsageError(t, err, "choose one")
	if !strings.Contains(stderr, "Usage of qcbench") {
		t.Errorf("usage text not printed, stderr: %q", stderr)
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	_, _, err := runQ(t, "-fig", "7")
	wantUsageError(t, err, "unknown figure 7")
}

func TestPositionalArgsRejected(t *testing.T) {
	_, _, err := runQ(t, "-headline", "extra")
	wantUsageError(t, err, "unexpected arguments")
}

func TestBadPostsRejected(t *testing.T) {
	_, _, err := runQ(t, "-corralscaling", "-posts", "6,eight")
	wantUsageError(t, err, "not an integer")
}

func TestNegativeKnobsRejected(t *testing.T) {
	// Negative values used to be swallowed silently: a negative trial or
	// worker count reads as "use the default" deep inside the pipeline,
	// and a negative ring size only failed later with a confusing
	// "needs ≥5 posts".
	_, _, err := runQ(t, "-fig", "11", "-trials", "-3")
	wantUsageError(t, err, "-trials")
	_, _, err = runQ(t, "-fig", "11", "-parallelism", "-1")
	wantUsageError(t, err, "-parallelism")
	_, _, err = runQ(t, "-corralscaling", "-posts", "-6,8")
	wantUsageError(t, err, "must be positive")
	_, _, err = runQ(t, "-fig", "11", "-profile", "-iterations", "0")
	wantUsageError(t, err, "-iterations")
	_, _, err = runQ(t, "-fig", "11", "-profile", "-iterations", "-2")
	wantUsageError(t, err, "-iterations")
}

func TestIterationsRequiresProfile(t *testing.T) {
	_, _, err := runQ(t, "-fig", "11", "-iterations", "2")
	wantUsageError(t, err, "-iterations")
	// Even the default value set explicitly is an explicitly-set flag.
	_, _, err = runQ(t, "-headline", "-iterations", "1")
	wantUsageError(t, err, "-iterations")
}

func TestCacheStatsPrintOnFailure(t *testing.T) {
	// A ring below 5 posts fails inside the corral study — after the cache
	// store exists. The stats line must still print: the old log.Fatal exit
	// skipped the deferred printer on every error path.
	dir := filepath.Join(t.TempDir(), "cache")
	_, stderr, err := runQ(t, "-corralscaling", "-posts", "3", "-cachedir", dir)
	if err == nil {
		t.Fatal("expected corral-scaling failure for 3 posts")
	}
	if errors.As(err, new(cli.UsageError)) {
		t.Fatalf("runtime failure misclassified as usage error: %v", err)
	}
	if !strings.Contains(stderr, "cache:") {
		t.Errorf("cache stats not printed on failure path, stderr: %q", stderr)
	}
}

func TestCacheStatsPrintOnSuccess(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	stdout, stderr, err := runQ(t, "-corralscaling", "-posts", "6", "-cachedir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "Corral scaling study") {
		t.Errorf("missing study output, stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "cache:") {
		t.Errorf("cache stats not printed, stderr: %q", stderr)
	}
}

func TestParseErrorIsDistinguished(t *testing.T) {
	_, _, err := runQ(t, "-no-such-flag")
	if err == nil || !cli.IsParseError(err) {
		t.Fatalf("expected parse error, got %v", err)
	}
}

func TestRobustnessFlagsValidated(t *testing.T) {
	_, _, err := runQ(t, "-fig", "11", "-cell-timeout", "-1s")
	wantUsageError(t, err, "-cell-timeout")
	_, _, err = runQ(t, "-fig", "11", "-deadline", "-1s")
	wantUsageError(t, err, "-deadline")
	// -tolerant and -resume are sweep machinery; reject them where they
	// would be silently ignored.
	_, _, err = runQ(t, "-headline", "-tolerant")
	wantUsageError(t, err, "-tolerant")
	_, _, err = runQ(t, "-corralscaling", "-resume", "sweep.journal")
	wantUsageError(t, err, "-resume")
}

func TestFaultDeadlineExpires(t *testing.T) {
	// An already-expired whole-run deadline must surface as the context
	// error, not a synthetic sweep failure, on every mode.
	_, _, err := runQ(t, "-fig", "11", "-deadline", "1ns")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("-fig under 1ns deadline = %v, want context.DeadlineExceeded", err)
	}
	_, _, err = runQ(t, "-headline", "-deadline", "1ns")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("-headline under 1ns deadline = %v, want context.DeadlineExceeded", err)
	}
	_, _, err = runQ(t, "-corralscaling", "-deadline", "1ns")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("-corralscaling under 1ns deadline = %v, want context.DeadlineExceeded", err)
	}
}

func TestResumeJournalReplaysSweep(t *testing.T) {
	// First run populates the journal; the second must replay every cell
	// (0 recorded) and print byte-identical results.
	journal := filepath.Join(t.TempDir(), "fig11.journal")
	out1, stderr1, err := runQ(t, "-fig", "11", "-resume", journal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr1, "journal: 0 cells replayed") {
		t.Errorf("first run should start from an empty journal, stderr: %q", stderr1)
	}
	out2, stderr2, err := runQ(t, "-fig", "11", "-resume", journal)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("journal-replayed sweep output diverged from the recording run")
	}
	if !strings.Contains(stderr2, "0 recorded this run") {
		t.Errorf("second run should replay every cell, stderr: %q", stderr2)
	}
}

func TestMachinesRequiresFig(t *testing.T) {
	_, _, err := runQ(t, "-headline", "-machines", "hypercube:dim=4")
	wantUsageError(t, err, "-machines")
	_, _, err = runQ(t, "-corralscaling", "-machines", "hypercube:dim=4")
	wantUsageError(t, err, "-machines")
}

func TestMachinesRejectsBadSpecs(t *testing.T) {
	_, _, err := runQ(t, "-fig", "11", "-machines", "moebius:dim=3")
	wantUsageError(t, err, "unknown family")
	_, _, err = runQ(t, "-fig", "11", "-machines", "grid:rows=4")
	wantUsageError(t, err, "missing required parameter")
	// Two unnamed identical specs collapse to one label; the sweep would
	// silently fold their rows together.
	_, _, err = runQ(t, "-fig", "11", "-machines", "hypercube:dim=4;hypercube:dim=4")
	wantUsageError(t, err, "duplicate machine name")
}

// TestMachinesReproducesFig11 is the acceptance criterion for the
// architecture registry: a -machines list of specs equivalent to Fig. 11's
// stock machine set — same topologies, same CX counting basis, name=
// parameters matching the stock labels — reproduces -fig 11 output
// byte-for-byte, because every cell's seed derives only from the sweep ID
// and the machine's name, and the registry builds fingerprint-identical
// graphs.
func TestMachinesReproducesFig11(t *testing.T) {
	stock, _, err := runQ(t, "-fig", "11")
	if err != nil {
		t.Fatal(err)
	}
	specs := "grid:rows=4,cols=4,name=Square-Lattice," +
		"hypercube:dim=4,name=Hypercube," +
		"tree:levels=2,name=Tree," +
		"tree-rr:levels=2,name=Tree-RR," +
		"corral:posts=8,strides=1+1,name=Corral(1,1)," +
		"corral:posts=8,strides=1+3,name=Corral(1,2)"
	viaSpecs, _, err := runQ(t, "-fig", "11", "-machines", specs)
	if err != nil {
		t.Fatal(err)
	}
	if stock != viaSpecs {
		t.Fatalf("-machines with equivalent specs diverged from -fig 11:\nstock:\n%s\nspecs:\n%s", stock, viaSpecs)
	}
	// A genuinely different machine set must change the output (guards
	// against the comparison passing vacuously).
	other, _, err := runQ(t, "-fig", "11", "-machines", "hypercube:dim=4,name=Hypercube")
	if err != nil {
		t.Fatal(err)
	}
	if other == stock {
		t.Fatal("single-machine sweep unexpectedly identical to the stock set")
	}
}

func TestNoiseFlagsValidated(t *testing.T) {
	// Noise flags are sweep machinery: reject them wherever they would be
	// silently ignored or silently wrong.
	_, _, err := runQ(t, "-headline", "-noise", "e2q=0.002")
	wantUsageError(t, err, "noise flags")
	_, _, err = runQ(t, "-corralscaling", "-noise-model", "count")
	wantUsageError(t, err, "noise flags")
	// A model or routing mode without any profile source can only ever
	// fail per cell; catch it up front.
	_, _, err = runQ(t, "-fig", "11", "-noise-model", "count")
	wantUsageError(t, err, "need a noise profile")
	_, _, err = runQ(t, "-fig", "11", "-noise-route", "pure")
	wantUsageError(t, err, "need a noise profile")
	_, _, err = runQ(t, "-fig", "11", "-noise", "bogus=1")
	wantUsageError(t, err, "bad -noise")
	_, _, err = runQ(t, "-fig", "11", "-noise", "e2q=0.002", "-noise-model", "quantum")
	wantUsageError(t, err, "unknown -noise-model")
	_, _, err = runQ(t, "-fig", "11", "-noise", "e2q=0.002", "-noise-route", "fast")
	wantUsageError(t, err, "unknown -noise-route")
	_, _, err = runQ(t, "-fig", "11", "-noise", "e2q=0.002", "-noise-shots", "-5")
	wantUsageError(t, err, "-noise-shots")
	// Shots under the count model would be ignored; that's a mistake too.
	_, _, err = runQ(t, "-fig", "11", "-noise", "e2q=0.002", "-noise-shots", "16")
	wantUsageError(t, err, "-noise-shots")
	// Fig. 12's 32-qubit cells cannot be simulated: refused before any
	// routing, and before -server would be contacted, so that a remote run
	// refuses exactly as a local one.
	mc := []string{"-fig", "12", "-noise", "e2q=0.002", "-noise-model", "montecarlo"}
	out, _, err := runQ(t, mc...)
	wantUsageError(t, err, "size 32 exceeds the 22 qubits noise_model montecarlo can simulate")
	remote, _, rerr := runQ(t, append(mc, "-server", "http://127.0.0.1:1")...)
	if out != "" || remote != "" || rerr == nil || rerr.Error() != err.Error() {
		t.Fatalf("-server refusal %q (stdout %q), local %q (stdout %q)", rerr, remote, err, out)
	}
}

func TestNoiseSweepOutput(t *testing.T) {
	baseline, _, err := runQ(t, "-fig", "11")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(baseline, "estFidelity") || strings.Contains(baseline, "noise:") {
		t.Fatal("noise-off -fig 11 output mentions noise; goldens would break")
	}
	noisy, _, err := runQ(t, "-fig", "11", "-noise", "e2q=0.002,tdec=0.001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(noisy, "[estFidelity]") {
		t.Fatal("-noise output has no [estFidelity] block")
	}
	if !strings.Contains(noisy, "noise: count model") {
		t.Fatalf("-noise header missing the model suffix:\n%s", firstLine(noisy))
	}
	// The routing tables themselves are untouched: the noisy output is the
	// baseline plus fidelity blocks and a header suffix.
	for _, line := range strings.Split(baseline, "\n") {
		if strings.HasPrefix(line, "Figure") || line == "" {
			continue
		}
		if !strings.Contains(noisy, line) {
			t.Fatalf("baseline row missing from noisy output: %q", line)
		}
	}
	csv, _, err := runQ(t, "-fig", "11", "-csv", "-noise", "e2q=0.002,tdec=0.001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv, "est_fidelity") {
		t.Fatal("-csv -noise output has no est_fidelity column")
	}
}

func TestNoiseMonteCarloAndSpecProfiles(t *testing.T) {
	// Machines can carry their own profiles via spec keys; -noise-route is
	// then legal without -noise.
	out, _, err := runQ(t, "-fig", "11",
		"-machines", "grid:rows=4,cols=4,basis=syc,e2q=0.001,e2q-5-6=0.3,name=HetGrid",
		"-noise-route", "pure")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "error-weighted routing") {
		t.Fatalf("-noise-route header suffix missing:\n%s", firstLine(out))
	}
	if !strings.Contains(out, "[estFidelity]") {
		t.Fatal("spec-profile sweep reported no fidelity")
	}
	// Monte-Carlo end to end, small shot count.
	mc, _, err := runQ(t, "-fig", "11",
		"-machines", "grid:rows=4,cols=4,basis=syc,e2q=0.002,name=G",
		"-noise-model", "montecarlo", "-noise-shots", "8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mc, "noise: montecarlo") || !strings.Contains(mc, "[estFidelity]") {
		t.Fatalf("montecarlo sweep output malformed:\n%s", firstLine(mc))
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestHeadlineSeedsEnsemble: -headline -seeds N prints each ratio's mean
// and range over base seeds 1..N next to the paper's value, the mean lies
// inside the range, and -seeds is rejected outside -headline or below 0.
func TestHeadlineSeedsEnsemble(t *testing.T) {
	out, _, err := runQ(t, "-headline", "-seeds", "2")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 || !strings.Contains(lines[0], "base seeds 1..2") {
		t.Fatalf("want a header and four ratio rows, got:\n%s", out)
	}
	for i, paper := range []string{"2.57x", "5.63x", "3.16x", "6.11x"} {
		var mean, lo, hi float64
		_, stats, _ := strings.Cut(lines[i+1], " mean ")
		stats = strings.NewReplacer("x", "", "[", "", "]", "", ",", "").Replace(stats)
		if _, err := fmt.Sscanf(stats, "%f %f %f", &mean, &lo, &hi); err != nil {
			t.Fatalf("row %q: %v", lines[i+1], err)
		}
		if !(lo <= mean && mean <= hi) || !strings.HasSuffix(lines[i+1], "(paper: "+paper+")") {
			t.Errorf("row %q: want lo ≤ mean ≤ hi and paper value %s", lines[i+1], paper)
		}
	}
	_, _, err = runQ(t, "-fig", "11", "-seeds", "2")
	wantUsageError(t, err, "-seeds")
	_, _, err = runQ(t, "-headline", "-seeds", "-1")
	wantUsageError(t, err, "-seeds")
}
