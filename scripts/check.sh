#!/usr/bin/env bash
# check.sh — static and concurrency preflight for the repository:
#   * gofmt -l over every Go file: unformatted code is rejected repo-wide
#   * go vet over every package (on amd64 this includes asmdecl, which
#     checks the SSE2 kernels' frame sizes and argument names against their
#     Go declarations)
#   * portable-path vet: GOARCH=arm64 go vet ./... compiles and vets the
#     files amd64 leaves out (internal/sim/kernels_generic.go binds the
#     simulator's kernels to the Go loops there), so the non-amd64 build
#     cannot rot unnoticed. ~25 s cold, cached after that.
#   * doc-comment name check: a Go doc comment must lead with the name of
#     the symbol it documents; stale names (e.g. a comment saying
#     FormatFig15 above a method renamed to Format) are rejected. Only
#     leading words that look like code identifiers (camel-case with an
#     internal capital) are compared, so prose-first comments never trip.
#   * no-sleep lint: tests of the concurrency packages (cache, par,
#     faultinject, experiments, daemon) must synchronize on channels,
#     contexts, or atomics — a time.Sleep there is a latent flake and is
#     rejected. (Library code may sleep; the retry backoff does.)
#   * registry-integrity arm: every registered architecture family must
#     parse and build its smoke spec into a connected graph, with no
#     duplicate family names or fingerprint-identical smoke topologies
#     (TestRegistryIntegrity in internal/arch).
#   * noise-equivalence arm: the Monte-Carlo trajectory estimator must
#     agree with the closed-form count model within sampling tolerance on
#     small circuits (TestNoiseEquivalence in internal/noise) — the count
#     model is the exact expectation of the sampled channels, so drift
#     means one of the two models broke.
#   * lockstep differential arm: the lockstep trajectory runner must agree
#     with the full-run algorithm it replaced within 1e-12 on routed
#     circuits at widths 12–16, in both regimes and with a per-edge
#     override; plus hand-built edge cases, the live-fork cap and the zero-allocation
#     error-free trajectory (-run TestLockstep in internal/noise), and the
#     virtual SWAPs: on swap-dense circuits the estimator, whose program
#     relabels qubits at each SWAP, must match the full run of a program
#     that applies every SWAP as a kernel (TestVirtualSwapsMatchRealSwaps),
#     all under the race detector.
#   * lazy-perturbation fuzz arm: the router's counter-based gaussian
#     draws, made on first read and kept under per-pair generation stamps,
#     must bit-equal the eager loop that draws every pair's ordinal, for
#     any seed, size and read order (FuzzLazyPerturbMatchesEager in
#     internal/transpile, run for -fuzztime=10s on top of its committed
#     seed corpus; a crasher lands in internal/transpile/testdata/fuzz/ as
#     a permanent seed).
#   * router differential fuzz arm: on small registry machines, any
#     workload, width, seed, trial count and cost (uniform or a pressure
#     profile), StochasticSwap must return the same ops, swap count and
#     final layout as a reference search that perturbs eagerly, rescans
#     every edge each step and runs every trial to its full limit
#     (FuzzStochasticSwapMatchesReference in internal/transpile, run for
#     -fuzztime=10s on top of its committed seed corpus).
#   * counted-translation fuzz arm: TranslatePass counts the translation
#     without building it; on routed circuits from the small registry
#     machines (any workload, width and seed) and on hand-built circuits
#     (basis-count-0 gates, three-qubit ops), under all four bases and the
#     default, non-dyadic (t-siswap=0.3, t-cx=0.7) and empty timing tables,
#     its basis-gate total, critical-path basis gates and pulse duration
#     (to the bit) must equal those read from TranslateToBasis's circuit
#     (FuzzCountedTranslationMatchesBuilt in internal/transpile, run for
#     -fuzztime=10s on top of its committed seed corpus).
#   * SSE2 kernel fuzz arm: on random widths 1–14, both mask orders, the
#     whole array or a tile at a nonzero base, scale at the half-stride,
#     whole-region and quarter-lattice shapes its callers use, and finite
#     factors and amplitudes including ±0, subnormals and near-overflow
#     magnitudes, every amplitude the platform kernels (tileMat1Q,
#     tileMat2Q, scale: SSE2 on amd64)
#     write must carry the same Float64bits as the Go loops'
#     (FuzzSSE2KernelsMatchGo in internal/sim, run for -fuzztime=10s on top
#     of its committed seed corpus in internal/sim/testdata/fuzz/).
#   * simulator differential fuzz arm: random circuits over the full gate
#     vocabulary, swap-dense, at widths 2–16 biased to 12–16 so the layer
#     pass's tiles are crossed, run from one random state through RunCtx
#     (fused, layered, SWAPs relabeled), RunUnfused and a real-SWAP program
#     (ScheduleRealSwaps) must each match a naive dense-unitary reference
#     that shares no kernel with the simulator, within 1e-12; the relabeled
#     and real-SWAP programs must have the same steps and error sites, and
#     the stepped state must match the reference on the labeling
#     Program.Bits reports (FuzzScheduleMatchesReference in internal/sim,
#     run for -fuzztime=10s on top of its committed seed corpus).
#   * wire-request fuzz arm: any /evaluate or /sweep body must fail the
#     handler's decode or validation with an error (its 400 path, never a
#     panic) or convert to options that survive conversion → inverse →
#     conversion unchanged, with the same identity form
#     (core.Options.Identity) and the same sweep journal key
#     (FuzzWireRequest in internal/daemon, run for -fuzztime=10s on top of
#     its committed seed corpus in internal/daemon/testdata/fuzz/).
#   * stale-cache probe arm: twenty EvaluateContext calls (both routers,
#     profile-guided on and off, every noise route and fidelity model,
#     three registry families, two workloads), hashed over each routed
#     fingerprint, the integer metrics and the float metrics at the
#     goldens' printed precision, must give the hash pinned for the current
#     evaluateKeyDomain and noise.MonteCarloVersion; a moved hash under an
#     unchanged domain fails with "bump evaluateKeyDomain", so a persistent
#     cache never serves an older build's numbers as fresh (TestEvaluateProbe
#     in internal/core, well under 2 s).
#   * paper-claims arm: the seed-ensemble gate. Quick Figs. 11–14 and the
#     §1/§6 headline study rerun at base seeds 1..8; each headline ratio's
#     mean must stay within 3 Welch standard errors of the committed
#     baseline (internal/experiments/testdata/claims_ensemble.json), and
#     each figure's machine pairs whose baseline means are more than 3 SE
#     apart must keep their order (TestClaimsEnsemble, plus the gate's own
#     arithmetic in TestClaimsGateJudges). A router change that moves the
#     random stream but keeps its distribution passes; one that shifts the
#     distribution fails. Takes ~3 s on 2 vCPUs; the arm prints its
#     wall-clock.
#   * layered statevector arm: the layered and fused schedules must match
#     the op-by-op reference within 1e-12, the layer grouping and backward
#     absorption keep their pinned shapes, and the kernels and layer steps
#     allocate nothing (TestLayered|TestFused|TestBuildLayers|
#     TestKernelAllocs|TestLayerKernelAllocs|TestScheduleBackwardAbsorption
#     in internal/sim). The simulator is serial, so this is a plain run.
#   * chaos arm: the fault-injection suite — panic isolation, injected
#     disk faults and corruption self-heal, cell timeouts, crash-resume
#     byte-identity — run under the race detector (-run 'Fault|Chaos|Resume').
#   * daemon smoke arm: build qcbenchd + qcbench, boot the daemon on an
#     ephemeral port with a sweep journal directory, prove 32 concurrent
#     identical /evaluate requests cost exactly one evaluation (cold) and
#     zero (warm) via the /metrics dedup counters, prove a -server sweep's
#     stdout is byte-identical to a local run for a SWAP-count sweep (fig
#     11), noiseless and under a Monte-Carlo noise model with
#     error-weighted routing, and for a co-design sweep (fig 13 on a
#     basis=syc machine), then rerun the noiseless sweep against the same
#     daemon: it must be served from the journal (no result-cache lookup
#     on the /metrics counters) and still match the local run. Then
#     SIGTERM the daemon and require a clean drain (exit 0).
#   * one-level-of-parallelism arm: the cell is the only unit that runs in
#     parallel, so no package in ./... but internal/experiments (sweeps and
#     the multi-cell drivers) and internal/daemon (its evaluation slots)
#     may import internal/par. Routing, simulation and noise estimation
#     stay serial inside a cell.
#   * one-entry-point arm: no package exports both X and XContext (or XCtx)
#     as functions, or as methods on the same receiver — each operation
#     has one spelling, the ctx-taking one. The only allowed pair is
#     sim.State.RunProgram, a shim for callers outside this module.
#   * qcperf arm: the benchmark driver under qcperf/ is its own module
#     that imports the internal packages directly; go vet and go test run
#     inside it with run.sh's offline environment, so deleting or renaming
#     an API it uses fails here rather than at benchmark time.
#   * reachability arm: every binary (cmd/*, examples/*, qcperf) is built
#     with -gcflags=all=-l, so that inlining hides no caller, into a temp
#     dir; go tool nm lists their text symbols and scripts/reach matches
#     them against every function with a body in the non-test files under
#     internal/. A function no binary links must be on
#     scripts/reach/allowlist.txt with the reason it stays (a test oracle,
#     a test fixture, the paper's hardware); so must a package-level const,
#     var or type under internal/ that no Go file in the repository, tests
#     included, references (bare in its package or as pkg.Name). An
#     allowlist entry that is linked, referenced or names nothing fails too.
#     Unused code is deleted, or listed with its reason, never left to
#     accumulate.
#   * pprof guard arm: no main package but cmd/qcbenchd (qcperf listed from
#     its own module) may depend on runtime/pprof or net/http/pprof.
#     Linking the profiler turns on the memory profiler's buckets: 1.49 MB
#     held on qcperf's daemon-warm workload, ~16% of its mem_held_mb.
#   * race-detector runs of the packages with real concurrency surface
#     (the content-addressed cache, the parallel sweep engine and the
#     multi-cell drivers — serial == parallel is pinned per driver in
#     internal/experiments — the transpile pass pipeline, the topology
#     package, whose graphs cache distances and dense subsets for the
#     concurrent cells that share them, the sim package, whose compiled
#     Programs are shared read-only across concurrent cells, and the noise
#     package, whose estimators run inside concurrent cells),
#     pinned to GOMAXPROCS=4 so races reproduce even on single-core runners.
#
# Run directly, or via scripts/bench.sh which uses it as its preflight.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "check: gofmt"
UNFORMATTED="$(find . -name '*.go' -not -path './.git/*' -print0 | xargs -0 gofmt -l)"
if [[ -n "$UNFORMATTED" ]]; then
    echo "$UNFORMATTED"
    echo "check: FAILED — run gofmt -w on the files above"
    exit 1
fi

echo "check: go vet ./..."
go vet ./...

echo "check: GOARCH=arm64 go vet ./... (the portable kernels off amd64)"
GOARCH=arm64 go vet ./...

echo "check: doc-comment names match declarations"
DOCCHECK="$(find . -name '*.go' -not -path './.git/*' | sort | xargs awk '
FNR == 1 { incomment = 0 }  # never leak comment state across files
/^\/\/ [A-Za-z_][A-Za-z0-9_]*/ {
    if (!incomment) {
        split($0, parts, " ")
        first = parts[2]; sub(/[:,.]$/, "", first)
        incomment = 1
        startline = FNR
    }
    next
}
/^\/\// { next }
/^func |^type |^const |^var / {
    if (incomment) {
        name = ""
        if ($1 == "func" && $2 ~ /^\(/) {
            # The receiver may be one token ("(OSFS)") or several
            # ("(s *Store[V])"); the method name follows its closing paren.
            nm = ""
            for (i = 2; i <= NF; i++) { if ($(i) ~ /\)$/) { nm = $(i+1); break } }
            sub(/\(.*/, "", nm); name = nm
        } else if ($1 == "func" || $1 == "type") {
            nm = $2; sub(/[\(\[].*/, "", nm); name = nm
        } else {
            nm = $2; sub(/[,=].*/, "", nm); name = nm
        }
        # Grouped declarations (const ( / var ( / type () have no single
        # name on the declaration line; skip rather than compare against "(".
        if (name ~ /^\(/) name = ""
        if (name != "" && first != name && first ~ /^[A-Za-z][a-z0-9]*[A-Z]/)
            printf "%s:%d: doc comment leads with \"%s\" but declares \"%s\"\n", FILENAME, startline, first, name
    }
    incomment = 0
    next
}
{ incomment = 0 }
')"
if [[ -n "$DOCCHECK" ]]; then
    echo "$DOCCHECK"
    echo "check: FAILED — stale doc-comment names"
    exit 1
fi

echo "check: no time.Sleep in concurrency-package tests"
SLEEPS="$(grep -n 'time\.Sleep' \
    internal/cache/*_test.go internal/par/*_test.go \
    internal/faultinject/*_test.go internal/experiments/*_test.go \
    internal/daemon/*_test.go \
    2>/dev/null || true)"
if [[ -n "$SLEEPS" ]]; then
    echo "$SLEEPS"
    echo "check: FAILED — sleep-based test synchronization is a latent flake; use channels, contexts, or atomics"
    exit 1
fi

echo "check: only internal/experiments and internal/daemon import internal/par"
PARUSERS="$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
    awk '{ for (i = 2; i <= NF; i++) if ($i == "repro/internal/par") print $1 }' |
    grep -v -x -e 'repro/internal/experiments' -e 'repro/internal/daemon' || true)"
if [[ -n "$PARUSERS" ]]; then
    echo "$PARUSERS"
    echo "check: FAILED — parallelism lives at the cell level only; run these packages' work serially inside a cell"
    exit 1
fi

echo "check: one exported entry point per operation (no X / XContext / XCtx twins)"
TWINS="$(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' -not -path './qcperf/*' |
    sort | xargs awk '
/^func / {
    rest = substr($0, 6); recv = ""
    if (rest ~ /^\(/) {
        # Method: key by receiver type ("(s *Store[V])" -> Store).
        close_at = index(rest, ")")
        n = split(substr(rest, 2, close_at - 2), parts, " ")
        recv = parts[n]; gsub(/\*/, "", recv); sub(/\[.*/, "", recv)
        rest = substr(rest, close_at + 2)
    }
    name = rest; sub(/[\[\(].*/, "", name)
    if (name !~ /^[A-Z]/) next
    dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
    owner[dir "|" recv "|" name] = (recv == "" ? dir : dir " " recv)
}
END {
    for (k in owner) {
        split(k, f, "|")
        base = f[3]
        if (!sub(/(Context|Ctx)$/, "", base)) continue
        if (!((f[1] "|" f[2] "|" base) in owner)) continue
        if (f[1] == "./internal/sim" && f[2] == "State" && base == "RunProgram") continue
        printf "%s: %s and %s\n", owner[k], base, f[3]
    }
}' | sort)"
if [[ -n "$TWINS" ]]; then
    echo "$TWINS"
    echo "check: FAILED — keep only the ctx-taking entry point; callers pass context.Background()"
    exit 1
fi

echo "check: qcperf builds and passes its tests against this tree"
(cd qcperf &&
    export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off &&
    go vet ./... && go test -count=1 ./...)

echo "check: every function under internal/ is linked by a binary, every package-level name referenced, or allowlisted (scripts/reach)"
REACHDIR="$(mktemp -d)"
trap 'rm -rf "$REACHDIR"' EXIT
for p in ./cmd/* ./examples/*; do
    go build -gcflags=all=-l -o "$REACHDIR/$(basename "$(dirname "$p")")-$(basename "$p")" "$p"
done
(cd qcperf &&
    export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off &&
    go build -gcflags=all=-l -o "$REACHDIR/qcperf" .)
for b in "$REACHDIR"/*; do go tool nm "$b"; done | go run ./scripts/reach
rm -rf "$REACHDIR"
trap - EXIT

echo "check: only cmd/qcbenchd may link runtime/pprof or net/http/pprof"
PPROFUSERS="$( {
    go list -f '{{if eq .Name "main"}}{{.ImportPath}} {{join .Deps " "}}{{end}}' ./...
    (cd qcperf &&
        export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off &&
        go list -f '{{.ImportPath}} {{join .Deps " "}}' .)
} | awk '$1 != "repro/cmd/qcbenchd" {
    for (i = 2; i <= NF; i++) if ($i == "runtime/pprof" || $i == "net/http/pprof") print $1 " depends on " $i
}')"
if [[ -n "$PPROFUSERS" ]]; then
    echo "$PPROFUSERS"
    echo "check: FAILED — the profiler belongs in cmd/qcbenchd only; linked elsewhere it holds memory-profile buckets (qcperf mem_held_mb)"
    exit 1
fi

echo "check: architecture registry integrity (smoke builds, unique names + fingerprints)"
go test -count=1 -run 'TestRegistryIntegrity' ./internal/arch

echo "check: noise-model equivalence (Monte-Carlo vs closed-form count model)"
go test -count=1 -run 'TestNoiseEquivalence' ./internal/noise

echo "check: lockstep trajectories and virtual SWAPs vs the full-run reference under the race detector"
GOMAXPROCS=4 go test -race -count=1 -run 'TestLockstep|TestVirtualSwapsMatchRealSwaps' ./internal/noise

echo "check: chaos suite under the race detector (-run 'Fault|Chaos|Resume')"
GOMAXPROCS=4 go test -race -count=1 -run 'Fault|Chaos|Resume' ./internal/...

echo "check: fuzzing the router's on-demand draws against the eager perturbation (10s)"
go test -run '^$' -fuzz '^FuzzLazyPerturbMatchesEager$' -fuzztime=10s ./internal/transpile

echo "check: fuzzing the router's search against the full-rescan reference (10s)"
go test -run '^$' -fuzz '^FuzzStochasticSwapMatchesReference$' -fuzztime=10s ./internal/transpile

echo "check: fuzzing the counted translation against the built one (10s)"
go test -run '^$' -fuzz '^FuzzCountedTranslationMatchesBuilt$' -fuzztime=10s ./internal/transpile

echo "check: fuzzing the SSE2 kernels against the Go loops, bit for bit (10s)"
go test -run '^$' -fuzz '^FuzzSSE2KernelsMatchGo$' -fuzztime=10s ./internal/sim

echo "check: fuzzing the scheduled simulator against a naive dense-unitary reference (10s)"
go test -run '^$' -fuzz '^FuzzScheduleMatchesReference$' -fuzztime=10s ./internal/sim

echo "check: fuzzing the daemon's wire conversion against its inverse (10s)"
go test -run '^$' -fuzz '^FuzzWireRequest$' -fuzztime=10s ./internal/daemon

echo "check: stale-cache probe (TestEvaluateProbe: a moved evaluation needs a new key domain)"
go test -count=1 -run '^TestEvaluateProbe$' ./internal/core

echo "check: paper claims over the 8-seed quick ensemble (TestClaimsEnsemble)"
CLAIMS_START=$SECONDS
go test -count=1 -run '^(TestClaimsEnsemble|TestClaimsGateJudges)$' ./internal/experiments
echo "  claims gate took $((SECONDS - CLAIMS_START)) s"

echo "check: layered statevector kernels vs the op-by-op reference, and the allocation guard"
go test -count=1 \
    -run 'TestLayered|TestFused|TestBuildLayers|TestKernelAllocs|TestLayerKernelAllocs|TestScheduleBackwardAbsorption' \
    ./internal/sim

echo "check: race-testing cache + sweep engine + transpile pipeline + graph caches + sim kernels + noise estimators (GOMAXPROCS=4)"
GOMAXPROCS=4 go test -race -count=1 \
    ./internal/cache/... ./internal/experiments/... ./internal/faultinject/... \
    ./internal/par/... ./internal/transpile/... ./internal/topology/... ./internal/sim/... \
    ./internal/noise/... ./internal/daemon/...

echo "check: qcbenchd smoke (ephemeral port, 32-way dedup probe, byte-identical remote and journal-replayed sweeps, SIGTERM drain)"
SMOKEDIR="$(mktemp -d)"
DPID=""
cleanup_smoke() {
    [[ -n "$DPID" ]] && kill "$DPID" 2>/dev/null || true
    rm -rf "$SMOKEDIR"
}
trap cleanup_smoke EXIT
go build -o "$SMOKEDIR/qcbenchd" ./cmd/qcbenchd
go build -o "$SMOKEDIR/qcbench" ./cmd/qcbench
mkdir "$SMOKEDIR/journals"
"$SMOKEDIR/qcbenchd" -addr 127.0.0.1:0 -cachedir "$SMOKEDIR/cache" -journaldir "$SMOKEDIR/journals" \
    >"$SMOKEDIR/daemon.out" 2>"$SMOKEDIR/daemon.err" &
DPID=$!
BASE=""
for _ in $(seq 1 100); do
    BASE="$(sed -n 's/^qcbenchd listening on \(.*\)$/\1/p' "$SMOKEDIR/daemon.out")"
    [[ -n "$BASE" ]] && break
    kill -0 "$DPID" 2>/dev/null || break
    sleep 0.1
done
if [[ -z "$BASE" ]]; then
    echo "check: FAILED — qcbenchd did not report its listen address"
    cat "$SMOKEDIR/daemon.err"
    exit 1
fi
COLD="$("$SMOKEDIR/qcbenchd" -probe 32 -target "$BASE")"
echo "  $COLD"
if [[ "$COLD" != *"fills=1"* ]]; then
    echo "check: FAILED — cold probe should cost exactly one evaluation: $COLD"
    exit 1
fi
WARM="$("$SMOKEDIR/qcbenchd" -probe 32 -target "$BASE")"
echo "  $WARM"
if [[ "$WARM" != *"fills=0"* ]]; then
    echo "check: FAILED — warm probe should cost zero evaluations: $WARM"
    exit 1
fi
SWEEP_ARGS=(-fig 11 -machines "grid:rows=4,cols=4,name=Square-Lattice" -trials 1)
NOISE_ARGS=(-noise e2q=0.002,tdec=0.001 -noise-model montecarlo -noise-shots 8 -noise-route pure)
CODESIGN_ARGS=(-fig 13 -machines "grid:rows=4,cols=4,basis=syc,name=Square-SYC" -trials 1)
# store_lookups sums the daemon's result-cache lookups; a sweep served from
# its journal makes none.
store_lookups() {
    curl -fsS "$BASE/metrics" |
        awk '/^qcbenchd_cache_(mem_hits|disk_hits|misses)_total /{ n += $2 } END { print n + 0 }'
}
"$SMOKEDIR/qcbench" "${SWEEP_ARGS[@]}" >"$SMOKEDIR/local.txt"
"$SMOKEDIR/qcbench" -server "$BASE" "${SWEEP_ARGS[@]}" >"$SMOKEDIR/remote.txt"
"$SMOKEDIR/qcbench" "${SWEEP_ARGS[@]}" "${NOISE_ARGS[@]}" >"$SMOKEDIR/local-noisy.txt"
"$SMOKEDIR/qcbench" -server "$BASE" "${SWEEP_ARGS[@]}" "${NOISE_ARGS[@]}" >"$SMOKEDIR/remote-noisy.txt"
"$SMOKEDIR/qcbench" "${CODESIGN_ARGS[@]}" >"$SMOKEDIR/local-codesign.txt"
"$SMOKEDIR/qcbench" -server "$BASE" "${CODESIGN_ARGS[@]}" >"$SMOKEDIR/remote-codesign.txt"
LOOKUPS="$(store_lookups)"
cp "$SMOKEDIR/local.txt" "$SMOKEDIR/local-journaled.txt"
"$SMOKEDIR/qcbench" -server "$BASE" "${SWEEP_ARGS[@]}" >"$SMOKEDIR/remote-journaled.txt"
if [[ "$(store_lookups)" != "$LOOKUPS" ]]; then
    echo "check: FAILED — the repeated -server sweep looked up the result cache instead of replaying its journal"
    exit 1
fi
for run in "" -noisy -codesign -journaled; do
    if ! cmp -s "$SMOKEDIR/local$run.txt" "$SMOKEDIR/remote$run.txt"; then
        echo "check: FAILED — -server sweep output diverged from the local run (local$run.txt)"
        diff "$SMOKEDIR/local$run.txt" "$SMOKEDIR/remote$run.txt" || true
        exit 1
    fi
done
kill -TERM "$DPID"
if ! wait "$DPID"; then
    echo "check: FAILED — qcbenchd did not drain cleanly on SIGTERM"
    cat "$SMOKEDIR/daemon.err"
    exit 1
fi
DPID=""

echo "check: ok"
