#!/usr/bin/env bash
# bench.sh — run the repository micro/figure benchmarks and write a
# machine-readable JSON snapshot so successive PRs can track the perf
# trajectory.
#
# Usage:
#   scripts/bench.sh                  # all benchmarks -> BENCH.json
#   BENCH_OUT=BENCH_PR1.json scripts/bench.sh
#   BENCH_FILTER='Statevector|KAK' BENCH_TIME=500ms scripts/bench.sh
#   BENCH_SKIP_CHECK=1 scripts/bench.sh   # skip the vet/race preflight
#
# Output schema:
#   { "goos": ..., "goarch": ..., "cpu": ..., "gomaxprocs": N, "cpus": N,
#     "registry_families": N,
#     "benchmarks": [ { "name": ..., "iterations": N, "ns_per_op": ...,
#                       "b_per_op": ..., "allocs_per_op": ...,
#                       "metrics": { unit: value, ... } }, ... ],
#     "scaling": [ { "gomaxprocs": N, "wall_ns": ... }, ... ] }
#
# "metrics" holds every other `value unit` pair the benchmark line prints —
# the b.ReportMetric outputs (cache hits, swaps, pass shares, fidelity,
# daemon latency, layer shape, ...) keyed by their unit exactly as
# `go test -bench` prints it; it is {} for benchmarks that report none.
#
# The scaling section records wall-clock of one quick `qcbench -fig 12`
# sweep at GOMAXPROCS 1/2/4 (the ROADMAP multi-core scaling demo); on a
# single-core runner the curve is flat — "cpus" says how to read it. Set
# BENCH_SKIP_SCALING=1 to skip it.
#
# "registry_families" records the size of the registry-built architecture
# grid (one line per family in `topostat -families`), so snapshots show
# when the declarative design space grows.
#
# The deltas section makes the perf trajectory machine-readable per PR: for
# every benchmark also present in the prior snapshot — the BENCH_PR<N>.json
# with the highest N (version sort, not mtime, which a fresh checkout
# makes equal), excluding the file being written — it records
#   { "name", "ns_ratio": prior_ns/new_ns, "allocs_ratio": prior/new }
# so ratios > 1 are improvements. Rows match by name with go test's
# -<GOMAXPROCS> suffix stripped, so snapshots from hosts with different
# core counts compare. "deltas_vs" names the baseline file (null, with an
# empty list, when this is the first snapshot).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH.json}"
FILTER="${BENCH_FILTER:-.}"
TIME="${BENCH_TIME:-1s}"
RAW="$(mktemp)"
SCALING="$(mktemp)"
QCBENCH="$(mktemp)"
trap 'rm -f "$RAW" "$SCALING" "$QCBENCH"' EXIT
CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
export GOMAXPROCS_REPORT="${GOMAXPROCS:-$CPUS}"
export CPUS_REPORT="$CPUS"

if [[ "${BENCH_SKIP_CHECK:-0}" != "1" ]]; then
    scripts/check.sh
fi

echo "bench: sizing the registry-built architecture grid (topostat -families)"
FAMILIES="$(go run ./cmd/topostat -families | wc -l | tr -d '[:space:]')"
export FAMILIES_REPORT="$FAMILIES"
echo "  registry_families=$FAMILIES"

if [[ "${BENCH_SKIP_SCALING:-0}" != "1" ]]; then
    echo "bench: sweep scaling curve (quick -fig 12 at GOMAXPROCS 1/2/4; $CPUS core(s) available)"
    go build -o "$QCBENCH" ./cmd/qcbench
    for p in 1 2 4; do
        start="$(date +%s%N)"
        GOMAXPROCS=$p "$QCBENCH" -fig 12 >/dev/null
        end="$(date +%s%N)"
        echo "$p $((end - start))" >> "$SCALING"
        echo "  gomaxprocs=$p wall=$(( (end - start) / 1000000 ))ms"
    done
fi

go test -bench="$FILTER" -benchmem -benchtime="$TIME" -count=1 -run='^$' . | tee "$RAW"

# Prior snapshot with the highest PR number (for the deltas section);
# empty when none exists.
PRIOR="$(ls BENCH_PR*.json 2>/dev/null | grep -Fxv "$OUT" | sort -V | tail -1 || true)"

awk -v out="$OUT" -v scalingfile="$SCALING" -v prior="$PRIOR" '
function basename(name) {
    # Drop the -GOMAXPROCS suffix go test appends: BenchmarkFig12-2 -> BenchmarkFig12.
    sub(/-[0-9]+$/, "", name)
    return name
}
function jsonnum(line, key,   s) {
    # Extract a numeric field from a machine-written benchmark line;
    # returns "" when absent or null.
    if (match(line, "\"" key "\": [0-9.eE+-]+") == 0) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", s)
    return s
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    # Benchmark lines: Name[-P] iters, then `value unit` pairs.
    name = $1; iters = $2
    ns = "null"; b = "null"; allocs = "null"; metrics = ""
    for (i = 3; i < NF; i += 2) {
        v = $(i); u = $(i + 1)
        if (u == "ns/op")          ns = v
        else if (u == "B/op")      b = v
        else if (u == "allocs/op") allocs = v
        else metrics = metrics (metrics == "" ? "" : ", ") sprintf("\"%s\": %s", u, v)
    }
    n++
    lines[n] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s, \"metrics\": {%s}}",
                       name, iters, ns, b, allocs, metrics)
    names[n] = basename(name); nsval[n] = ns; allocval[n] = allocs
}
END {
    printf "{\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"cpus\": %s,\n  \"registry_families\": %s,\n  \"benchmarks\": [\n", \
           goos, goarch, cpu, ENVIRON["GOMAXPROCS_REPORT"], ENVIRON["CPUS_REPORT"], ENVIRON["FAMILIES_REPORT"] > out
    for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "") >> out
    print "  ]," >> out
    print "  \"scaling\": [" >> out
    m = 0
    while ((getline line < scalingfile) > 0) {
        split(line, f, " ")
        m++
        srows[m] = sprintf("    {\"gomaxprocs\": %s, \"wall_ns\": %s}", f[1], f[2])
    }
    for (i = 1; i <= m; i++) printf "%s%s\n", srows[i], (i < m ? "," : "") >> out
    print "  ]," >> out
    # Deltas against the newest prior snapshot: ratios prior/new, so > 1
    # is an improvement; benchmarks missing from either side are skipped.
    if (prior != "") {
        while ((getline line < prior) > 0) {
            if (match(line, /"name": "[^"]+"/) == 0) continue
            pname = basename(substr(line, RSTART + 9, RLENGTH - 10))
            # Only benchmark rows carry ns_per_op; the prior file own
            # deltas rows must not clobber them.
            pv = jsonnum(line, "ns_per_op")
            if (pv == "") continue
            pns[pname] = pv
            pallocs[pname] = jsonnum(line, "allocs_per_op")
        }
        printf "  \"deltas_vs\": \"%s\",\n", prior >> out
    } else {
        print "  \"deltas_vs\": null," >> out
    }
    print "  \"deltas\": [" >> out
    dn = 0
    for (i = 1; i <= n; i++) {
        if (!(names[i] in pns) || pns[names[i]] == "" || nsval[i] + 0 == 0) continue
        nsr = pns[names[i]] / nsval[i]
        ar = "null"
        if (allocval[i] != "null" && pallocs[names[i]] != "" && allocval[i] + 0 > 0)
            ar = sprintf("%.4g", pallocs[names[i]] / allocval[i])
        dn++
        drows[dn] = sprintf("    {\"name\": \"%s\", \"ns_ratio\": %.4g, \"allocs_ratio\": %s}", names[i], nsr, ar)
    }
    for (i = 1; i <= dn; i++) printf "%s%s\n", drows[i], (i < dn ? "," : "") >> out
    print "  ]\n}" >> out
}
' "$RAW"

echo "wrote $OUT"
