#!/usr/bin/env bash
# Builds the qcperf benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash qcperf/run.sh --workload sweep84-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces,
# the daemon's disk cache tier) goes under $CARGO_TARGET_DIR, by default
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "qcperf: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off

(cd "$root/qcperf" && go build -o "$out/qcperf" .)
exec "$out/qcperf" --outdir "$out" "$@"
