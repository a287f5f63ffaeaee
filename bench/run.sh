#!/usr/bin/env bash
# Builds the benchmark from the checkout in the current directory and
# runs it, passing every argument through (see bench/README.md):
#
#   bash bench/run.sh --workload seq_scan --seed 7 --seconds 10 --trace 0
#
# Run it from the root of a checkout. The binary, the Go build cache
# and the toolchain's temporary files all stay under .bench_build/
# there, so nothing outside the checkout is written. Outside a full
# checkout (no ../go.mod for the replace directive) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd bench && go build -o "$out/multics-bench" .) >&2
exec "$out/multics-bench" "$@"
