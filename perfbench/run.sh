#!/usr/bin/env bash
# Builds the benchmark and the itrserve daemon from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload atpg --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, journals and span files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. HOME points
# there too, so nothing the Go toolchain keeps per user (its telemetry
# counters, say) is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/home"
out="$(cd "$out" && pwd)"
unset XDG_CONFIG_HOME XDG_CACHE_HOME
export HOME="$out/home" GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/itrserve" repro/cmd/itrserve)
exec "$out/perfbench" --out "$out" --itrserve "$out/itrserve" "$@"
