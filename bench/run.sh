#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository root:
#
#   bash bench/run.sh --workload sweep-st --seed 1 --seconds 10 --trace 0
#
# The binary and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$build/capri-bench" .)
exec "$build/capri-bench" "$@"
