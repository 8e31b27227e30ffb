#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash _perfbench/run.sh --workload panel|step|serve --seed N --seconds S --trace 0|1
# Run it from the repository root. Every build and cache file goes under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$PWD/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
	GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
