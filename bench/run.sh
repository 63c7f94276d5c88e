#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing its arguments
# through; see bench/README.md. Everything the Go tool writes (build cache,
# temporary files, its own counters, the binary) stays under .bench_build in
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/garnet-bench" .)
exec "$build/garnet-bench" "$@"
