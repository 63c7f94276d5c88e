#!/usr/bin/env bash
# Smoke-runs the named micro-benchmarks of one package, 100 iterations
# each, with -benchmem:
#
#	bash .github/bench-smoke.sh <package> <BenchmarkName>...
#
# Every name must be a top-level benchmark of the package, as
# `go test -list` prints it, or the script fails before running anything:
# a renamed or deleted benchmark cannot turn the step into a regex that
# matches nothing and passes.
set -euo pipefail
pkg=$1
shift
for name in "$@"; do
	listed=$(go test -list "^$name\$" "$pkg")
	if ! grep -qx "$name" <<<"$listed"; then
		echo "bench-smoke: $pkg has no benchmark $name" >&2
		exit 1
	fi
done
go test -run '^$' -bench "^($(IFS='|'; echo "$*"))\$" -benchtime=100x -benchmem "$pkg"
