#!/usr/bin/env bash
# Entry point for the benchmark driver (see ../BENCHMARK.json):
#
#   bash bench/driver.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the benchmark from the checkout it stands in, into
# .bench_build/ at the root of that checkout, and runs it with the
# arguments given (any mode of the program, see main.go). In the
# driver's mode the last line of standard output is the result object.
# Fails, printing no result, when the checkout has no simulator to
# build against.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# Everything the go command writes (build cache, telemetry counters)
# stays inside the checkout.
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/tssim-bench" .)
exec "$build/tssim-bench" "$@"
