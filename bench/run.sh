#!/usr/bin/env bash
# The repeatability check as one command: build the benchmark once, run
# it twice, and compare the two result documents with the benchmark's
# own bounds. Arguments go to both runs, e.g.
#
#   bench/run.sh                     every workload, seed 0 (golden-checked)
#   bench/run.sh -seed 1             the held-back seed
#   bench/run.sh -workload busy_tpcb
#
# The binary, the Go build cache and the two documents (run-a.json,
# run-b.json) stay in .bench_build/ at the root of the checkout. Exits
# non-zero when an execution fails its check or the second run is worse
# than the first by more than a bound.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
# driver.sh builds (a no-op after the first time) and passes its
# arguments to the binary, whatever the mode.
bash "$here/driver.sh" "$@" -out "$build/run-a.json"
bash "$here/driver.sh" "$@" -out "$build/run-b.json"
bash "$here/driver.sh" -compare "$build/run-a.json" "$build/run-b.json"
