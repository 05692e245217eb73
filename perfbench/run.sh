#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload knn-lowdim --seed 1 --seconds 10 --trace 0
#
# Every build and run output stays under .bench_build in the checkout:
# the Go build cache included, so the run writes nothing elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
