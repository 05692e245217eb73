#!/usr/bin/env bash
# bench_trajectory.sh — run the headline engine benchmarks and write
# BENCH_<pr>.json so the perf trajectory accumulates machine-readable
# data points (ns/op, B/op, allocs/op, pdc/op for the serial, batch,
# churned and filtered QueryK50 paths, plus scr/op screen-reject counts
# for the quantized variants and the d=768 high-dim workload, plus
# p50-ns/p99-ns read-tail-latency-under-mutator for the RWMutex
# baseline vs the snapshot-isolated sharded engine, plus the
# end-to-end HTTP serving latency of BenchmarkServerSearch and its
# WAL-backed variants: search overhead with durability attached and
# the insert path under fsync-always vs group commit, plus the
# multi-metric paths: QueryK50 under the cosine and inner-product
# reductions, a top-10 Jaccard set query against the MinHash backend,
# and the whole-corpus SearchPairs duplicate sweep, plus the per-layer
# projected PM-tree walk of internal/pmtree, ns/op and dist/op of one
# Reset + Expand over four 5k-point m=15 shard trees, plus the
# per-layer request decode of internal/server, ns/op and MB/s of the
# server's decoder and of plain encoding/json on d=64 and d=4096
# search bodies and a d=4096 insert body).
#
# Usage: scripts/bench_trajectory.sh [output.json]
#   PR        tag for the stacked-PR sequence number   (default: 13)
#   BENCHTIME go test -benchtime value                 (default: 1s)
set -euo pipefail
cd "$(dirname "$0")/.."

pr="${PR:-13}"
out="${1:-BENCH_${pr}.json}"
benchtime="${BENCHTIME:-1s}"

raw="$(go test -run '^$' \
  -bench '^(BenchmarkQueryK50|BenchmarkKNNSerial|BenchmarkKNNBatch|BenchmarkQueryK50Churned|BenchmarkQueryK50Filtered|BenchmarkQueryK50QuantF32|BenchmarkQueryK50QuantI8|BenchmarkQueryK50HighDim|BenchmarkQueryK50HighDimQuantF32|BenchmarkQueryK50HighDimQuantI8|BenchmarkMixedReadP99|BenchmarkServerSearch|BenchmarkServerSearchDurable|BenchmarkServerInsertDurable|BenchmarkQueryK50Cosine|BenchmarkQueryK50MIP|BenchmarkJaccardSearch|BenchmarkTextDedupPairs|BenchmarkRangeEnumeratorExpand|BenchmarkDecodeRequest)$' \
  -benchtime "$benchtime" . ./internal/pmtree ./internal/server)"
echo "$raw"
echo "$raw" | go run ./cmd/benchjson -pr "$pr" > "$out"
echo "wrote $out"
