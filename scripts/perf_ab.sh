#!/usr/bin/env bash
# perf_ab.sh — same-host A/B of the serving benchmark (perfbench/)
# between a parent commit and the current checkout.
#
# Usage: scripts/perf_ab.sh PARENT WORKLOAD SEED...
#   PARENT       commit to compare against (anything git archive takes)
#   WORKLOAD     a workload of BENCHMARK.json (knn-lowdim, knn-highdim)
#   SEED...      one benchmark run per side per seed
# Environment:
#   AB_DIR       work directory for the parent tree and the result
#                files (default: a fresh mktemp -d)
#   TRACE        0 (end-to-end metrics, default) or 1 (per-layer)
#
# Every run lasts BENCHMARK.json's run_seconds.
#
# The parent is exported with git archive, and the current perfbench/
# and BENCHMARK.json are copied over it, so both sides run identical
# benchmark code against their own engine. Seeds run in order; which
# side runs first alternates from seed to seed. Each run's result line
# is appended to $AB_DIR/<side>.jsonl, and the end prints, per metric,
# each side's median and quartiles and how many pairs the change won.
# The script only calls perfbench/run.sh; it changes nothing under
# perfbench/.
set -euo pipefail
if [ $# -lt 3 ]; then
  sed -n '2,14p' "$0" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
parent_rev=$1 workload=$2
shift 2

dir="${AB_DIR:-$(mktemp -d)}"
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
trace="${TRACE:-0}"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

parent="$dir/parent"
rm -rf "$parent" "$dir/parent.jsonl" "$dir/change.jsonl"
mkdir -p "$parent"
git archive "$parent_rev" | tar -x -C "$parent"
rm -rf "$parent/perfbench"
cp -r perfbench BENCHMARK.json "$parent/"
rm -rf "$parent/perfbench/.bench_build"

echo "# parent $(git rev-parse --short "$parent_rev") in $parent; change: $root ($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ', dirty'))"
echo "# workload $workload, seeds $*, --seconds $seconds --trace $trace"

run() { # side seed
  local side=$1 seed=$2 src=$root out line
  [ "$side" = parent ] && src=$parent
  out=$(cd "$src" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") || {
    echo "$side seed $seed failed:" >&2
    echo "$out" | tail -5 >&2
    exit 1
  }
  line=$(echo "$out" | tail -1)
  python3 - "$workload" "$seed" "$line" >>"$dir/$side.jsonl" <<'EOF'
import json, sys
print(json.dumps({"workload": sys.argv[1], "seed": int(sys.argv[2]), **json.loads(sys.argv[3])}))
EOF
  echo "# $side seed $seed: $(echo "$line" | cut -c1-60)"
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do run "$side" "$seed"; done
  i=$((i + 1))
done

python3 - "$dir" "$workload" <<'EOF'
import json, statistics, sys
d, workload = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

def load(side):
    runs = {}
    for line in open(f"{d}/{side}.jsonl"):
        r = json.loads(line)
        if r["workload"] == workload:
            runs[r["seed"]] = {k: v["value"] for k, v in r["metrics"].items()}
    return runs

par, chg = load("parent"), load("change")
seeds = sorted(set(par) & set(chg))

def quart(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return q[0], statistics.median(v), q[2]

print(f"{'metric':26s} {'parent median [Q1, Q3]':>34s} {'change median [Q1, Q3]':>34s} {'delta':>8s}  wins/ties of {len(seeds)}")
for name in sorted(set().union(*(par[s] for s in seeds))):
    if not all(name in par[s] and name in chg[s] for s in seeds):
        continue
    p = [par[s][name] for s in seeds]
    c = [chg[s][name] for s in seeds]
    lower = meta.get(name, {}).get("better", "lower") == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quart(p), quart(c)
    delta = f"{(cm - pm) / pm * 100:+7.1f}%" if pm else "     n/a"
    print(f"{name:26s} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] {cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {delta}  {wins}/{ties}")
EOF
echo "# results: $dir/parent.jsonl $dir/change.jsonl"
