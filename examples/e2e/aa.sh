#!/usr/bin/env bash
# A/A repeatability check: the same build measured twice over.
#
#   examples/e2e/aa.sh [runs-per-set]        (default 5; the driver uses 10)
#
# Builds once, then makes two sets (A and B) of N runs of every workload,
# every run on its own seed, walking the workloads forwards in odd rounds
# and backwards in even ones so that no workload always follows the same
# neighbour. For every workload/metric pair it prints both medians, the
# quartiles of set A, the spread of each set (interquartile range over the
# median), the relative gap between the medians in the metric's worse
# direction, and the bound from BENCHMARK.json. It exits non-zero if a gap
# or a spread exceeds its bound, setup_s included. The ungated load.*
# timings follow, with medians and spreads only.
#
# Run it from the repository root on an otherwise idle machine.
set -euo pipefail

runs=${1:-5}
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/.bench_build}
out=$root/.e2e_scratch/aa-$$
mkdir -p "$out"
trap 'rm -rf "$out"; rmdir "$root/.e2e_scratch" 2>/dev/null || true' EXIT

cargo build --release --quiet --offline --manifest-path examples/e2e/Cargo.toml
bin=$CARGO_TARGET_DIR/release/tvdp-e2e
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')

seed=1000
for set in A B; do
  for ((round = 1; round <= runs; round++)); do
    order=("${workloads[@]}")
    if ((round % 2 == 0)); then
      order=()
      for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
    fi
    for w in "${order[@]}"; do
      seed=$((seed + 1))
      echo "set $set round $round/$runs: $w seed $seed" >&2
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/run.txt"
      tail -n 1 "$out/run.txt" >>"$out/$set-$w.jsonl"
      grep '^# load\.' "$out/run.txt" >>"$out/$set-$w.load"
    done
  done
done

python3 - "$out" <<'EOF'
import collections, json, os, statistics, sys

out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':18} {'metric':20} {'median A':>12} {'median B':>12} "
      f"{'q1 A':>12} {'q3 A':>12} {'spread A':>9} {'spread B':>9} {'gap':>8} {'bound':>7}")
for w in (w["name"] for w in manifest["workloads"]):
    sets = {}
    for s in "AB":
        rows = [json.loads(line) for line in open(os.path.join(out, f"{s}-{w}.jsonl"))]
        if not all(r["correct"] and r["failed"] == 0 for r in rows):
            print(f"{w}: a run of set {s} reported failed operations")
            failed = True
        sets[s] = rows
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        quart = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        qa, qb = quart(a), quart(b)
        spread_a, spread_b = (qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b
        worse = (med_b - med_a) if m["better"] == "lower" else (med_a - med_b)
        gap = worse / med_a
        bad = gap > bound or max(spread_a, spread_b) > bound
        failed |= bad
        print(f"{w:18} {name:20} {med_a:12.4f} {med_b:12.4f} {qa[0]:12.4f} {qa[2]:12.4f} "
              f"{spread_a:9.2%} {spread_b:9.2%} {gap:8.2%} {bound:7.2%}{'  <-- exceeds' if bad else ''}")

print()
print(f"{'workload':18} {'timing (not gated)':26} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9}")
for w in (w["name"] for w in manifest["workloads"]):
    timings = {}
    for s in "AB":
        timings[s] = collections.defaultdict(list)
        for line in open(os.path.join(out, f"{s}-{w}.load")):
            name, value = line[2:].split()[0].split("=")
            timings[s][name].append(float(value))
    for name in timings["A"]:
        row = f"{w:18} {name:26}"
        for s in "AB":
            row += f" {statistics.median(timings[s][name]):12.4f}"
        for s in "AB":
            v = timings[s][name]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            row += f" {(q[2] - q[0]) / statistics.median(v):9.2%}"
        print(row)
sys.exit(1 if failed else 0)
EOF
