#!/usr/bin/env bash
# Before/after in alternating pairs over two revisions.
#
#   crates/bench/probe_pairs.sh <rev-a> <rev-b> probe replay [probe args]
#   crates/bench/probe_pairs.sh <rev-a> <rev-b> probe rows [probe args]
#   crates/bench/probe_pairs.sh <rev-a> <rev-b> e2e --workload <w> --seed <s>
#
# Checks each revision out as a detached worktree in a scratch directory
# (removed again on exit) and builds the command there: the `probe` bin
# (this checkout's crates/bench/src/bin/probe.rs, copied into a revision
# that has none, so it times that revision's library) or the e2e
# benchmark package with BENCHMARK.json's flags. A report a run writes
# names its revision; one given the copied probe names it `-dirty`. It then runs ten pairs, a before b in odd
# pairs and b before a in even ones, one run at a time. It prints one
# tab-separated row per run and metric, then per metric both medians,
# the quartiles of rev-a's runs and in how many pairs b read lower. The e2e runs' `search_result_fnv` must agree across every run;
# the script exits 1 if it does not.
#
# Run it from inside the repository on an otherwise idle machine.
set -euo pipefail

pairs=10
if (($# < 3)); then
  sed -n '2,6p' "$0" >&2
  exit 2
fi
rev_a=$1 rev_b=$2 mode=$3
shift 3
case $mode in probe | e2e) ;; *) echo "mode is probe or e2e, not $mode" >&2; exit 2 ;; esac

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/probe-pairs.XXXXXX")
cleanup() {
  for side in a b; do
    [[ -d $work/$side ]] && git -C "$repo" worktree remove --force "$work/$side"
  done
  rm -rf "$work"
}
trap cleanup EXIT

for side in a b; do
  rev=rev_$side
  git -C "$repo" worktree add --quiet --detach "$work/$side" "${!rev}"
  echo "building ${!rev} ($side)" >&2
  if [[ $mode == probe ]]; then
    bin=$work/$side/crates/bench/src/bin/probe.rs
    [[ -f $bin ]] || cp "$repo/crates/bench/src/bin/probe.rs" "$bin"
    (cd "$work/$side" && cargo build --release --quiet --offline -p tvdp-bench --bin probe)
  else
    (cd "$work/$side" && cargo build --release --quiet --offline --manifest-path examples/e2e/Cargo.toml)
  fi
done

for ((i = 1; i <= pairs; i++)); do
  order=(a b)
  ((i % 2 == 0)) && order=(b a)
  for side in "${order[@]}"; do
    echo "pair $i/$pairs: $side" >&2
    out=$work/$side-$i.out
    if [[ $mode == probe ]]; then
      (cd "$work/$side" && ./target/release/probe "$@") >"$out"
    else
      (cd "$work/$side" && ./examples/e2e/target/release/tvdp-e2e "$@") >"$out"
    fi
  done
done

python3 - "$work" "$pairs" "$mode" "$rev_a" "$rev_b" <<'EOF'
import json, re, statistics, sys

work, pairs, mode, rev_a, rev_b = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]

def metrics(text):
    found = {}
    if mode == "probe":
        report = json.loads(text)
        for name, entry in report.items():
            if isinstance(entry, dict) and "median" in entry:
                found[name] = entry["median"]
            elif isinstance(entry, dict) and "open_ms" in entry:
                for figure in ("open_ms", "rss_after_open_mib", "rss_after_first_visual_search_mib"):
                    found[f"{name}.{figure}"] = entry[figure]["median"]
            elif name.endswith("_bytes") and isinstance(entry, (int, float)):
                found[name] = entry
        return found, None
    last = json.loads(text.strip().splitlines()[-1])
    for name, entry in last["metrics"].items():
        found[name] = entry["value"]
    found["ops_failed"] = last["failed"]
    for name, value in re.findall(r"^# (load\.\w+)=([-\d.]+)", text, re.M):
        found[name] = float(value)
    fnv = re.search(r"^# search_result_fnv=(\w+)", text, re.M)
    return found, fnv and fnv.group(1)

runs = {"a": [], "b": []}
fnvs = set()
print("pair\tside\trev\tmetric\tvalue")
for i in range(1, pairs + 1):
    for side, rev in (("a", rev_a), ("b", rev_b)):
        found, fnv = metrics(open(f"{work}/{side}-{i}.out").read())
        if fnv:
            fnvs.add(fnv)
        runs[side].append(found)
        for name, value in found.items():
            print(f"{i}\t{side}\t{rev}\t{name}\t{value}")

print()
print(f"{'metric':44} {'median a':>12} {'median b':>12} {'q1 a':>12} {'q3 a':>12} {'b lower':>8}")
for name in runs["a"][0]:
    a = [r[name] for r in runs["a"]]
    b = [r[name] for r in runs["b"]]
    q = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
    lower = sum(y < x for x, y in zip(a, b))
    print(f"{name:44} {statistics.median(a):12.4f} {statistics.median(b):12.4f} "
          f"{q[0]:12.4f} {q[2]:12.4f} {lower:>5}/{pairs}")
if fnvs:
    print(f"search_result_fnv: {' '.join(sorted(fnvs))}")
sys.exit(1 if len(fnvs) > 1 else 0)
EOF
