#!/usr/bin/env bash
# Paired runs of the repository benchmark: PARENT against CHANGE.
#
# Usage: ci/pairs.sh PARENT CHANGE [WORKLOADS] [PAIRS] [K]
#
#   PARENT, CHANGE  two commits of this repository
#   WORKLOADS       comma-separated (default: all four of BENCHMARK.json)
#   PAIRS           pairs per workload (default 5)
#   K               processes per side in each pair (default 3)
#
# Both commits are cloned into two scratch checkouts of equal path length
# under ${TMPDIR:-/tmp}/wh-pairs (emptied first) and each checkout's
# `benchmark` binary is built; then the two checkouts swap commits and are
# built again, since the path a binary was built at moves a reading by
# itself (2.4 % in one A/A). The first half of the pairs runs the parent
# built in the first checkout against the change built in the second, the
# second half the other way round. A pair runs K processes a side in
# alternating order, each under `setarch -R` with seed 1, `--seconds 12
# --trace 0`, and keeps each side's median process.
#
# It prints, per workload and end-to-end metric, each side's per-pair
# medians, both medians over the pairs, the IQR of the parent's, the pairs
# the change won and an exact two-sided sign-test p; the same for each
# slice kind's median `wall_ms` (`<kind>.wall_ms`, from the detail line
# before the result); then any run that was not `correct` or failed
# operations. The raw lines, result and detail split by a tab, stay in
# runs.txt beside the checkouts.
#
# Cost: four release builds of the benchmark (a few minutes), then
# WORKLOADS x PAIRS x 2 x K processes of 15-30 s each on an idle 2-CPU
# host: 10 pairs with K = 3 on one workload take about 25 minutes, 5 pairs
# with K = 3 on all four about an hour. Compile nothing meanwhile.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,/^set /{/^set /d;s/^# \{0,1\}//;p}' "$0"
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
parent=$(git -C "$repo" rev-parse --verify "$1^{commit}")
change=$(git -C "$repo" rev-parse --verify "$2^{commit}")
workloads=${3:-index-get,index-churn,serve-mixed,durable-churn}
pairs=${4:-5}
k=${5:-3}
work=${TMPDIR:-/tmp}/wh-pairs
rm -rf "$work"
mkdir -p "$work/bin"
for checkout in a b; do
    git clone -q --no-checkout "$repo" "$work/$checkout"
done

# build CHECKOUT COMMIT NAME: the benchmark of COMMIT, built in CHECKOUT.
build() {
    git -C "$work/$1" checkout -q --detach "$2"
    cargo build --release --quiet --manifest-path "$work/$1/benchmark/Cargo.toml" \
        --target-dir "$work/$1/benchmark/target"
    cp "$work/$1/benchmark/target/release/wh-benchmark" "$work/bin/$3"
}
build a "$parent" parent-a
build b "$change" change-b
build a "$change" change-a
build b "$parent" parent-b

runs=$work/runs.txt
: >"$runs"
for workload in ${workloads//,/ }; do
    for pair in $(seq "$pairs"); do
        if [ $((2 * pair)) -le "$pairs" ]; then
            sides="parent-a change-b"
        else
            sides="parent-b change-a"
        fi
        for i in $(seq "$k"); do
            order=$sides
            if [ $(((pair + i) % 2)) -eq 1 ]; then
                order=$(echo "$sides" | awk '{print $2, $1}')
            fi
            for bin in $order; do
                out=$(setarch -R "$work/bin/$bin" --workload "$workload" --seed 1 \
                    --seconds 12 --trace 0 2>/dev/null | tail -n 2)
                printf '%s %s %s %s\t%s\n' "$workload" "$pair" "${bin%-*}" \
                    "$(echo "$out" | tail -n 1)" "$(echo "$out" | head -n 1)" >>"$runs"
            done
        done
        echo "$workload: pair $pair of $pairs done" >&2
    done
done

python3 - "$runs" "$repo/BENCHMARK.json" "$k" <<'EOF'
import json, statistics, sys
from math import comb

runs_path, bench_path, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
end_to_end = [(m["name"], m["better"] == "lower") for m in json.load(open(bench_path))["end_to_end"]]
runs, kinds, bad = {}, {}, []
for line in open(runs_path):
    line, _, detail = line.rstrip("\n").partition("\t")
    workload, pair, side, result = line.split(" ", 3)
    result = json.loads(result)
    if not result["correct"] or result["failed"]:
        bad.append(line.strip())
    values = {name: result["metrics"][name]["value"] for name, _ in end_to_end}
    for kind in json.loads(detail).get("kinds", []) if detail else []:
        name = f"{kind['kind']}.wall_ms"
        values[name] = kind["wall_ms"]["median"]
        kinds.setdefault(workload, {})[name] = True
    runs.setdefault(workload, {}).setdefault(int(pair), {}).setdefault(side, []).append(values)

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

for workload, by_pair in runs.items():
    print(f"{workload}: {len(by_pair)} pairs, K = {k}")
    for name, lower in end_to_end + [(kind, True) for kind in kinds.get(workload, {})]:
        med = {side: [statistics.median(r[name] for r in by_pair[p][side])
                      for p in sorted(by_pair)] for side in ("parent", "change")}
        won = sum((c < p) if lower else (c > p) for p, c in zip(med["parent"], med["change"]))
        lost = sum((c > p) if lower else (c < p) for p, c in zip(med["parent"], med["change"]))
        n = won + lost
        p_value = min(1.0, 2 * sum(comb(n, i) for i in range(min(won, lost) + 1)) / 2**n) if n else 1.0
        q1, q3 = quartiles(med["parent"])
        parent, change = statistics.median(med["parent"]), statistics.median(med["change"])
        print(f"  {name:18} parent {parent:.4g}  change {change:.4g}  "
              f"({(change / parent - 1) * 100 if parent else 0:+.1f} %)  parent IQR {q3 - q1:.3g}  "
              f"change won {won}/{len(med['parent'])}  sign-test p {p_value:.3g}")
        for side in ("parent", "change"):
            print(f"    {side:6} " + " ".join(f"{v:.4g}" for v in med[side]))
print(f"runs not correct or with failed operations: {len(bad)}")
for line in bad:
    print("  " + line)
EOF
