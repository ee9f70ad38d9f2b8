#!/usr/bin/env bash
# Paired host-time comparison of the benchmark between a parent revision
# and the working tree.
#
#   scripts/perf_pairs.sh PARENT_REV WORKLOAD SEED PAIRS
#
# Builds perfbench at PARENT_REV in a temporary git worktree under target/
# and in the working tree, then runs PAIRS pairs of 15 s `--trace 0` runs of
# WORKLOAD at SEED, swapping which side runs first from one pair to the
# next. For every end-to-end metric in BENCHMARK.json it prints each side's
# median and quartiles, how many pairs the working tree won (ties count for
# neither side), and whether every run of both sides read the same value,
# then each side's value in every pair, in pair order.
# Exits non-zero if any run fails or prints no result line. The worktree
# and any running benchmark are removed on exit, interrupted or not.
set -euo pipefail

if [ $# -ne 4 ] || ! [[ $4 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 PARENT_REV WORKLOAD SEED PAIRS" >&2
    exit 2
fi
parent_rev=$1 workload=$2 seed=$3 pairs=$4
seconds=15
root=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")

mkdir -p "$root/target"
scratch=$(mktemp -d "$root/target/perf-pairs.XXXXXX")
parent_tree="$scratch/parent"
child=""
cleanup() {
    if [ -n "$child" ]; then
        kill "$child" 2>/dev/null || true
        wait "$child" 2>/dev/null || true
    fi
    git -C "$root" worktree remove --force "$parent_tree" 2>/dev/null || true
    git -C "$root" worktree prune || true
    rm -rf "$scratch"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach --quiet "$parent_tree" "$parent_sha"
for tree in "$parent_tree" "$root"; do
    echo "building perfbench in $tree" >&2
    cargo build --release --quiet --offline --manifest-path "$tree/perfbench/Cargo.toml"
done

results="$scratch/results.tsv"
: > "$results"
# One run of one side: appends "pair<TAB>side<TAB>result line" to $results.
run() {
    local pair=$1 side=$2 tree=$3 out="$scratch/run.out"
    echo "pair $pair/$pairs: $side" >&2
    (cd "$tree" && exec perfbench/target/release/hcj-perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) > "$out" &
    child=$!
    if ! wait "$child"; then
        child=""
        echo "$side run of pair $pair failed" >&2
        exit 1
    fi
    child=""
    local line
    line=$(tail -n 1 "$out")
    if [[ $line != '{"correct": true'* ]]; then
        echo "$side run of pair $pair printed no result line" >&2
        exit 1
    fi
    printf '%s\t%s\t%s\n' "$pair" "$side" "$line" >> "$results"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$parent_tree"
        run "$pair" change "$root"
    else
        run "$pair" change "$root"
        run "$pair" parent "$parent_tree"
    fi
done

python3 - "$root/BENCHMARK.json" "$results" "$parent_rev" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

bench_path, results_path, parent_rev, workload, seed = sys.argv[1:]
metrics = json.load(open(bench_path))["end_to_end"]
runs = {"parent": {}, "change": {}}
for row in open(results_path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    runs[side][int(pair)] = json.loads(line)["metrics"]
pairs = sorted(runs["parent"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


print(f"{workload} seed {seed}: {len(pairs)} pairs of {parent_rev} (parent) vs the working tree (change)")
print(f"{'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'change won':>11}  same")
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    cols = []
    values = {}
    for side in ("parent", "change"):
        values[side] = [runs[side][p][name]["value"] for p in pairs]
        q1, q3 = quartiles(values[side])
        cols.append(f"{statistics.median(values[side]):.4g} [{q1:.4g}, {q3:.4g}]")
    wins = sum(
        1
        for a, b in zip(values["parent"], values["change"])
        if (b > a if higher else b < a)
    )
    same = "yes" if len(set(values["parent"] + values["change"])) == 1 else "no"
    print(f"{name:<14} {cols[0]:>32} {cols[1]:>32} {wins:>5}/{len(pairs):<5}  {same}")
    for side in ("parent", "change"):
        print(f"  {side} by pair: " + " ".join(f"{v:.4g}" for v in values[side]))
EOF
