#!/usr/bin/env bash
# Paired host-time comparison of the benchmark between a parent revision
# and the working tree.
#
#   scripts/perf_pairs.sh PARENT_REV WORKLOAD SEED PAIRS
#
# Builds perfbench from a `git archive` of PARENT_REV unpacked under target/
# and in the working tree, then runs PAIRS pairs of 15 s `--trace 0` runs of
# WORKLOAD at SEED, swapping which side runs first from one pair to the
# next, and ends with one `--trace 1` run per side. For every end-to-end
# metric in BENCHMARK.json it prints each side's median and quartiles, how
# many pairs the working tree won (ties count for neither side), and
# whether every run of both sides read the same value, then each side's
# value in every pair, in pair order. Then it prints every per-layer metric
# of the two traced runs side by side, with the change's value over the
# parent's, so a change shows which layer its saving comes from.
# Exits non-zero if any run fails or prints no result line. The parent's
# copy and any running benchmark are removed on exit, interrupted or not.
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
    rm -rf "$scratch"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir "$parent_tree"
git -C "$root" archive "$parent_sha" | tar -x -C "$parent_tree"
for tree in "$parent_tree" "$root"; do
    echo "building perfbench in $tree" >&2
    cargo build --release --quiet --offline --manifest-path "$tree/perfbench/Cargo.toml"
done

results="$scratch/results.tsv"
traces="$scratch/traces.tsv"
: > "$results"
: > "$traces"
# One run of one side: appends "pair<TAB>side<TAB>result line" to the
# results file of its trace setting.
run() {
    local pair=$1 side=$2 tree=$3 trace=$4 file=$5 out="$scratch/run.out"
    echo "pair $pair/$pairs: $side, --trace $trace" >&2
    (cd "$tree" && exec perfbench/target/release/hcj-perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace") > "$out" &
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
    printf '%s\t%s\t%s\n' "$pair" "$side" "$line" >> "$file"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$parent_tree" 0 "$results"
        run "$pair" change "$root" 0 "$results"
    else
        run "$pair" change "$root" 0 "$results"
        run "$pair" parent "$parent_tree" 0 "$results"
    fi
done
run traced parent "$parent_tree" 1 "$traces"
run traced change "$root" 1 "$traces"

python3 - "$root/BENCHMARK.json" "$results" "$traces" "$parent_rev" "$workload" "$seed" <<'PY'
import json
import statistics
import sys

bench_path, results_path, traces_path, parent_rev, workload, seed = sys.argv[1:]
bench = json.load(open(bench_path))


def read(path):
    runs = {"parent": {}, "change": {}}
    for row in open(path):
        pair, side, line = row.rstrip("\n").split("\t", 2)
        runs[side][pair] = json.loads(line)["metrics"]
    return runs


runs = read(results_path)
pairs = sorted(runs["parent"], key=int)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


print(f"{workload} seed {seed}: {len(pairs)} pairs of {parent_rev} (parent) vs the working tree (change)")
print(f"{'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'change won':>11}  same")
for metric in bench["end_to_end"]:
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

traced = read(traces_path)
print()
print(f"{workload} seed {seed}: one --trace 1 run per side")
print(f"{'per-layer metric':<40} {'unit':<14} {'parent':>12} {'change':>12} {'change/parent':>14}")
for metric in bench["per_layer"]:
    name = metric["name"]
    parent, change = (traced[side]["traced"][name]["value"] for side in ("parent", "change"))
    ratio = f"{change / parent:.3f}" if parent else "-"
    print(f"{name:<40} {metric['unit']:<14} {parent:>12.5g} {change:>12.5g} {ratio:>14}")
PY
