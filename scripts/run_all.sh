#!/usr/bin/env bash
# Full verification sweep: build, test, examples, figures, benchmark.
# Usage: scripts/run_all.sh [scale]
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-16}"

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace

echo "== examples =="
for ex in quickstart out_of_core skew_handling tpch_analytics whatif_hardware pipeline_timeline; do
    echo "--- example: $ex ---"
    cargo run --release --example "$ex"
done

echo "== figures (scale 1/$SCALE) =="
cargo run --release -p hcj-bench --bin repro -- all --scale "$SCALE" --out results/

echo "== benchmark (perfbench) =="
cargo test --release --manifest-path perfbench/Cargo.toml
for w in paper-ladder serve-skew fleet-exchange; do
    cargo run --release --manifest-path perfbench/Cargo.toml -- --workload "$w" --seed 1 --seconds 5 --trace 0
done

echo "all green"
