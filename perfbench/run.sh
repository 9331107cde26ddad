#!/usr/bin/env bash
# Builds the `kcenter` binary and the benchmark from this checkout, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), relative
# to the repository root.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a kcenter checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin kcenter
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --kcenter "$CARGO_TARGET_DIR/release/kcenter" "$@"
