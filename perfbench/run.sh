#!/usr/bin/env bash
# Build the release dpm-serve binary and the benchmark binary from this
# checkout, then run one workload:
#
#   bash perfbench/run.sh --workload repro|fleet|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result. Build products land in $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/dpm-serve ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the repository root; no workspace found here" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p dpm-serve --bin dpm-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/dpm-serve" "$@"
