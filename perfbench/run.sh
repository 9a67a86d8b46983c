#!/usr/bin/env bash
# Builds the `lsl` CLI and the benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target). Cargo's progress goes to stderr; the last line on
# stdout is the JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin lsl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --lsl "$CARGO_TARGET_DIR/release/lsl" "$@"
