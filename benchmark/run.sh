#!/usr/bin/env bash
# The one command of gqr's benchmark: build offline, then run.
#
#   benchmark/run.sh [--seed S] [--repeat N] [--check]
#       all four workloads with the layer pass, every metric printed as
#       `workload name unit value`, then one JSON document
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's driver calls it; the last line of
#       standard output is the result
#
# Exits non-zero when the build or any correctness check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gqr-benchmark" "$@"
