#!/usr/bin/env bash
# The one command: build the benchmark package, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--runs R] [--traced]                all three workloads
#   benchmark/run.sh compare A.json B.json                           judge two result sets
#
# Run from the repository root or anywhere else; paths resolve from here.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export KF_BENCHMARK_DIR="$here"
# Default build cache: under the repository's ignored /target, next to the
# workspace's own. A caller-set CARGO_TARGET_DIR (the driver's) wins.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
mkdir -p "$here/out"
# Build chatter goes to stderr; stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/benchmark" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release/benchmark" ;;
esac
exec "$bin" "$@"
