#!/usr/bin/env bash
# Build the release binaries, then run the benchmark.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--trace] [--smoke] [--out DIR]
#       every workload, each in a process of its own
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]
#       one workload; the last line of stdout is its JSON result
#   benchmark/run.sh compare A B
#       two sets of result files (directories or files), metric by metric
#
# Cargo output goes to stderr. Builds land in $CARGO_TARGET_DIR, or the
# repository's target/ when it is unset.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p bulksc-bench --bin bulksc-analyze >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

BULKSC_BENCH_RUSTC="$(rustc -V)"
# The ceiling keeps git from finding a repository above this one.
BULKSC_BENCH_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
    git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BULKSC_BENCH_RUSTC BULKSC_BENCH_REV

exec "$target/release/bulksc-benchmark" "$@"
