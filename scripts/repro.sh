#!/usr/bin/env bash
# Regenerate every results/ artifact from scratch, then run
# `bulksc-analyze` over each one as a validity gate: the report pass
# checks schema versions and the per-core cycle-loss invariant, and the
# timeline pass checks that every traced chunk terminates.
#
#   scripts/repro.sh                # default budget (~minutes)
#   BULKSC_BUDGET=5000 scripts/repro.sh   # faster, coarser
#
# Every sweep runs on the bulksc_bench::pool host worker pool; set
# BULKSC_JOBS=N to pick the width (default: available parallelism).
# The artifacts are byte-identical at any width, so this only changes
# wall-clock time.
set -euo pipefail
cd "$(dirname "$0")/.."

# The banner goes to stderr: stdout is redirected into the artifacts.
run() {
  echo "==> $*" >&2
  "$@"
}

run cargo build --workspace --release --offline

# Text tables + JSON RunLogs for every figure/table of the evaluation.
for bin in fig9 fig10 fig11 table3 table4 ablations; do
  run cargo run -q --release --offline -p bulksc-bench --bin "$bin" -- --json \
    > "results/$bin.txt"
done

# The tracing demo writes the JSONL event stream, the Chrome trace, and
# the interval-sample series.
run cargo run -q --release --offline --example trace_demo > /dev/null

# Host-performance suite: results/perf.json (absolute numbers are
# host-specific; the per-phase shares and scenario ratios are the
# comparable part).
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-perf -- \
  --label seed > /dev/null

# Validate everything we just wrote.
for artifact in results/*.json; do
  case "$artifact" in
    *.trace.json | *.samples.json | *perf*.json) continue ;; # not RunLogs
  esac
  run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
    report "$artifact" > /dev/null
done
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  timeline results/trace_demo.jsonl
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  prof results/perf.json > /dev/null

# The demo run was recorded with value tracing on, so its event stream
# must also pass the SC conformance oracle — once through the batch
# path and once through the streaming/windowed path (the two must
# agree; tests/stream_equivalence.rs pins that, this exercises the CLI).
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  check results/trace_demo.jsonl
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  check results/trace_demo.jsonl --stream --window 4096 --jobs 2

echo "results/ regenerated and validated."
