#!/usr/bin/env bash
# Full offline CI gate for the workspace: formatting, lints, release
# build, and the complete test suite. No network access required — the
# workspace has zero external dependencies.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo build --workspace --release --offline
run cargo test --workspace -q --offline

# The regression layer, named explicitly so a failure is unmissable in
# the log: golden figures must match their committed fixtures
# (re-bless intentional changes with BULKSC_BLESS=1), and every artifact
# must be byte-identical at any --jobs width.
run cargo test -q --offline --test golden_figures --test pool_determinism

# Analyze smoke test: trace a short run, then make sure the analysis
# tooling accepts the artifacts this tree produces. `timeline` exits
# nonzero if any chunk_start never reached a commit, squash, or abandon;
# `report` exits nonzero if an artifact's schema version is stale or a
# core's cycle-loss total drifts from its run's cycle count; a self-`diff`
# must always be clean. A fast fig9 pass writes the RunLog first, since
# results/ is a gitignored run output.
run cargo run -q --release --offline --example trace_demo
run cargo run -q --release --offline -p bulksc-bench --bin fig9 -- \
  fast --json --jobs 2 > /dev/null
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  timeline results/trace_demo.jsonl
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  report results/fig9.json > /dev/null
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  diff results/fig9.json results/fig9.json > /dev/null

# SC conformance gate: the demo's value trace must certify under the
# bulksc-check oracle, and a time-boxed differential fuzz sweep (fixed
# seed list so failures reproduce; the box only trims the tail on slow
# machines) must find no violation across seeds × configurations.
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  check results/trace_demo.jsonl --jobs 2
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-fuzz -- \
  --seeds 6 --time-box 60 --jobs 2 --metrics > /dev/null

# Model-parametric oracle gate (SC vs TSO discrimination): the demo
# hunts a real store-buffering execution on the TSO baseline and writes
# its value trace. The SC oracle must refuse that trace (exit 1) naming
# the relaxed W->R po edge; the TSO oracle must certify it, batch and
# streaming; and a short differential fuzz box sweeps the TSO baseline
# under the TSO oracle (with SC/BulkSC entries proving SC ⊂ TSO).
run cargo run -q --release --offline --example tso_sb_demo > /dev/null
echo "==> check results/tso_sb.jsonl (SC refuses, TSO certifies)"
if ./target/release/bulksc-analyze check results/tso_sb.jsonl > results/tso_sb.sc.txt; then
  echo "SC oracle certified a store-buffering trace" >&2
  exit 1
fi
grep -q 'SC VIOLATION' results/tso_sb.sc.txt
grep -q 'relaxed edge' results/tso_sb.sc.txt
run ./target/release/bulksc-analyze check results/tso_sb.jsonl --model=tso
run ./target/release/bulksc-analyze check results/tso_sb.jsonl --model=tso --stream
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-fuzz -- \
  --model=tso --seeds 4 --time-box 45 --jobs 2 > /dev/null
rm -f results/tso_sb.sc.txt

# Streaming-oracle gate (the unbounded-memory fix): a 4M-access
# synthetic trace is piped straight into the windowed checker — never
# touching disk or materializing the access vector — and must certify
# under a hard RSS ceiling the batch path could not meet at this size.
# The binaries were built by the release-build stage above, so the two
# halves of the pipe run without contending on cargo's build lock.
echo "==> synth-trace 4000000 | check - --stream (RSS-bounded)"
./target/release/bulksc-analyze synth-trace 4000000 |
  ./target/release/bulksc-analyze check - --stream --window 65536 --jobs 2 --max-rss-mb 192

# BTF gate: the binary trace format must be lossless and invisible to
# every consumer. The demo trace (regenerated above) converts to BTF;
# `check` sniffs the format and certifies through the native BTF decode
# path; an index-backed query smoke is diffed against a committed golden
# (tests/golden/query.txt — re-bless by re-running the query after an
# intentional change); and converting back must reproduce the original
# JSONL byte-for-byte.
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  convert results/trace_demo.jsonl results/trace_demo.btf
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  check results/trace_demo.btf --jobs 2
cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  query results/trace_demo.btf --kind squash --count-by cause --stats \
  > results/query.ci.txt
run diff -u tests/golden/query.txt results/query.ci.txt
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  convert results/trace_demo.btf results/trace_demo.ci.jsonl
run cmp results/trace_demo.jsonl results/trace_demo.ci.jsonl
rm -f results/query.ci.txt results/trace_demo.ci.jsonl

# The streaming consumers must not notice the encoding either: `xray`
# (report and --dot graph) and `timeline` (summary and --out Chrome
# trace) on the BTF artifact must match the same commands on the JSONL
# original byte for byte. Each format runs in its own directory under
# the same file name, so the paths the commands print agree.
echo "==> xray + timeline on trace_demo.btf == on trace_demo.jsonl"
for fmt in jsonl btf; do
  rm -rf "results/ci.$fmt" && mkdir -p "results/ci.$fmt"
  cp "results/trace_demo.$fmt" "results/ci.$fmt/trace"
  (
    cd "results/ci.$fmt"
    ../../target/release/bulksc-analyze xray trace --dot xray.dot > xray.txt
    ../../target/release/bulksc-analyze timeline trace --out timeline.json > timeline.txt
    rm trace
  )
done
run diff -r results/ci.jsonl results/ci.btf
rm -rf results/ci.jsonl results/ci.btf

# BTF analysis throughput gate: `xray` decodes BTF blocks straight into
# events, so on the same synthetic trace it must be no slower from the
# BTF file than from its JSONL twin (EXPERIMENTS.md records the ratio).
echo "==> xray on synth-trace 1000000 (timed, btf <= jsonl)"
./target/release/bulksc-analyze synth-trace 1000000 > results/synth.ci.jsonl
./target/release/bulksc-analyze synth-trace 1000000 --format btf > results/synth.ci.btf
t0=$(date +%s%N)
./target/release/bulksc-analyze xray results/synth.ci.jsonl > /dev/null
t1=$(date +%s%N)
./target/release/bulksc-analyze xray results/synth.ci.btf > /dev/null
t2=$(date +%s%N)
rm -f results/synth.ci.jsonl results/synth.ci.btf
jsonl_ms=$(((t1 - t0) / 1000000))
btf_ms=$(((t2 - t1) / 1000000))
echo "    xray from jsonl: ${jsonl_ms} ms, from btf: ${btf_ms} ms"
if [ "$btf_ms" -gt "$jsonl_ms" ]; then
  echo "xray from BTF (${btf_ms} ms) slower than from JSONL (${jsonl_ms} ms)" >&2
  exit 1
fi

# BTF throughput gate: certifying the same synthetic trace end-to-end
# (generator | windowed checker) must be no slower through the BTF pipe
# than through the JSONL pipe — the binary decode path replaces JSON
# parsing, so it has no excuse. EXPERIMENTS.md records the measured
# ratio at 4M accesses on the reference host.
echo "==> synth-trace 2000000 [--format btf] | check - --stream (timed, btf <= jsonl)"
t0=$(date +%s%N)
./target/release/bulksc-analyze synth-trace 2000000 |
  ./target/release/bulksc-analyze check - --stream --window 65536 --jobs 2 > /dev/null
t1=$(date +%s%N)
./target/release/bulksc-analyze synth-trace 2000000 --format btf |
  ./target/release/bulksc-analyze check - --stream --window 65536 --jobs 2 > /dev/null
t2=$(date +%s%N)
jsonl_ms=$(((t1 - t0) / 1000000))
btf_ms=$(((t2 - t1) / 1000000))
echo "    jsonl pipe: ${jsonl_ms} ms, btf pipe: ${btf_ms} ms"
if [ "$btf_ms" -gt "$jsonl_ms" ]; then
  echo "BTF streaming certification (${btf_ms} ms) slower than JSONL (${jsonl_ms} ms)" >&2
  exit 1
fi

# Differential fuzz smoke: every generated trace is certified twice —
# batch and windowed streaming at two pool widths — and the verdicts,
# witnesses, and hashes must agree case by case.
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-fuzz -- \
  --seeds 2 --time-box 30 --jobs 2 --stream-check > /dev/null

# Metrics smoke: the `--metrics` fuzz sweep above ran under a live
# heartbeat, so it must have left a well-formed heartbeat stream and a
# text exposition behind. `bulksc-analyze metrics` re-parses the JSONL
# with the in-repo Json parser and exits nonzero on any malformed line or
# schema drift. The exposition must carry real counters from both of its
# sources: the per-run views `System::run` published (chunks, fabric
# messages) and the pool's live job progress.
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  metrics results/fuzz.metrics.jsonl > /dev/null
run grep -q '^bulksc_sim_chunks_committed [1-9]' results/fuzz.metrics.prom
run grep -q '^bulksc_sim_fabric_messages [1-9]' results/fuzz.metrics.prom
run grep -q '^bulksc_pool_jobs_completed [1-9]' results/fuzz.metrics.prom

# Host-performance smoke: a fast pass over the perf matrix (small budget,
# 2 reps — seconds, not minutes). `prof` re-reads the artifact and fails
# if the tracing tax (bsc8 KIPS over bsc8_trace KIPS) exceeds 3x — the
# zero-cost-when-off contract for the event-trace layer, with headroom
# for host noise at smoke budgets — or if the xray tax (bsc8_trace KIPS
# over bsc8_xray KIPS) exceeds 1.10x. The metrics registry has no tax to
# gate: the simulator counts only in its components' stats, and a
# `--metrics` run reads them once per finished run. `perf-diff` against
# the committed baseline uses a deliberately loose 90% threshold:
# absolute KIPS varies wildly across hosts, so this only catches
# order-of-magnitude collapses and scenario-matrix drift, while the
# self-diff must always be clean.
# results/ is a gitignored run output, so on a fresh checkout the
# baseline is seeded from a fast pass first (repro.sh replaces it with a
# full-budget one).
if [ ! -f results/perf.json ]; then
  run cargo run -q --release --offline -p bulksc-bench --bin bulksc-perf -- \
    --fast --out results/perf.json --no-trajectory --jobs 2 > /dev/null
fi
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-perf -- \
  --fast --out results/perf.ci.json --no-trajectory --jobs 2 > /dev/null
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  prof results/perf.ci.json --max-trace-overhead 3.0 --max-xray-overhead 1.10 > /dev/null
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  perf-diff results/perf.json results/perf.ci.json --threshold 90 > /dev/null
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  perf-diff results/perf.ci.json results/perf.ci.json --threshold 0 > /dev/null
rm -f results/perf.ci.json

# Xray forensics smoke: an experiment binary run with --xray must leave
# a conflict-forensics artifact behind, and `bulksc-analyze xray` must
# render it (with a --dot causality graph) without complaint. The
# report's *content* is pinned by the golden-figure layer
# (tests/golden/xray.txt); this exercises the real CLI path on the real
# artifact file at the same pinned budget and seed.
run env BULKSC_BUDGET=25000 cargo run -q --release --offline -p bulksc-bench --bin table3 -- \
  --xray --jobs 2 > /dev/null
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-analyze -- \
  xray results/table3.xray.jsonl --dot results/table3.xray.dot > /dev/null
run grep -q 'digraph xray' results/table3.xray.dot

echo "CI gate passed."
