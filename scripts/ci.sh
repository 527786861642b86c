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

# The benchmark package is a workspace of its own that reaches the
# simulator crates by path, so nothing above compiles it: build and test
# it here, so that a crates/ API change that breaks it fails CI. Its drift
# test runs every workload at smoke size and writes only under the
# ignored benchmark/out/.
run cargo test --manifest-path benchmark/Cargo.toml --offline -q

# The regression layer, named explicitly so a failure is unmissable in
# the log: golden figures must match their committed fixtures
# (re-bless intentional changes with BULKSC_BLESS=1), every artifact
# must be byte-identical at any --jobs width, `run`, which ticks a
# core only when it has work, must match ticking every core on every
# cycle byte for byte (run_matches_per_cycle_stepping), and the oracle's
# SC and TSO verdicts must match a brute-force operational reference on
# every trace of a seeded sample of tiny programs. The simulator's fast
# paths must match the plain models they replaced: the signature bank
# tables the 26-step wire loop, ExactSet a BTreeSet, the paged set array
# of the tag and directory stores a Vec<Vec<_>>; and a warm window's
# issue scan and a warm fabric's delivery must allocate nothing. The
# trace wire format must match its committed bytes: one event of every
# kind as a JSONL line and a BTF record (event_wire), since a round trip
# compares a build only with itself.
run cargo test -q --offline --test golden_figures --test pool_determinism \
  --test determinism_and_shapes --test reference_oracle \
  --test signature_differential --test set_array_differential --test allocation_free \
  --test event_wire

# Committed-table gate: the six result tables must regenerate
# byte-identical at their default budget (25,000 instructions per core).
# The goldens above run at 2,000 per core, where SC++ never squashes, so
# this is the only step that reads the committed SC++ column. After an
# intentional change, regenerate results/ with scripts/repro.sh and say
# why in CHANGES.md.
echo "==> six result tables at the default budget == results/*.txt"
for bin in fig9 fig10 fig11 table3 table4 ablations; do
  env -u BULKSC_BUDGET "./target/release/$bin" --jobs 2 > "results/$bin.ci.txt"
  run cmp "results/$bin.txt" "results/$bin.ci.txt"
  rm -f "results/$bin.ci.txt"
done

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
  ./target/release/bulksc-analyze check - --stream --window 65536 --max-rss-mb 192

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

# Both trace formats must give the same certificate: `check`, batch and
# streaming, prints the same line for the JSONL and the BTF artifact once
# each line's `origin:` prefix is stripped. The xray capture below runs
# the same comparison on a trace that carries attribution blobs.
same_certificates() {
  echo "==> check [--stream] on $1.btf == on $1.jsonl"
  for mode in "" --stream; do
    for fmt in jsonl btf; do
      ./target/release/bulksc-analyze check $mode "$1.$fmt" |
        sed 's/^[^:]*: //' > "results/cert.ci.$fmt"
    done
    run cmp results/cert.ci.jsonl results/cert.ci.btf
    run grep -q '^SC-certified' results/cert.ci.btf
  done
  rm -f results/cert.ci.jsonl results/cert.ci.btf
}
same_certificates results/trace_demo

# `check` spreads its input files over the pool in streaming mode as in
# batch mode: two traces at --jobs 2 must print exactly their
# single-file certificates, in argument order.
echo "==> check --stream --jobs 2 on trace_demo.{jsonl,btf} == each alone"
for fmt in jsonl btf; do
  ./target/release/bulksc-analyze check --stream "results/trace_demo.$fmt"
done > results/cert.ci.one
./target/release/bulksc-analyze check --stream --jobs 2 \
  results/trace_demo.jsonl results/trace_demo.btf > results/cert.ci.two
run cmp results/cert.ci.one results/cert.ci.two
rm -f results/cert.ci.one results/cert.ci.two

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
  ./target/release/bulksc-analyze check - --stream --window 65536 > /dev/null
t1=$(date +%s%N)
./target/release/bulksc-analyze synth-trace 2000000 --format btf |
  ./target/release/bulksc-analyze check - --stream --window 65536 > /dev/null
t2=$(date +%s%N)
jsonl_ms=$(((t1 - t0) / 1000000))
btf_ms=$(((t2 - t1) / 1000000))
echo "    jsonl pipe: ${jsonl_ms} ms, btf pipe: ${btf_ms} ms"
if [ "$btf_ms" -gt "$jsonl_ms" ]; then
  echo "BTF streaming certification (${btf_ms} ms) slower than JSONL (${jsonl_ms} ms)" >&2
  exit 1
fi

# Differential fuzz smoke: every generated trace is certified twice —
# batch and windowed streaming — and the verdicts, access counts and
# final memories must agree case by case.
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

# Tracing-tax gate: bulksc-perf measures two KIPS ratios on the same
# BSCdypvt ocean run and exits 1 if either median exceeds its bound
# (both bounds live in bulksc_bench::perf::GATED_RATIOS). The tracing
# tax (bsc8 over bsc8_trace) may be at most 3x: it bounds what a traced
# run costs relative to an untraced one, with headroom for host noise at
# this small budget, and it rises whenever untraced runs get faster and
# trace emission does not, so a simulator speedup must come with a
# matching cut in emission cost. The xray tax (bsc8_trace over
# bsc8_xray, both traced, only the second attributing conflicts) may be
# at most 1.10x. Each ratio is the median of interleaved single-run
# pairs on one thread, so a slow stretch of the host hits both halves
# of a pair. The metrics registry has no tax to gate: the simulator
# counts only in its components' stats, and a `--metrics` run reads them
# once per finished run. The simulator's speed from one commit to the
# next is measured by benchmark/run.sh compare, not here.
run cargo run -q --release --offline -p bulksc-bench --bin bulksc-perf

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
run ./target/release/bulksc-analyze convert results/table3.xray.jsonl results/table3.xray.btf
run ./target/release/bulksc-analyze convert results/table3.xray.btf results/table3.xray.ci.jsonl
run cmp results/table3.xray.jsonl results/table3.xray.ci.jsonl
same_certificates results/table3.xray
rm -f results/table3.xray.btf results/table3.xray.ci.jsonl

echo "CI gate passed."
