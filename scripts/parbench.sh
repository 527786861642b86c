#!/usr/bin/env bash
# Measure what the --jobs host worker pool buys in wall-clock on this
# machine, and record the honest numbers in the repo-root BENCH_par.json.
#
# The probe is the fig9 sweep (13 apps x 7 configs of independent
# simulations) at a pinned budget, run once per width after a warmup.
# The artifacts are byte-identical at every width (that is the pool's
# contract, see tests/pool_determinism.rs), so this measures time only.
# On an N-core host the jobs=4 sweep should approach min(4, N)x the
# jobs=1 sweep; on a single-core host the ratio is honestly ~1x and the
# recorded host_cpus says why.
#
#   scripts/parbench.sh
#   BULKSC_BUDGET=25000 scripts/parbench.sh   # longer probe
set -euo pipefail
cd "$(dirname "$0")/.."

budget="${BULKSC_BUDGET:-6000}"
widths=(1 2 4)

echo "==> cargo build --release --offline -p bulksc-bench"
cargo build --release --offline -p bulksc-bench -q

host_cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
bin=target/release/fig9

# Each measured run also records pool activity via --metrics. A long
# interval keeps the heartbeat thread asleep for the whole sweep, so the
# only metrics work inside the timed window is the pool's per-job
# progress atomics and one registry view per finished run; the final
# snapshot line in results/fig9.metrics.jsonl still carries the totals
# we want.
measure() { # measure <jobs> -> wall milliseconds on stdout
  local start end
  start="$(date +%s%N)"
  BULKSC_BUDGET="$budget" "$bin" --jobs "$1" --metrics=600000 > /dev/null 2>&1
  end="$(date +%s%N)"
  echo $(( (end - start) / 1000000 ))
}

last_metric() { # last_metric <field> -> value from the final snapshot line
  tail -n 1 results/fig9.metrics.jsonl | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

echo "==> warmup (jobs 1)"
measure 1 > /dev/null

entries=""
declare -A wall
for j in "${widths[@]}"; do
  ms="$(measure "$j")"
  wall[$j]="$ms"
  done_jobs="$(last_metric done)"
  peak_queue="$(last_metric queue_peak)"
  echo "==> fig9 budget $budget --jobs $j: ${ms} ms," \
       "${done_jobs} jobs, peak queue ${peak_queue}"
  [ -n "$entries" ] && entries+=","
  entries+="{\"jobs\":$j,\"wall_ms\":$ms,\"jobs_completed\":$done_jobs,\"peak_queue_depth\":$peak_queue}"
done

speedup="$(awk -v a="${wall[1]}" -v b="${wall[4]}" 'BEGIN { printf "%.3f", a / b }')"

cat > BENCH_par.json <<EOF
{"schema":"bulksc-parbench","version":4,"experiment":"fig9","budget":$budget,"host_cpus":$host_cpus,"measurements":[$entries],"speedup_jobs4_over_jobs1":$speedup}
EOF

echo "==> speedup jobs=4 over jobs=1: ${speedup}x on a ${host_cpus}-cpu host"
echo "wrote BENCH_par.json"
