//! Every metric the benchmark prints, with its unit. `BENCHMARK.json` at
//! the repository root lists the same names and units; the drift test in
//! `tests/drift.rs` fails if the two ever disagree.

/// What a user of the simulator sees, printed by the untraced run of every
/// workload. None of them is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    // Median host seconds for one slice, the workload's fixed unit of work.
    ("slice_s", "s"),
    // Simulated cycles per retired instruction and core over the
    // reference slice: the modelled machine's speed, exact per seed.
    ("sim_cpi", "cycles/instr"),
    // Peak resident set of whatever did the work: this process, or the
    // largest CLI child.
    ("peak_rss_mib", "MiB"),
    // Median over repeated set-ups of everything before the timed region.
    ("setup_s", "s"),
];

/// Single layers, printed by the traced run of every workload. A layer a
/// workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // bulksc-prof self time per phase, as a share of the profiled host
    // time of the traced slices. `execute` is split by core family.
    ("prof.step_loop_pct", "%"),
    ("prof.bulk_exec_pct", "%"),
    ("prof.baseline_exec_pct", "%"),
    ("prof.sig_ops_pct", "%"),
    ("prof.arbiter_pct", "%"),
    ("prof.directory_pct", "%"),
    ("prof.fabric_pct", "%"),
    ("prof.trace_emit_pct", "%"),
    ("prof.oracle_pct", "%"),
    ("prof.sys_new_pct", "%"),
    ("prof.collect_pct", "%"),
    ("prof.coverage_pct", "%"),
    ("prof.overhead_x", "x"),
    // Scopes entered in the first traced slice: exact per seed.
    ("prof.exec_calls", "count"),
    ("prof.sig_ops_calls", "count"),
    ("prof.directory_calls", "count"),
    ("prof.fabric_calls", "count"),
    ("prof.trace_emit_calls", "count"),
    // Spans the benchmark records around its own calls (untraced slices).
    ("span.op_p50_ms", "ms"),
    ("span.op_p95_ms", "ms"),
    ("pool.busy_frac", "frac"),
    // Each workload's own throughput (median over untraced slices).
    ("rate.sim_kips", "kinstr/s"),
    ("rate.fuzz_cases_per_s", "1/s"),
    ("rate.capture_kips_jsonl", "kinstr/s"),
    ("rate.capture_kips_btf", "kinstr/s"),
    ("rate.certify_macc_per_s_btf", "Macc/s"),
    ("rate.certify_macc_per_s_jsonl", "Macc/s"),
    ("rate.analyze_mevents_per_s", "Mevents/s"),
    // The bulksc-analyze subcommands: share of the slice's CLI time and
    // peak resident set of the child process.
    ("analyze.check_btf_pct", "%"),
    ("analyze.check_jsonl_pct", "%"),
    ("analyze.xray_pct", "%"),
    ("analyze.timeline_pct", "%"),
    ("analyze.query_pct", "%"),
    ("analyze.check_btf_rss_mib", "MiB"),
    ("analyze.check_jsonl_rss_mib", "MiB"),
    ("analyze.xray_rss_mib", "MiB"),
    ("analyze.timeline_rss_mib", "MiB"),
    // Exact counts of the reference slice: identical on every run of a
    // seed, so a simulator-speed change must leave them alone.
    ("sim.instrs", "count"),
    ("sim.cycles", "count"),
    ("sim.bsc_rc_cycle_ratio", "ratio"),
    ("core.chunks", "count"),
    ("core.squash_frac", "frac"),
    ("core.alias_squash_frac", "frac"),
    ("core.arb_denial_frac", "frac"),
    ("net.msgs", "count"),
    ("net.bytes", "bytes"),
    ("check.accesses", "count"),
    ("check.edges", "count"),
    ("check.ambiguous_frac", "frac"),
    ("trace.events", "count"),
    ("trace.jsonl_mib", "MiB"),
    ("trace.btf_mib", "MiB"),
    // Operations that produced no output, by cause. `liveness` and
    // `verdict` count fuzz cases the set-up screen kept out of the timed
    // work list.
    ("fail.cap_hits", "count"),
    ("fail.panics", "count"),
    ("fail.liveness", "count"),
    ("fail.verdict", "count"),
];

/// The unit of a listed metric.
///
/// # Panics
///
/// Panics on a name neither table lists: every printed metric must be in
/// `BENCHMARK.json`.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not listed"))
}
