//! Tracing must observe without perturbing: same-seed runs emit
//! byte-identical event streams, and a traced run retires the same
//! instructions in the same cycles as an untraced one.

use bulksc::{BulkConfig, Model, SimReport, System, SystemConfig};
use bulksc_trace::{ChromeTracer, JsonlTracer, RingTracer, TraceHandle};
use bulksc_workloads::{by_name, SyntheticApp, ThreadProgram};

fn build(budget: u64, seed: u64) -> System {
    let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
    cfg.budget = budget;
    let app = by_name("ocean").expect("catalog app");
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(app, t, cfg.cores, seed)) as Box<dyn ThreadProgram>)
        .collect();
    System::new(cfg, programs)
}

fn traced_run(budget: u64, seed: u64) -> (SimReport, String, u64) {
    let mut sys = build(budget, seed);
    let jsonl = JsonlTracer::shared();
    let ring = RingTracer::shared(64);
    let mut trace = TraceHandle::off();
    trace.attach(jsonl.clone());
    trace.attach(ring.clone());
    sys.set_tracer(trace);
    assert!(sys.run(u64::MAX / 4), "traced run finishes");
    let seen = ring.borrow().seen();
    let text = jsonl.borrow().contents().to_string();
    (SimReport::collect(&sys), text, seen)
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    let (r1, t1, n1) = traced_run(3_000, 7);
    let (r2, t2, n2) = traced_run(3_000, 7);
    assert!(n1 > 0, "a real run emits events");
    assert_eq!(n1, n2);
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(t1, t2, "same seed, same bytes");

    // A different seed is a different execution — and a different stream.
    let (_, t3, _) = traced_run(3_000, 8);
    assert_ne!(t1, t3);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let mut untraced = build(3_000, 7);
    assert!(untraced.run(u64::MAX / 4));
    let base = SimReport::collect(&untraced);

    let (traced, _, _) = traced_run(3_000, 7);
    assert_eq!(base.cycles, traced.cycles, "cycle counts bit-identical");
    assert_eq!(base.retired, traced.retired);
    assert_eq!(base.chunks_committed, traced.chunks_committed);
    assert_eq!(base.traffic.total(), traced.traffic.total());

    // The latency histograms and cycle-loss attribution are part of the
    // simulation's observable state: tracing must leave them bit-identical
    // too (the instrumentation is always on, never trace-gated).
    assert_eq!(base.lat_execute, traced.lat_execute);
    assert_eq!(base.lat_arbitration, traced.lat_arbitration);
    assert_eq!(base.lat_commit_visible, traced.lat_commit_visible);
    assert_eq!(base.lat_dir_update, traced.lat_dir_update);
    assert_eq!(base.lat_l1_miss, traced.lat_l1_miss);
    assert_eq!(base.cycle_loss, traced.cycle_loss);

    // Sampling is observation-only too.
    let mut sampled = build(3_000, 7);
    sampled.enable_sampling(500);
    assert!(sampled.run(u64::MAX / 4));
    let s = SimReport::collect(&sampled);
    assert_eq!(base.cycles, s.cycles);
    assert!(!sampled.samples().is_empty());
    let total_retired: u64 = sampled
        .samples()
        .iter()
        .flat_map(|s| s.retired_delta.iter())
        .sum();
    assert!(total_retired <= s.retired);
}

#[test]
fn every_jsonl_line_is_valid_json() {
    let (_, text, _) = traced_run(2_000, 3);
    assert!(!text.is_empty());
    assert_eq!(
        text.lines().next().unwrap(),
        bulksc_trace::jsonl_header(),
        "line 1 is the schema header"
    );
    for line in text.lines() {
        assert!(
            bulksc_trace::json::is_valid(line),
            "invalid JSONL line: {line}"
        );
    }
}

#[test]
fn cycle_loss_partitions_every_core_timeline() {
    // Seeded end-to-end check of the attribution invariant: on a full
    // multi-core run, every bulk core's cycle-loss table (including the
    // report-time tail) sums to exactly the simulated cycle count.
    let mut sys = build(3_000, 7);
    assert!(sys.run(u64::MAX / 4));
    let r = SimReport::collect(&sys);
    assert_eq!(r.cycle_loss.len(), 8, "one table per core on the cmp8");
    for (core, loss) in r.cycle_loss.iter().enumerate() {
        assert_eq!(
            loss.total(),
            r.cycles,
            "core {core}: cycle-loss total must equal run cycles ({loss:?})"
        );
        assert!(loss.get("committed") > 0, "core {core} committed work");
    }
    // Every grant produced an arbitration and a visibility sample.
    assert_eq!(r.lat_arbitration.count(), r.chunks_committed);
    assert_eq!(r.lat_commit_visible.count(), r.chunks_committed);
    assert!(r.lat_execute.count() >= r.chunks_committed);
}

#[test]
fn sample_series_carries_schema_and_gauges() {
    let mut sys = build(3_000, 7);
    sys.enable_sampling(500);
    assert!(sys.run(u64::MAX / 4));
    let series = sys.interval_series().expect("sampling enabled");
    let text = series.to_json().to_string();
    let doc = bulksc_trace::Json::parse(&text).expect("samples parse");
    assert_eq!(
        doc.get("schema").and_then(bulksc_trace::Json::as_str),
        Some("bulksc-samples")
    );
    assert_eq!(
        doc.get("version").and_then(bulksc_trace::Json::as_u64),
        Some(bulksc_trace::SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("every").and_then(bulksc_trace::Json::as_u64),
        Some(500),
        "the sampling interval is recorded in the header"
    );
    let samples = doc.get("samples").and_then(bulksc_trace::Json::as_arr);
    let first = samples
        .and_then(|s| s.first())
        .expect("at least one sample");
    assert!(
        first.get("arb_queue").is_some(),
        "arbiter queue-depth gauge"
    );
    assert!(
        first.get("squashing_cores").is_some(),
        "outstanding-squash gauge"
    );
}

#[test]
fn mid_run_sampling_does_not_inflate_the_first_interval() {
    // Regression test: `enable_sampling` used to start the series from a
    // zero baseline, so when enabled mid-run the first interval absorbed
    // the *entire* run-so-far retirement and its IPC was inflated by
    // orders of magnitude. The series must prime from the current state.
    let mut sys = build(3_000, 7);
    assert!(!sys.run(2_000), "still mid-run at cycle 2000");
    sys.enable_sampling(500);
    assert!(sys.run(u64::MAX / 4));

    let samples = sys.samples();
    assert!(!samples.is_empty(), "sampling produced intervals");
    let width = sys.config().core.retire_width as f64;
    for s in samples {
        for (core, &ipc) in s.ipc.iter().enumerate() {
            assert!(
                ipc <= width,
                "cycle {}: core {core} IPC {ipc} exceeds the retire width \
                 {width} — first-interval baseline not primed",
                s.cycle
            );
        }
        for (core, &delta) in s.retired_delta.iter().enumerate() {
            assert!(
                delta <= 500 * sys.config().core.retire_width as u64,
                "cycle {}: core {core} retired {delta} in a 500-cycle interval",
                s.cycle
            );
        }
    }
}

#[test]
fn timeline_reconstruction_matches_live_trace() {
    // End-to-end: a real traced run feeds `bulksc-analyze timeline` logic
    // and every chunk_start finds its commit, squash, or abandon.
    let (r, text, _) = traced_run(3_000, 7);
    let events = bulksc_trace::EventSource::new(text.as_bytes(), "mem").expect("trace header");
    let tl = bulksc_bench::analyze::timeline(events).expect("trace parses");
    assert!(
        tl.unmatched.is_empty(),
        "every chunk span terminates: {:?}",
        tl.unmatched
    );
    assert_eq!(
        tl.commits + tl.orphan_ends,
        r.chunks_committed,
        "every committed chunk ends a span (the first chunk per core \
         opened before the tracer attached, so it has no start)"
    );
    assert!(bulksc_trace::json::is_valid(&tl.chrome_trace));
}

#[test]
fn chrome_trace_is_valid_json_document() {
    let mut sys = build(2_000, 3);
    let chrome = ChromeTracer::shared();
    let mut trace = TraceHandle::off();
    trace.attach(chrome.clone());
    sys.set_tracer(trace);
    assert!(sys.run(u64::MAX / 4));
    let doc = chrome.borrow().finish();
    assert!(!chrome.borrow().is_empty());
    assert!(
        bulksc_trace::json::is_valid(&doc),
        "chrome trace must parse"
    );
}

#[test]
fn ring_dump_appears_in_debug_state() {
    let mut sys = build(1_000, 3);
    let ring = RingTracer::shared(32);
    let mut trace = TraceHandle::off();
    trace.attach(ring);
    sys.set_tracer(trace);
    assert!(sys.run(u64::MAX / 4));
    let dump = sys.debug_state();
    assert!(
        dump.contains("trace ring: last"),
        "debug_state carries the ring tail:\n{dump}"
    );
}
