//! The metrics registry's contracts, end to end.
//!
//! 1. **A view of the component stats.** `System::metrics` reads each
//!    run's registry families out of the components' own counters, and
//!    a `--metrics` sweep merges one view per finished run; counters sum,
//!    gauges take maxima, histograms add bucket-wise — all commutative —
//!    so the accumulated deterministic snapshot is byte-identical at any
//!    `--jobs` and pinned by `tests/golden/metrics_ablations.txt`.
//! 2. **Strictly out-of-band.** A live heartbeat must not perturb anything
//!    the simulator produces: figure text, `results/*.json` RunLogs,
//!    SimReports, and JSONL event traces stay byte-identical with metrics
//!    on or off.
//!
//! Publishing is process-global (every `System::run` merges into one
//! accumulator while `live` is active), and the cargo test harness runs
//! `#[test]`s concurrently, so every test here that runs a simulation
//! serializes on one static mutex.

use std::sync::Mutex;

use bulksc::{BulkConfig, Model, SimReport, System, SystemConfig};
use bulksc_bench::figures;
use bulksc_cpu::BaselineModel;
use bulksc_metrics::{self as metrics, Counter, Hist, MetricsSnapshot};
use bulksc_trace::{JsonlTracer, TraceHandle};
use bulksc_workloads::{by_name, SyntheticApp, ThreadProgram};

/// Serializes every test that runs a simulation or touches the
/// accumulator.
static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_SLOT.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `sweep` under a live heartbeat's collection; returns its result
/// and the accumulated snapshot.
fn metered<T>(sweep: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    metrics::reset_global();
    metrics::live::activate();
    let out = sweep();
    metrics::live::deactivate();
    (out, metrics::take_global())
}

#[test]
fn registry_matches_the_golden_ablations_view_at_widths_1_and_4() {
    let _g = lock();
    let golden = include_str!("golden/metrics_ablations.txt");
    for width in [1, 4] {
        let (_, snap) = metered(|| figures::ablations(2000, width));
        assert_eq!(
            snap.deterministic_text(),
            golden,
            "ablations registry view at --jobs {width}"
        );
    }
}

/// fig9 at `width` with collection on; returns (merged deterministic
/// snapshot text, figure text, RunLog JSON).
fn fig9_with_metrics(width: usize) -> (String, String, String) {
    let (out, snap) = metered(|| figures::fig9(600, width));
    (
        snap.deterministic_text(),
        out.text,
        out.log.to_json().to_string(),
    )
}

#[test]
fn registry_merge_is_byte_identical_at_widths_1_4_8() {
    let _g = lock();
    let (snap1, fig1, log1) = fig9_with_metrics(1);
    let (snap4, fig4, log4) = fig9_with_metrics(4);
    let (snap8, fig8, log8) = fig9_with_metrics(8);

    assert_eq!(snap1, snap4, "merged registry must not depend on --jobs");
    assert_eq!(snap1, snap8, "merged registry must not depend on --jobs");
    // The sweep really collected: sim counters and the pool's own are in.
    assert!(snap1.contains("sim_chunks_committed"), "{snap1}");
    assert!(!snap1.contains("sim_chunks_committed 0\n"), "{snap1}");
    assert!(snap1.contains("pool_jobs_completed 13"), "{snap1}");

    // The figure surfaces are width-invariant too (metrics on).
    assert_eq!(fig1, fig4);
    assert_eq!(fig1, fig8);
    assert_eq!(log1, log4);
    assert_eq!(log1, log8);

    // ... and identical to a metrics-off run: out-of-band at every width.
    let off = figures::fig9(600, 4);
    assert_eq!(fig1, off.text, "figure text must not depend on --metrics");
    assert_eq!(
        log1,
        off.log.to_json().to_string(),
        "results/fig9.json must not depend on --metrics"
    );
}

#[test]
fn live_progress_tracks_a_sweep_without_touching_its_output() {
    let _g = lock();
    metrics::reset_global();
    metrics::live::activate();
    let out = figures::table3(500, 4);
    metrics::live::deactivate();
    let live = metrics::live::snapshot();
    let snap = metrics::take_global();

    assert!(live.total > 0, "sweep enqueued jobs");
    assert_eq!(live.done, live.total, "all jobs completed");
    assert_eq!(live.in_flight, 0);
    assert_eq!(live.queue_depth, 0);
    assert!(live.queue_peak >= live.total, "peak saw the full queue");
    assert_eq!(live.panicked, 0);
    assert_eq!(snap.counter(Counter::PoolJobsCompleted), live.done);
    assert_eq!(snap.hist(Hist::JobWallNs).count(), live.done);
    // The heartbeat's squash rates read the accumulated run views.
    assert_eq!(
        live.squashes_true,
        snap.counter(Counter::SquashesTrueSharing)
    );
    assert_eq!(live.squashes_alias, snap.counter(Counter::SquashesAlias));
    assert_eq!(
        live.squashes_overflow,
        snap.counter(Counter::SquashesOverflow)
    );

    let off = figures::table3(500, 4);
    assert_eq!(out.text, off.text, "live tracking is out-of-band");
}

/// One traced run: JSONL event stream, the SimReport JSON, and the run's
/// own registry view.
fn traced_run() -> (String, String, MetricsSnapshot) {
    let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
    cfg.budget = 800;
    let app = by_name("ocean").unwrap();
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| {
            Box::new(SyntheticApp::new(app, t, cfg.cores, bulksc_bench::SEED))
                as Box<dyn ThreadProgram>
        })
        .collect();
    let mut sys = System::new(cfg, programs);
    let sink = JsonlTracer::shared();
    let mut handle = TraceHandle::off();
    handle.attach(sink.clone());
    sys.set_tracer(handle);
    assert!(sys.run(u64::MAX / 4));
    let report = SimReport::collect(&sys).to_json().to_string();
    let stream = sink.borrow().contents().to_string();
    (stream, report, sys.metrics())
}

#[test]
fn traces_and_simreports_are_unchanged_metrics_on_vs_off() {
    let _g = lock();
    let (stream_off, report_off, view) = traced_run();
    let ((stream_on, report_on, _), snap) = metered(traced_run);

    assert_eq!(
        stream_off, stream_on,
        "JSONL event stream must not depend on --metrics"
    );
    assert_eq!(
        report_off, report_on,
        "SimReport JSON must not depend on --metrics"
    );
    // The metered run published exactly its own view.
    assert_eq!(snap.deterministic_text(), view.deterministic_text());
    assert!(snap.counter(Counter::ChunksCommitted) > 0);
    assert_eq!(snap.counter(Counter::RunsCompleted), 1);
    assert_eq!(
        snap.hist(Hist::ChunkInstrs).count(),
        snap.counter(Counter::ChunksCommitted),
        "one histogram sample per committed chunk"
    );
    assert_eq!(
        snap.hist(Hist::ChunkInstrs).sum(),
        snap.counter(Counter::InstrsCommitted)
    );
}

#[test]
fn disabled_registry_collects_nothing() {
    // No live heartbeat: a full simulated run must leave the accumulator
    // untouched (the free-when-off contract).
    let _g = lock();
    metrics::live::reset();
    metrics::reset_global();
    let _ = traced_run();
    let snap = metrics::take_global();
    assert!(
        snap.is_empty(),
        "a run without a heartbeat must not publish: {}",
        snap.deterministic_text()
    );
}

#[test]
fn squashed_instructions_include_scpp_epoch_squashes() {
    let _g = lock();
    let mut cfg = SystemConfig::cmp8(Model::Baseline(BaselineModel::Scpp));
    cfg.budget = 3000;
    let app = by_name("radix").unwrap();
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| {
            Box::new(SyntheticApp::new(app, t, cfg.cores, bulksc_bench::SEED))
                as Box<dyn ThreadProgram>
        })
        .collect();
    let mut sys = System::new(cfg, programs);
    assert!(sys.run(u64::MAX / 4));
    let report = SimReport::collect(&sys);
    assert_eq!(report.squashed_instrs, 1191, "SC++ radix squashes at 3000");
    assert_eq!(
        sys.metrics().counter(Counter::InstrsSquashed),
        report.squashed_instrs
    );
}
