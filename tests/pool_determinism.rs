//! The parallel sweep engine's determinism contract, end to end.
//!
//! `bulksc_bench::pool` promises that the host worker width (`--jobs`)
//! is invisible in every artifact: figure text, `results/*.json`
//! RunLogs, fuzz verdict summaries, and JSONL event traces must be
//! byte-identical whether the sweep ran on one thread or eight. These
//! tests pin that promise at the integration level — each one renders
//! the same work at two widths and compares raw bytes.
//!
//! The runs here use tiny budgets: what is under test is the engine,
//! not the simulated numbers (those are `tests/golden_figures.rs`).

use bulksc::{BulkConfig, Model, System, SystemConfig};
use bulksc_bench::fuzz::{run_sweep_on, sweep};
use bulksc_bench::{figures, pool};
use bulksc_trace::{JsonlTracer, TraceHandle};
use bulksc_workloads::{by_name, FuzzSpec, SyntheticApp, ThreadProgram};

#[test]
fn fig9_text_and_runlog_are_identical_at_any_width() {
    let serial = figures::fig9(600, 1);
    let wide = figures::fig9(600, 8);
    assert_eq!(
        serial.text, wide.text,
        "figure text must not depend on --jobs"
    );
    assert_eq!(
        serial.log.to_json().to_string(),
        wide.log.to_json().to_string(),
        "results/fig9.json must not depend on --jobs"
    );
}

#[test]
fn fuzz_verdicts_are_identical_at_any_width() {
    let entries = sweep();
    let spec = FuzzSpec {
        ops_per_thread: 60,
        ..FuzzSpec::default()
    };
    // stream-check on: the differential streaming pass rides along and
    // must be just as width-invisible as the batch verdicts.
    let serial = run_sweep_on(&entries[..3], &[1, 2], spec, None, 1, true);
    let wide = run_sweep_on(&entries[..3], &[1, 2], spec, None, 4, true);
    assert_eq!(
        serial.render(),
        wide.render(),
        "fuzz output must not depend on --jobs"
    );
    assert_eq!(serial.failures.len(), 0, "these cases certify");
    assert_eq!(serial.runs, 6);
}

/// Each pool job builds its *own* System + TraceHandle + JsonlTracer
/// (the handle is `!Send`, so the compiler already rejects sharing one);
/// the rendered streams that cross the join must still be byte-identical
/// at any width, and identical to a plain serial run.
#[test]
fn jsonl_traces_survive_the_pool_byte_for_byte() {
    fn traced_stream(seed: u64) -> String {
        let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
        cfg.budget = 800;
        let app = by_name("ocean").expect("catalog app");
        let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
            .map(|t| Box::new(SyntheticApp::new(app, t, cfg.cores, seed)) as Box<dyn ThreadProgram>)
            .collect();
        let mut sys = System::new(cfg, programs);
        let jsonl = JsonlTracer::shared();
        let mut trace = TraceHandle::off();
        trace.attach(jsonl.clone());
        sys.set_tracer(trace);
        assert!(sys.run(u64::MAX / 4), "traced run finishes");
        let text = jsonl.borrow().contents().to_string();
        text
    }

    fn pooled_streams(width: usize) -> Vec<String> {
        pool::run_all(
            width,
            [3u64, 4, 5]
                .iter()
                .map(|&seed| {
                    pool::Job::new(format!("trace seed {seed}"), move || traced_stream(seed))
                })
                .collect(),
        )
    }

    let serial: Vec<String> = [3u64, 4, 5].iter().map(|&s| traced_stream(s)).collect();
    let narrow = pooled_streams(1);
    let wide = pooled_streams(4);
    assert_eq!(serial, narrow);
    assert_eq!(narrow, wide, "trace bytes must not depend on --jobs");
    assert!(serial[0].lines().count() > 1, "streams carry real events");
}

/// The xray forensics pipeline rides the same contract: the `--xray`
/// capture stream and the rendered `bulksc-analyze xray` report must be
/// byte-identical whether the host pool is 1, 4, or 8 workers wide.
#[test]
fn xray_captures_and_reports_are_identical_at_any_width() {
    use bulksc_bench::{analyze, xray};
    use bulksc_trace::EventSource;

    fn pooled(width: usize) -> Vec<String> {
        pool::run_all(
            width,
            (0..3)
                .map(|i| pool::Job::new(format!("xray {i}"), || xray::capture_stream(700)))
                .collect(),
        )
    }

    let serial: Vec<String> = (0..3).map(|_| xray::capture_stream(700)).collect();
    let narrow = pooled(1);
    let mid = pooled(4);
    let wide = pooled(8);
    assert_eq!(serial, narrow);
    assert_eq!(narrow, mid, "xray capture bytes must not depend on --jobs");
    assert_eq!(mid, wide, "xray capture bytes must not depend on --jobs");

    let reports: Vec<String> = serial
        .iter()
        .map(|s| {
            let events = EventSource::new(s.as_bytes(), "capture").expect("capture header");
            analyze::xray(events, 10).expect("capture parses").text
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2], "xray report is deterministic");
}

#[test]
fn a_panicking_job_aborts_the_sweep_naming_the_scenario() {
    let result = std::panic::catch_unwind(|| {
        pool::run_all(
            4,
            vec![
                pool::Job::new("fig9 barnes", || 1u32),
                pool::Job::new("fig9 ocean", || panic!("simulated wedge")),
                pool::Job::new("fig9 radix", || 3u32),
            ],
        )
    });
    let payload = result.expect_err("the sweep must re-raise the job panic");
    let msg = payload
        .downcast_ref::<String>()
        .expect("pool re-raises with a String payload");
    assert!(
        msg.contains("fig9 ocean") && msg.contains("simulated wedge"),
        "panic must name the failed scenario, got: {msg}"
    );
}
