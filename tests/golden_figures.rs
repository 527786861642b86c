//! Golden-figure regression tests.
//!
//! Each test renders a paper figure/table through the library API
//! (`bulksc_bench::figures`) at a small pinned budget and compares the
//! full text — every header, table cell, and paper-shape line — against
//! a committed fixture in `tests/golden/`. Any behavioural drift in the
//! simulator, the workload generator, the statistics layer, or the table
//! renderer shows up as a byte diff here, with the figure name and the
//! first differing line in the failure message.
//!
//! # Blessing new goldens
//!
//! When an intentional change shifts the numbers, regenerate the
//! fixtures and review the diff like any other code change:
//!
//! ```text
//! BULKSC_BLESS=1 cargo test --test golden_figures
//! git diff tests/golden/        # inspect what moved, then commit
//! ```
//!
//! The budget is deliberately tiny (2 000 instructions/core — these are
//! regression anchors, not paper-quality numbers) and the seed is the
//! workspace-wide `bulksc_bench::SEED`, so the run is fast and the text
//! is identical on every host and at every `--jobs` width.

use bulksc_bench::figures;

/// Pinned budget for golden runs: small enough for CI, large enough
/// that every figure row sees real commits, squashes, and traffic.
const BUDGET: u64 = 2_000;

/// Host worker width. Any value produces identical text (that is the
/// pool's determinism contract, enforced by `tests/pool_determinism.rs`);
/// 2 exercises the parallel path even on a single-core host.
const JOBS: usize = 2;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn compare_or_bless(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BULKSC_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {}: {e}\n\
             (run `BULKSC_BLESS=1 cargo test --test golden_figures` to create it)",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    let diff_at = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .map(|i| {
            format!(
                "first differing line ({}):\n  expected: {}\n  actual:   {}",
                i + 1,
                expected.lines().nth(i).unwrap(),
                actual.lines().nth(i).unwrap()
            )
        })
        .unwrap_or_else(|| {
            format!(
                "one output is a prefix of the other \
                 (expected {} lines, actual {} lines)",
                expected.lines().count(),
                actual.lines().count()
            )
        });
    panic!(
        "{name} drifted from its golden fixture.\n{diff_at}\n\
         If the change is intentional, re-bless with \
         `BULKSC_BLESS=1 cargo test --test golden_figures` and commit the diff."
    );
}

#[test]
fn fig9_matches_golden() {
    let out = figures::fig9(BUDGET, JOBS);
    compare_or_bless("fig9.txt", &out.text);
}

#[test]
fn table3_matches_golden() {
    let out = figures::table3(BUDGET, JOBS);
    compare_or_bless("table3.txt", &out.text);
}

#[test]
fn ablations_match_golden() {
    let out = figures::ablations(BUDGET, JOBS);
    compare_or_bless("ablations.txt", &out.text);
}

/// The xray forensics report, end to end: capture the pinned `--xray`
/// run and render it through `bulksc-analyze xray`'s library entry
/// point. Any drift in attribution (aggressor choice, witness lines,
/// alias/true-sharing classification, cascade depths) shows up here as
/// a byte diff. The budget is larger than the figure goldens' because
/// squashes — the whole subject of the report — only start appearing at
/// realistic chunk counts.
#[test]
fn xray_report_matches_golden() {
    use bulksc_bench::{analyze, xray};
    use bulksc_trace::EventSource;
    let stream = xray::capture_stream(25_000);
    let events = EventSource::new(stream.as_bytes(), "capture").expect("capture header");
    let report = analyze::xray(events, 10).expect("capture stream parses");
    assert!(
        report.attributed > 0,
        "the pinned capture attributes conflicts"
    );
    compare_or_bless("xray.txt", &report.text);
}
