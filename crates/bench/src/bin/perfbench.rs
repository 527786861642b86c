//! `bulksc-perf` — the tracing-tax gate.
//!
//! After one unmeasured run of each cell of `bulksc_bench::perf`, measures
//! every gated KIPS ratio (`perf::GATED_RATIOS`) as the median of
//! interleaved single-run pairs, prints it with its bound, and exits 1 if
//! a median exceeds its bound. It takes no arguments: any argument prints
//! the usage and exits 2.

use bulksc_bench::perf;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bulksc-perf (no arguments)");
        return ExitCode::from(2);
    }
    println!(
        "bulksc-perf: median of {} interleaved pairs per ratio, {} instructions/core",
        perf::RATIO_PAIRS,
        perf::BUDGET
    );
    let mut code = ExitCode::SUCCESS;
    for r in perf::run_gate() {
        println!(
            "{}: {:.2}x (median of {} interleaved pairs, bound {:.2}x)",
            r.name(),
            r.median(),
            r.pairs.len(),
            r.bound
        );
        if !r.passes() {
            eprintln!(
                "bulksc-perf: {} {:.2}x exceeds bound {:.2}x",
                r.name(),
                r.median(),
                r.bound
            );
            code = ExitCode::from(1);
        }
    }
    code
}
