//! `bulksc-perf` — host-performance benchmark suite.
//!
//! Runs the pinned scenario matrix (see `bulksc_bench::perf`) with the
//! `bulksc-prof` self-profiler attached, prints a summary table plus
//! per-phase breakdowns, and writes the schema-stamped `results/perf.json`.
//!
//! ```text
//! bulksc-perf [--label NAME] [--reps N] [--warmup N] [--budget N]
//!             [--out PATH] [--fast] [--jobs N] [--metrics[=MS]]
//! ```
//!
//! `--fast` is the CI smoke setting: small budget, 2 reps. `--jobs N`
//! runs scenarios on N host worker threads (reps stay serial within each
//! scenario; concurrent scenarios share host cores, so prefer `--jobs 1`
//! for undisturbed absolute numbers). After the suite, the gated KIPS
//! ratios (`perf::GATED_RATIOS`) are measured on this thread alone from
//! interleaved single-rep pairs and written under `ratios`, where
//! `bulksc-analyze prof --max-ratio` reads them. Exit code 0 on success,
//! 2 on usage errors.

use bulksc_bench::heartbeat::Heartbeat;
use bulksc_bench::perf::{
    matrix, measure_gated_ratios, perf_json, prof_report_text, render_summary, run_suite,
};
use bulksc_bench::{budget_from_env, pool};

fn fail_usage(msg: &str) -> ! {
    eprintln!("bulksc-perf: {msg}");
    eprintln!(
        "usage: bulksc-perf [--label NAME] [--reps N] [--warmup N] [--budget N] \
         [--out PATH] [--fast] [--jobs N] [--metrics[=MS]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut label = "seed".to_string();
    let mut reps: u32 = 5;
    let mut warmup: u32 = 1;
    let mut budget: u64 = budget_from_env().min(10_000);
    let mut out = "results/perf.json".to_string();
    let mut jobs: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| fail_usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--label" => label = value("--label"),
            "--reps" => {
                reps = value("--reps")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--reps needs an integer"))
            }
            "--warmup" => {
                warmup = value("--warmup")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--warmup needs an integer"))
            }
            "--budget" => {
                budget = value("--budget")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--budget needs an integer"))
            }
            "--out" => out = value("--out"),
            "--fast" => {
                budget = 2_000;
                reps = 2;
                warmup = 1;
            }
            "--jobs" => match value("--jobs").parse::<usize>() {
                Ok(n) if n >= 1 => jobs = Some(n),
                _ => fail_usage("--jobs needs a positive integer"),
            },
            // Validated (and re-read) by Heartbeat::maybe_start below.
            s if s == "--metrics" || s.starts_with("--metrics=") => {}
            other => fail_usage(&format!("unknown argument {other:?}")),
        }
    }
    if reps == 0 {
        fail_usage("--reps must be at least 1");
    }
    let jobs = jobs.unwrap_or_else(pool::default_width);

    let cells = matrix();
    println!(
        "bulksc-perf: {} scenarios, budget {budget} instructions/core, \
         {warmup} warmup + {reps} measured reps each, {jobs} host job(s)",
        cells.len()
    );
    let heartbeat = Heartbeat::maybe_start("perf");
    let results = run_suite(&cells, budget, warmup, reps, jobs);
    let ratios = measure_gated_ratios(&cells, budget);
    if let Some(hb) = heartbeat {
        hb.finish();
    }

    println!("\n{}", render_summary(&results));
    let doc = perf_json(&results, &ratios, &label, budget, warmup, reps);
    let text = doc.to_string();
    match prof_report_text(&text, "<memory>") {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("bulksc-perf: internal: {e}"),
    }
    for r in &ratios {
        println!(
            "{}: {:.2}x (median of {} interleaved pairs)",
            r.name(),
            r.median(),
            r.pairs.len()
        );
    }

    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("bulksc-perf: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&out, format!("{text}\n")) {
        eprintln!("bulksc-perf: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
