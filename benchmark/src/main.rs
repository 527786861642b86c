//! `bulksc-benchmark`: the benchmark of record for this repository.
//!
//! ```text
//! bulksc-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]
//! bulksc-benchmark [--seed S] [--seconds T] [--trace] [--smoke] [--out DIR]
//! bulksc-benchmark compare A B
//! ```
//!
//! The first form runs one workload in this process and ends stdout with
//! the one-line JSON result. The second runs every workload, each in a
//! child process of its own so peak memory is per workload. Both write a
//! stamped result file per workload to `DIR` (default `benchmark/out`),
//! which `compare` reads. Run it through `benchmark/run.sh`, which builds
//! the release binaries first; see `benchmark/README.md`.

mod analyze;
mod capture;
mod child;
mod compare;
mod fuzz;
mod harness;
mod metrics;
mod sim;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use bulksc_trace::Json;
use harness::{RunOpts, RunResult, Workload};

/// The workloads, in the order the all-workloads run takes them.
const WORKLOADS: [&str; 4] = ["paper_sweep", "fuzz", "trace_capture", "trace_analyze"];

/// The workspace-wide seed (`bulksc_bench::SEED`): the paper's
/// publication date.
const DEFAULT_SEED: u64 = bulksc_bench::SEED;

/// `schema` of a result file.
pub const RESULT_SCHEMA: &str = "bulksc-benchmark-result";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> String {
    "usage: bulksc-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]\n\
     \x20      bulksc-benchmark [--seed S] [--seconds T] [--trace] [--smoke] [--out DIR]\n\
     \x20      bulksc-benchmark compare A B\n\
     workloads: paper_sweep fuzz trace_capture trace_analyze"
        .to_string()
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants an unsigned integer".to_string())?
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds wants a positive number")?,
                )
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    a.seconds = seconds.unwrap_or(if a.smoke { 1.0 } else { 20.0 });
    Ok(a)
}

fn host() -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("rustc", env("BULKSC_BENCH_RUSTC").into()),
        ("git_rev", env("BULKSC_BENCH_REV").into()),
    ])
}

/// The stamped result file of one workload run.
fn result_file(workload: &str, a: &Args, sizes: Json, r: &RunResult) -> Json {
    let mut metrics = Json::obj([]);
    for m in &r.metrics {
        let mut entry = Json::obj([
            ("value", Json::F64(m.value)),
            ("unit", metrics::unit(m.name).into()),
        ]);
        if let Some(([q1, _, q3], n)) = m.spread {
            entry.push("p25", Json::F64(q1));
            entry.push("p75", Json::F64(q3));
            entry.push("n", n.into());
        }
        metrics.push(m.name, entry);
    }
    Json::obj([
        ("schema", RESULT_SCHEMA.into()),
        ("version", 1u64.into()),
        ("workload", workload.into()),
        ("seed", a.seed.into()),
        ("trace", a.trace.into()),
        ("seconds", Json::F64(a.seconds)),
        ("smoke", a.smoke.into()),
        ("sizes", sizes),
        ("host", host()),
        ("correct", r.correct.into()),
        ("error", r.error.as_deref().map_or(Json::Null, Json::from)),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        (
            "fails",
            Json::Obj(
                r.fails
                    .iter()
                    .map(|&(n, c)| (n.to_string(), c.into()))
                    .collect(),
            ),
        ),
        ("slices", r.slices.into()),
        ("sim_digest", format!("{:016x}", r.digest).into()),
        ("metrics", metrics),
    ])
}

fn write_result(a: &Args, workload: &str, doc: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&a.out)
        .map_err(|e| format!("cannot create {}: {e}", a.out.display()))?;
    let suffix = if a.trace { "-trace" } else { "" };
    let path = a
        .out
        .join(format!("{workload}-seed{}{suffix}.json", a.seed));
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Run one workload here and print its metrics; the exit code is 1 when
/// an output check failed.
fn run_one(workload: &str, a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let cli = exe.with_file_name("bulksc-analyze");
    let mut w: Box<dyn Workload> = match workload {
        "paper_sweep" => Box::new(sweep::PaperSweep::new(a.seed, a.smoke)),
        "fuzz" => Box::new(fuzz::Fuzz::new(a.seed, a.smoke)),
        "trace_capture" => Box::new(capture::TraceCapture::new(a.seed, a.smoke)),
        "trace_analyze" => {
            if !cli.is_file() {
                return Err(format!(
                    "{} not found: build it first (benchmark/run.sh does)",
                    cli.display()
                ));
            }
            Box::new(analyze::TraceAnalyze::new(a.seed, a.smoke, cli, &a.out))
        }
        other => unreachable!("workload {other} was validated"),
    };
    let opts = RunOpts {
        seconds: a.seconds,
        trace: a.trace,
        min_slices: if a.smoke { 1 } else { 3 },
    };
    let r = harness::run(w.as_mut(), &opts);
    let path = write_result(a, workload, &result_file(workload, a, w.sizes(), &r))?;
    drop(w);
    eprintln!("wrote {}", path.display());
    if let Some(e) = &r.error {
        eprintln!("bulksc-benchmark: {workload}: OUTPUT CHECK FAILED: {e}");
    }
    harness::print(workload, &r);
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run every workload, each in a child process of its own.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        let out = child::run(Command::new(&exe).args(["--workload", workload]).args(args))
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        // The human lines; the JSON result line is in the result file.
        for line in out.stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        if out.code != Some(0) {
            eprintln!("bulksc-benchmark: {workload} failed ({:?})", out.code);
            code = ExitCode::from(1);
        }
    }
    Ok(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::main(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))
                .map(|code| ExitCode::from(code as u8)),
            _ => Err(usage()),
        },
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse(&args).and_then(|a| match &a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&args),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bulksc-benchmark: {e}");
        ExitCode::from(2)
    })
}
