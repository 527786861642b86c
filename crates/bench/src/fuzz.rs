//! Differential SC fuzzer: random workloads × machine configs, every
//! execution certified by the `bulksc-check` oracle.
//!
//! Each case runs one randomized program set (unique store values, plain
//! reorderable loads, a contended address pool — see
//! [`bulksc_workloads::fuzzprog`]) under a sweep of BulkSC configurations
//! plus the SC baseline, with value tracing on, and asserts three things:
//!
//! 1. the oracle certifies the trace (po ∪ rf ∪ co ∪ fr is acyclic);
//! 2. the witness replay's final memory matches the simulator's value
//!    store word-for-word;
//! 3. the witness, projected to a per-core access schedule and replayed
//!    on the atomic reference executor, reproduces the same final memory
//!    — so the claimed interleaving is *reachable*, not just consistent.
//!
//! The sweep deliberately includes configurations that stress the
//! squash/retry machinery: tiny chunks, a small aliasing-prone signature,
//! a tiny L1 (cache-displacement pressure on speculative lines), and the
//! distributed arbiter. RC is intentionally absent — it is not SC and
//! the oracle would (correctly) flag it.
//!
//! `--model=tso` switches to the TSO sweep: the TSO baseline certified by
//! the TSO oracle (the reference-replay check is skipped there — a TSO
//! witness can order a forwarded load before its store's global
//! visibility, which no atomic interleaving reproduces), plus SC and
//! BulkSC machines certified against TSO. In *both* sweeps every
//! SC-certified case is re-checked under the TSO oracle: SC ⊂ TSO, so a
//! trace the strict model accepts that the relaxed one rejects is an
//! oracle bug, caught per case.
//!
//! Cases are independent, so the seed×config matrix runs on the
//! [`crate::pool`] worker pool (`--jobs N` / `BULKSC_JOBS`). Each case
//! builds its own `System` and `TraceHandle` inside its job and renders
//! its verdict line there; lines are printed post-join in sweep order, so
//! stdout is byte-identical at any job count (as long as no `--time-box`
//! cuts the sweep short — the time box is checked at job start, and which
//! cases it skips depends on wall-clock timing).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::pool::{self, Job};
use bulksc::{BulkConfig, Model, System, SystemConfig};
use bulksc_check::{CheckError, CollectingTracer, MemoryModel, ScCertificate, ValueTrace};
use bulksc_cpu::BaselineModel;
use bulksc_mem::CacheConfig;
use bulksc_sig::{Addr, SignatureConfig};
use bulksc_trace::TraceHandle;
use bulksc_workloads::{fuzz_programs, run_in_order, FuzzSpec};

/// One configuration of the sweep: a model plus the system-level knobs
/// that go with it.
pub struct SweepEntry {
    /// Display name for reports.
    pub name: &'static str,
    /// Consistency machinery under test.
    pub model: Model,
    /// Directory modules (>1 exercises the distributed arbiter).
    pub dirs: u32,
    /// Private L1 geometry.
    pub l1: CacheConfig,
    /// Store-buffer depth override (`None` keeps the core default);
    /// depth 1 turns the TSO baseline into a drain-heavy near-SC machine.
    pub store_buffer: Option<u32>,
    /// Memory model the oracle certifies this entry's traces against.
    pub oracle: MemoryModel,
}

/// The default configuration sweep.
pub fn sweep() -> Vec<SweepEntry> {
    let entry = |name, model| SweepEntry {
        name,
        model,
        dirs: 1,
        l1: CacheConfig::l1_default(),
        store_buffer: None,
        oracle: MemoryModel::Sc,
    };
    vec![
        entry("SC", Model::Baseline(BaselineModel::Sc)),
        entry("BSCbase", Model::Bulk(BulkConfig::bsc_base())),
        entry("BSCdypvt", Model::Bulk(BulkConfig::bsc_dypvt())),
        entry("BSCstpvt", Model::Bulk(BulkConfig::bsc_stpvt())),
        entry("BSCexact", Model::Bulk(BulkConfig::bsc_exact())),
        entry(
            "BSCdypvt/chunk64",
            Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(64)),
        ),
        entry(
            "BSCbase/chunk16",
            Model::Bulk(BulkConfig::bsc_base().with_chunk_size(16)),
        ),
        entry(
            "BSCbase/sig256",
            Model::Bulk(BulkConfig {
                sig: SignatureConfig::with_total_bits(256),
                ..BulkConfig::bsc_base()
            }),
        ),
        entry(
            "BSCdypvt/norsig",
            Model::Bulk(BulkConfig::bsc_dypvt().without_rsig()),
        ),
        SweepEntry {
            name: "BSCdypvt/arb4",
            model: Model::Bulk(BulkConfig::bsc_dypvt().with_arbiters(4)),
            dirs: 4,
            l1: CacheConfig::l1_default(),
            store_buffer: None,
            oracle: MemoryModel::Sc,
        },
        SweepEntry {
            name: "BSCbase/tinyL1",
            model: Model::Bulk(BulkConfig::bsc_base()),
            dirs: 1,
            l1: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
            },
            store_buffer: None,
            oracle: MemoryModel::Sc,
        },
    ]
}

/// The `--model=tso` sweep: the TSO baseline (including under cache
/// pressure, which stresses the load-revalidation path) certified by the
/// TSO oracle, plus SC-enforcing machines certified against TSO — the
/// monotonicity direction SC ⊂ TSO, as machine configurations.
pub fn tso_sweep() -> Vec<SweepEntry> {
    let entry = |name, model| SweepEntry {
        name,
        model,
        dirs: 1,
        l1: CacheConfig::l1_default(),
        store_buffer: None,
        oracle: MemoryModel::Tso,
    };
    vec![
        entry("TSO", Model::Baseline(BaselineModel::Tso)),
        SweepEntry {
            name: "TSO/tinyL1",
            model: Model::Baseline(BaselineModel::Tso),
            dirs: 1,
            l1: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
            },
            store_buffer: None,
            oracle: MemoryModel::Tso,
        },
        SweepEntry {
            name: "TSO/sb1",
            model: Model::Baseline(BaselineModel::Tso),
            dirs: 1,
            l1: CacheConfig::l1_default(),
            store_buffer: Some(1),
            oracle: MemoryModel::Tso,
        },
        entry("SC", Model::Baseline(BaselineModel::Sc)),
        entry("BSCdypvt", Model::Bulk(BulkConfig::bsc_dypvt())),
    ]
}

/// The sweep for an oracle model: SC fuzzes the BulkSC matrix, TSO
/// fuzzes the TSO baseline differentially.
pub fn sweep_for(model: MemoryModel) -> Vec<SweepEntry> {
    match model {
        MemoryModel::Sc => sweep(),
        MemoryModel::Tso => tso_sweep(),
    }
}

/// Statistics of one certified case.
pub struct CaseStats {
    /// Accesses in the trace.
    pub accesses: usize,
    /// Reads whose rf source was ambiguous (edges skipped).
    pub ambiguous: usize,
    /// Chunk-lifecycle events captured alongside.
    pub lifecycle: usize,
}

/// The machine of one fuzz case, untraced and not yet run: `entry`'s
/// model and knobs on `spec.threads` cores, running `seed`'s programs.
pub fn build_case(entry: &SweepEntry, spec: FuzzSpec, seed: u64) -> System {
    let mut cfg = SystemConfig::cmp8(entry.model.clone());
    cfg.cores = spec.threads;
    cfg.dirs = entry.dirs;
    cfg.l1 = entry.l1;
    if let Some(sb) = entry.store_buffer {
        cfg.core.store_buffer = sb;
    }
    cfg.budget = u64::MAX;
    System::new(cfg, fuzz_programs(spec, seed))
}

/// Run one fuzz case under one sweep entry with value tracing on and
/// return the captured trace plus the live system for cross-checks.
pub fn run_traced(entry: &SweepEntry, spec: FuzzSpec, seed: u64) -> (ValueTrace, System) {
    let mut sys = build_case(entry, spec, seed);
    let tracer = CollectingTracer::shared();
    let mut handle = TraceHandle::off();
    handle.attach(tracer.clone());
    sys.set_tracer(handle);
    assert!(
        sys.run(50_000_000),
        "fuzz seed {seed} under {} did not finish:\n{}",
        entry.name,
        sys.debug_state()
    );
    let trace = tracer.borrow_mut().take();
    (trace, sys)
}

/// Certify one case end-to-end. `Err` carries a human-readable failure
/// report (oracle violation or differential mismatch). With
/// `stream_check` the case additionally runs one windowed check (window
/// 256), which must certify and agree with the batch certificate on the
/// access count and the final memory, so every sampled trace
/// differentially tests the bounded-memory checker against the batch
/// one.
pub fn certify_case(
    entry: &SweepEntry,
    spec: FuzzSpec,
    seed: u64,
    stream_check: bool,
) -> Result<CaseStats, String> {
    let (trace, sys) = run_traced(entry, spec, seed);
    if trace.accesses.is_empty() {
        return Err(format!(
            "{} seed {seed}: value trace is empty — tracing not wired?",
            entry.name
        ));
    }

    // 1. The oracle must certify the trace against the entry's model.
    let cert: ScCertificate = trace.verify_model(entry.oracle).map_err(|e| match e {
        CheckError::Violation(v) => {
            format!(
                "{} seed {seed}: {} violation\n{}",
                entry.name,
                entry.oracle.name(),
                v.report
            )
        }
        CheckError::Malformed(m) => {
            format!("{} seed {seed}: malformed trace: {m}", entry.name)
        }
    })?;

    // 1b. Model monotonicity: SC ⊂ TSO, so a trace the SC oracle just
    // certified must also certify under the weaker TSO axioms. A failure
    // here is an oracle bug, not a machine bug.
    if entry.oracle == MemoryModel::Sc {
        trace.verify_model(MemoryModel::Tso).map_err(|e| {
            format!(
                "{} seed {seed}: SC-certified trace failed to TSO-certify \
                 (SC ⊂ TSO broken):\n{e}",
                entry.name
            )
        })?;
    }

    // 2. Witness-replay memory must equal the simulator's value store.
    for (&addr, &value) in &cert.final_memory {
        let got = sys.values().read(Addr(addr));
        if got != value {
            return Err(format!(
                "{} seed {seed}: witness final memory [{addr:#x}]={value:#x} \
                 but the simulator's value store holds {got:#x}",
                entry.name
            ));
        }
    }

    // 3. The witness must be *reachable*: replay its per-core access
    // schedule on the atomic reference executor. Only meaningful for SC
    // witnesses — a TSO witness may order a forwarded load before its
    // own store's global visibility, which no atomic interleaving can
    // reproduce, so TSO entries rely on checks 1, 2, and 4 instead.
    if entry.oracle == MemoryModel::Sc {
        let order: Vec<u32> = cert
            .witness
            .iter()
            .flatten()
            .map(|&i| trace.accesses[i].core)
            .collect();
        let replay = run_in_order(fuzz_programs(spec, seed), &order, u64::MAX / 2);
        if !replay.finished {
            return Err(format!(
                "{} seed {seed}: reference replay of the witness did not finish",
                entry.name
            ));
        }
        for (&addr, &value) in &cert.final_memory {
            let got = replay.memory.get(&Addr(addr)).copied().unwrap_or(0);
            if got != value {
                return Err(format!(
                    "{} seed {seed}: witness final memory [{addr:#x}]={value:#x} \
                     but the reference replay produced {got:#x}",
                    entry.name
                ));
            }
        }
    }

    // 4. Optional streaming differential: the bounded-memory checker
    // must agree with the batch verdict on this same trace.
    if stream_check {
        use bulksc_check::{check_stream, StreamConfig};
        let win = check_stream(
            &trace.accesses,
            &trace.lifecycle,
            StreamConfig::windowed(256).with_model(entry.oracle),
        )
        .map_err(|e| {
            format!(
                "{} seed {seed}: windowed streaming check failed where batch \
                 certified:\n{e}",
                entry.name
            )
        })?;
        if win.final_memory != cert.final_memory || win.accesses != cert.accesses {
            return Err(format!(
                "{} seed {seed}: windowed streaming final memory diverges from batch",
                entry.name
            ));
        }
    }

    Ok(CaseStats {
        accesses: cert.accesses,
        ambiguous: cert.ambiguous_reads,
        lifecycle: trace.lifecycle.len(),
    })
}

/// Outcome of a sweep.
pub struct FuzzOutcome {
    /// Cases run to completion.
    pub runs: usize,
    /// Total traced accesses certified.
    pub accesses: usize,
    /// Failure reports (empty on a clean sweep).
    pub failures: Vec<String>,
    /// True if the time box expired before the seed list was exhausted.
    pub timed_out: bool,
    /// Per-case verdict lines (ok/FAIL), in sweep order — exactly what a
    /// serial sweep would have printed as it went.
    pub lines: Vec<String>,
}

impl FuzzOutcome {
    /// The one-line sweep summary.
    pub fn summary(&self) -> String {
        format!(
            "fuzz: {} runs, {} accesses certified, {} failures{}",
            self.runs,
            self.accesses,
            self.failures.len(),
            if self.timed_out {
                " (time box hit)"
            } else {
                ""
            }
        )
    }

    /// The full sweep stdout: every verdict line plus the summary. This
    /// is the byte-determinism surface `tests/pool_determinism.rs` pins.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }
}

/// One case's result, as computed inside a pool job.
enum CaseResult {
    Ok {
        line: String,
        accesses: usize,
    },
    Fail {
        line: String,
        report: String,
    },
    /// Skipped: the time box had expired when the job started.
    TimedOut,
}

/// Sweep `seeds` × `entries` with `spec`-shaped programs on `jobs` worker
/// threads. The `time_box` is checked as each case *starts*: cases that
/// begin after it expires are skipped and the outcome marked timed-out.
pub fn run_sweep_on(
    entries: &[SweepEntry],
    seeds: &[u64],
    spec: FuzzSpec,
    time_box: Option<Duration>,
    jobs: usize,
    stream_check: bool,
) -> FuzzOutcome {
    let start = Instant::now();
    let expired = AtomicBool::new(false);
    let cases: Vec<(u64, &SweepEntry)> = seeds
        .iter()
        .flat_map(|&seed| entries.iter().map(move |e| (seed, e)))
        .collect();

    let results: Vec<CaseResult> = pool::run_all(
        jobs,
        cases
            .iter()
            .map(|&(seed, entry)| {
                let expired = &expired;
                Job::new(format!("{} seed {seed}", entry.name), move || {
                    if let Some(limit) = time_box {
                        if expired.load(Ordering::SeqCst) || start.elapsed() >= limit {
                            expired.store(true, Ordering::SeqCst);
                            return CaseResult::TimedOut;
                        }
                    }
                    match certify_case(entry, spec, seed, stream_check) {
                        Ok(stats) => CaseResult::Ok {
                            line: format!(
                                "ok   {:<18} seed {:>4}  {:>5} accesses, {} ambiguous, \
                                 {} lifecycle events",
                                entry.name, seed, stats.accesses, stats.ambiguous, stats.lifecycle
                            ),
                            accesses: stats.accesses,
                        },
                        Err(report) => CaseResult::Fail {
                            line: format!("FAIL {:<18} seed {:>4}\n{report}", entry.name, seed),
                            report,
                        },
                    }
                })
            })
            .collect(),
    );

    let mut out = FuzzOutcome {
        runs: 0,
        accesses: 0,
        failures: Vec::new(),
        timed_out: false,
        lines: Vec::new(),
    };
    for result in results {
        match result {
            CaseResult::Ok { line, accesses } => {
                out.runs += 1;
                out.accesses += accesses;
                out.lines.push(line);
            }
            CaseResult::Fail { line, report } => {
                out.runs += 1;
                out.lines.push(line);
                out.failures.push(report);
            }
            CaseResult::TimedOut => out.timed_out = true,
        }
    }
    out
}

/// Sweep `seeds` × [`sweep_for`]`(model)` — the CLI's sweep.
pub fn run_sweep(
    seeds: &[u64],
    spec: FuzzSpec,
    time_box: Option<Duration>,
    jobs: usize,
    stream_check: bool,
    model: MemoryModel,
) -> FuzzOutcome {
    run_sweep_on(&sweep_for(model), seeds, spec, time_box, jobs, stream_check)
}

/// Parsed `bulksc-fuzz` command line.
pub struct FuzzArgs {
    /// Seeds to sweep (defaults to 0..8 when none given).
    pub seeds: Vec<u64>,
    /// Program shape.
    pub spec: FuzzSpec,
    /// Wall-clock budget for the whole sweep.
    pub time_box: Option<Duration>,
    /// Host worker threads (`--jobs`); `None` = pool default.
    pub jobs: Option<usize>,
    /// Heartbeat interval in milliseconds (`--metrics[=MS]`); `None` =
    /// metrics off.
    pub metrics: Option<u64>,
    /// Differentially run the streaming oracle against the batch one on
    /// every sampled trace (`--stream-check`).
    pub stream_check: bool,
    /// Which sweep to run (`--model[=sc|tso]`): SC fuzzes the BulkSC
    /// matrix, TSO fuzzes the TSO baseline against the TSO oracle.
    pub model: MemoryModel,
}

/// What the argument list asked for.
pub enum FuzzCli {
    /// Run the sweep with these settings.
    Run(FuzzArgs),
    /// `--help`: print usage, exit 0.
    Help,
}

/// Parse `bulksc-fuzz` arguments (everything after the program name).
///
/// The guest-core count is `--cores N`. The pre-PR-5 `--threads` alias
/// was removed after its deprecation window; it now errors with a pointer
/// to `--cores`. `Err` carries a usage message.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<FuzzCli, String> {
    let mut seeds: Vec<u64> = Vec::new();
    let mut spec = FuzzSpec::default();
    let mut time_box: Option<Duration> = None;
    let mut jobs: Option<usize> = None;
    let mut metrics: Option<u64> = None;
    let mut stream_check = false;
    let mut model = MemoryModel::Sc;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            args.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs an integer value"))
        };
        match arg.as_str() {
            "--seeds" => seeds.extend(0..num("--seeds")?),
            "--time-box" => time_box = Some(Duration::from_secs(num("--time-box")?)),
            "--ops" => spec.ops_per_thread = num("--ops")? as u32,
            "--cores" => spec.threads = num("--cores")? as u32,
            "--threads" => {
                return Err("--threads was removed: it set *guest* cores, use --cores; \
                     host-side parallelism is --jobs"
                    .to_string())
            }
            "--jobs" => match num("--jobs")? {
                n if n >= 1 => jobs = Some(n as usize),
                _ => return Err("--jobs wants a positive integer".to_string()),
            },
            s if s == "--metrics" || s.starts_with("--metrics=") => {
                metrics = crate::heartbeat::parse_metrics_flag(std::iter::once(s.to_string()))?;
            }
            "--stream-check" => stream_check = true,
            s if s == "--model" || s.starts_with("--model=") => {
                let v = match s.strip_prefix("--model=") {
                    Some(v) => v.to_string(),
                    None => args
                        .next()
                        .ok_or_else(|| "--model needs a value (sc or tso)".to_string())?,
                };
                model = MemoryModel::parse(&v)
                    .ok_or_else(|| format!("--model wants sc or tso, got {v:?}"))?;
            }
            "--help" | "-h" => return Ok(FuzzCli::Help),
            s => match s.parse() {
                Ok(seed) => seeds.push(seed),
                Err(_) => return Err(format!("unrecognized argument {s:?}")),
            },
        }
    }
    if seeds.is_empty() {
        seeds.extend(0..8);
    }
    Ok(FuzzCli::Run(FuzzArgs {
        seeds,
        spec,
        time_box,
        jobs,
        metrics,
        stream_check,
        model,
    }))
}

fn usage() {
    eprintln!(
        "usage: bulksc-fuzz [SEED...] [--seeds N] [--time-box SECS] [--ops N] [--cores N] \
         [--jobs N] [--metrics[=MS]] [--stream-check] [--model[=sc|tso]]\n\
         \n\
         Runs random programs under every BulkSC configuration and the SC\n\
         baseline, certifying each execution with the bulksc-check oracle\n\
         and cross-checking final memory against a reference replay of the\n\
         SC witness. Default: seeds 0..8.\n\
         \n\
         --cores N      guest cores running the fuzz program (default 4)\n\
         --jobs N       host worker threads for the sweep (default:\n\
         \x20              BULKSC_JOBS or the available parallelism)\n\
         --metrics[=MS] heartbeat progress on stderr every MS milliseconds\n\
         \x20              (default 1000) + results/fuzz.metrics.{{jsonl,prom}}\n\
         --stream-check also run the windowed streaming oracle on every\n\
         \x20              trace and fail on any divergence from the batch\n\
         \x20              verdict\n\
         --model=MODEL  sc (default) sweeps the BulkSC matrix under the SC\n\
         \x20              oracle; tso sweeps the TSO baseline (plus SC and\n\
         \x20              BulkSC machines) under the TSO oracle. Every\n\
         \x20              SC-certified case is also cross-checked against\n\
         \x20              TSO (SC \u{2282} TSO)\n\
         \n\
         exit status: 0 all certified, 1 violation found, 2 bad usage"
    );
}

/// CLI entry point (`bulksc-fuzz`). Returns the process exit code.
pub fn main() -> i32 {
    let parsed = match parse_args(std::env::args().skip(1)) {
        Ok(FuzzCli::Help) => {
            usage();
            return 0;
        }
        Ok(FuzzCli::Run(a)) => a,
        Err(msg) => {
            eprintln!("bulksc-fuzz: {msg}");
            usage();
            return 2;
        }
    };
    let jobs = parsed.jobs.unwrap_or_else(pool::default_width);

    let heartbeat = parsed
        .metrics
        .map(|ms| crate::heartbeat::Heartbeat::start("fuzz", ms));
    let outcome = run_sweep(
        &parsed.seeds,
        parsed.spec,
        parsed.time_box,
        jobs,
        parsed.stream_check,
        parsed.model,
    );
    if let Some(hb) = heartbeat {
        hb.finish();
    }
    print!("{}", outcome.render());
    if outcome.failures.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run_of(cli: Result<FuzzCli, String>) -> FuzzArgs {
        match cli {
            Ok(FuzzCli::Run(a)) => a,
            Ok(FuzzCli::Help) => panic!("expected a run, got help"),
            Err(e) => panic!("expected a run, got error: {e}"),
        }
    }

    #[test]
    fn a_quick_case_certifies_under_bulk_and_sc() {
        let spec = FuzzSpec {
            threads: 2,
            ops_per_thread: 40,
            pool_words: 8,
            rmw_permille: 30,
        };
        for entry in sweep() {
            if !matches!(entry.name, "SC" | "BSCbase" | "BSCbase/chunk16") {
                continue;
            }
            let stats = certify_case(&entry, spec, 1, true).unwrap_or_else(|e| {
                panic!("{e}");
            });
            assert!(stats.accesses > 0);
        }
    }

    /// Seeded TSO corpus: the tso sweep certifies across a pinned seed
    /// set, with the streaming differential on — and since the sweep
    /// includes SC and BulkSC entries certified under the TSO oracle,
    /// and `certify_case` re-checks every SC-certified case against
    /// TSO, this pins model monotonicity over a real fuzz corpus.
    #[test]
    fn tso_sweep_certifies_the_seeded_corpus() {
        let spec = FuzzSpec {
            threads: 2,
            ops_per_thread: 40,
            pool_words: 8,
            rmw_permille: 30,
        };
        for entry in tso_sweep() {
            assert_eq!(entry.oracle, MemoryModel::Tso);
            for seed in [1u64, 7, 13] {
                let stats = certify_case(&entry, spec, seed, true).unwrap_or_else(|e| {
                    panic!("{e}");
                });
                assert!(stats.accesses > 0);
            }
        }
    }

    #[test]
    fn model_flag_picks_the_sweep() {
        let a = run_of(parse_args(args(&["--model", "tso", "5"])));
        assert_eq!(a.model, MemoryModel::Tso);
        assert_eq!(a.seeds, vec![5], "flag must not eat the positional seed");
        let b = run_of(parse_args(args(&["--model=tso"])));
        assert_eq!(b.model, MemoryModel::Tso);
        let c = run_of(parse_args(args(&[])));
        assert_eq!(c.model, MemoryModel::Sc);
        assert!(parse_args(args(&["--model=pso"])).is_err());
        assert!(parse_args(args(&["--model"])).is_err());
        assert_eq!(sweep_for(MemoryModel::Sc).len(), sweep().len());
        assert!(sweep_for(MemoryModel::Tso).iter().any(|e| e.name == "TSO"));
    }

    #[test]
    fn cores_flag_sets_guest_cores() {
        let a = run_of(parse_args(args(&["--cores", "2", "--ops", "50", "3"])));
        assert_eq!(a.spec.threads, 2);
        assert_eq!(a.spec.ops_per_thread, 50);
        assert_eq!(a.seeds, vec![3]);
        assert!(a.jobs.is_none());
        assert!(a.metrics.is_none());
    }

    #[test]
    fn threads_flag_is_gone_and_the_error_names_cores() {
        let err = match parse_args(args(&["--threads", "6"])) {
            Err(e) => e,
            Ok(_) => panic!("--threads must be rejected"),
        };
        assert!(err.contains("--threads was removed"), "{err}");
        assert!(
            err.contains("--cores"),
            "error must point at --cores: {err}"
        );
    }

    #[test]
    fn metrics_flag_parses_and_rejects_garbage() {
        let a = run_of(parse_args(args(&["--metrics", "3"])));
        assert_eq!(a.metrics, Some(crate::heartbeat::DEFAULT_EVERY_MS));
        // Bare `--metrics` must not eat the positional seed.
        assert_eq!(a.seeds, vec![3]);
        let b = run_of(parse_args(args(&["--metrics=250"])));
        assert_eq!(b.metrics, Some(250));
        assert!(parse_args(args(&["--metrics=junk"])).is_err());
    }

    #[test]
    fn jobs_flag_is_host_side_and_separate_from_cores() {
        let a = run_of(parse_args(args(&["--jobs", "4", "--cores", "2"])));
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.spec.threads, 2);
        assert!(parse_args(args(&["--jobs", "0"])).is_err());
    }

    #[test]
    fn stream_check_flag_parses_and_defaults_off() {
        let a = run_of(parse_args(args(&["--stream-check", "5"])));
        assert!(a.stream_check);
        assert_eq!(a.seeds, vec![5], "flag must not eat the positional seed");
        let b = run_of(parse_args(args(&[])));
        assert!(!b.stream_check);
    }

    #[test]
    fn default_seeds_and_bad_args() {
        let a = run_of(parse_args(args(&[])));
        assert_eq!(a.seeds, (0..8).collect::<Vec<u64>>());
        assert!(matches!(parse_args(args(&["--help"])), Ok(FuzzCli::Help)));
        assert!(parse_args(args(&["--cores"])).is_err());
        assert!(parse_args(args(&["--bogus"])).is_err());
        assert!(parse_args(args(&["--seeds", "x"])).is_err());
    }

    #[test]
    fn sweep_lines_render_in_order() {
        let spec = FuzzSpec {
            threads: 2,
            ops_per_thread: 30,
            pool_words: 8,
            rmw_permille: 30,
        };
        let entries = sweep();
        let two = &entries[..2]; // SC, BSCbase
        let out = run_sweep_on(two, &[1, 2], spec, None, 2, false);
        assert_eq!(out.runs, 4);
        assert!(out.failures.is_empty());
        assert_eq!(out.lines.len(), 4);
        // Sweep order: seed-major, entry-minor.
        assert!(out.lines[0].contains("SC") && out.lines[0].contains("seed    1"));
        assert!(out.lines[1].contains("BSCbase"));
        assert!(out.lines[2].contains("seed    2"));
        assert!(out.render().ends_with("0 failures\n"));
    }
}
