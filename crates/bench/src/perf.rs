//! Host-performance benchmark suite: how fast does the *simulator* run?
//!
//! The logic behind `bulksc-perf` and the `prof`/`perf-diff` subcommands
//! of `bulksc-analyze`. A fixed matrix of pinned-seed workload×config
//! scenarios (the paper's 8-core CMP under bulk and baseline models, with
//! tracing, sampling, and the SC oracle toggled) is run N times after a
//! warmup; each rep reports simulated throughput — KIPS (thousand
//! simulated instructions per host second) and KCPS (thousand simulated
//! cycles per host second) — plus the `bulksc-prof` per-phase breakdown
//! of where the host time went. Results land in a schema-stamped
//! `results/perf.json`.
//!
//! Host timings are *not* deterministic — only the simulated side is.
//! [`perf_diff`] therefore gates on relative KIPS drops with a threshold,
//! never on exact values, and the throughput ratios CI bounds
//! ([`GATED_RATIOS`]) are measured from interleaved pairs of runs
//! ([`measure_ratio`]) rather than from two cells' medians.

use bulksc::{Model, SimReport, System, SystemConfig};
use bulksc_check::{check_events, StreamConfig};
use bulksc_prof::{self as prof, Phase, ProfReport};
use bulksc_trace::{EventSource, Json, JsonlTracer, TraceHandle, SCHEMA_VERSION};
use bulksc_workloads::{SyntheticApp, ThreadProgram};

use crate::SEED;

/// One workload×configuration cell of the perf matrix.
pub struct Scenario {
    /// Stable name carried in `perf.json` (pairing key for `perf-diff`).
    pub name: &'static str,
    /// Human-readable configuration label.
    pub config: String,
    /// Catalog application driving all 8 cores.
    pub app: &'static str,
    /// The consistency model / bulk configuration.
    pub model: Model,
    /// Directory modules (distributed-arbiter cells pair them 1:1).
    pub dirs: u32,
    /// Attach a JSONL tracer for the whole run.
    pub tracing: bool,
    /// Enable interval sampling every 256 cycles.
    pub sampling: bool,
    /// Run the `bulksc-check` SC oracle over the captured value trace
    /// (implies `tracing`).
    pub oracle: bool,
    /// Run the *streaming* windowed oracle over the captured value trace
    /// instead of the batch one (implies `tracing`): measures the
    /// bounded-memory certification path end to end, JSONL consumption
    /// included.
    pub oracle_stream: bool,
}

/// The pinned scenario matrix (10 cells). Every run in every cell uses
/// the workspace-wide [`SEED`], so the simulated side is byte-identical
/// across hosts and reps — only host time varies.
pub fn matrix() -> Vec<Scenario> {
    let cell = |name, model: Model, dirs, tracing, sampling, oracle| Scenario {
        name,
        config: model.name(),
        app: "ocean",
        model,
        dirs,
        tracing,
        sampling,
        oracle,
        oracle_stream: false,
    };
    use bulksc::BulkConfig;
    use bulksc_cpu::BaselineModel;
    vec![
        cell(
            "bsc8",
            Model::Bulk(BulkConfig::bsc_dypvt()),
            1,
            false,
            false,
            false,
        ),
        cell(
            "bsc8_arb4",
            Model::Bulk(BulkConfig::bsc_dypvt().with_arbiters(4)),
            4,
            false,
            false,
            false,
        ),
        cell(
            "bsc8_exact",
            Model::Bulk(BulkConfig::bsc_exact()),
            1,
            false,
            false,
            false,
        ),
        cell(
            "sc8",
            Model::Baseline(BaselineModel::Sc),
            1,
            false,
            false,
            false,
        ),
        cell(
            "rc8",
            Model::Baseline(BaselineModel::Rc),
            1,
            false,
            false,
            false,
        ),
        cell(
            "bsc8_trace",
            Model::Bulk(BulkConfig::bsc_dypvt()),
            1,
            true,
            false,
            false,
        ),
        cell(
            "bsc8_sample",
            Model::Bulk(BulkConfig::bsc_dypvt()),
            1,
            false,
            true,
            false,
        ),
        // The xray tax cell: same traced run as bsc8_trace but with
        // conflict attribution on, so bsc8_trace / bsc8_xray isolates
        // the attribution cost from the tracing cost.
        cell(
            "bsc8_xray",
            Model::Bulk(BulkConfig::bsc_dypvt().with_xray()),
            1,
            true,
            false,
            false,
        ),
        cell(
            "bsc8_oracle",
            Model::Bulk(BulkConfig::bsc_dypvt()),
            1,
            true,
            false,
            true,
        ),
        // Same traced run certified through the windowed streaming
        // oracle: bsc8_oracle / bsc8_oracle_stream isolates what bounded
        // memory costs (or saves) against the batch checker.
        {
            let mut m = cell(
                "bsc8_oracle_stream",
                Model::Bulk(BulkConfig::bsc_dypvt()),
                1,
                true,
                false,
                false,
            );
            m.oracle_stream = true;
            m
        },
    ]
}

/// One measured repetition.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Host nanoseconds, profiler enable→disable (setup through collect,
    /// and the oracle for oracle cells).
    pub wall_ns: u64,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instrs: u64,
    /// Thousand simulated instructions per host second.
    pub kips: f64,
    /// Thousand simulated cycles per host second.
    pub kcps: f64,
    /// Instrumented share of this rep's wall time, percent.
    pub coverage_pct: f64,
}

/// All reps of one scenario plus the merged profile.
pub struct ScenarioResult {
    /// Scenario name (pairing key).
    pub name: &'static str,
    /// Configuration label.
    pub config: String,
    /// Application name.
    pub app: &'static str,
    /// Measured repetitions, in execution order.
    pub reps: Vec<Rep>,
    /// Per-phase host time summed over all measured reps.
    pub prof: ProfReport,
}

/// Median of `values` (lower middle for even counts — deterministic).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[(v.len() - 1) / 2]
}

impl ScenarioResult {
    fn kips_list(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.kips).collect()
    }

    /// Median KIPS over the measured reps (the `perf-diff` gate metric).
    pub fn median_kips(&self) -> f64 {
        median(&self.kips_list())
    }

    /// Slowest rep's KIPS.
    pub fn min_kips(&self) -> f64 {
        self.kips_list()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Fastest rep's KIPS.
    pub fn max_kips(&self) -> f64 {
        self.kips_list().iter().copied().fold(0.0, f64::max)
    }

    /// Median KCPS over the measured reps.
    pub fn median_kcps(&self) -> f64 {
        median(&self.reps.iter().map(|r| r.kcps).collect::<Vec<_>>())
    }

    /// Instrumented share of the summed wall time, percent.
    pub fn coverage_pct(&self) -> f64 {
        self.prof.coverage_pct()
    }
}

/// Build the scenario's system (one `SyntheticApp` thread per core).
fn build_system(s: &Scenario, budget: u64) -> System {
    let app = bulksc_workloads::by_name(s.app).expect("catalog app");
    let mut cfg = SystemConfig::cmp8(s.model.clone());
    cfg.dirs = s.dirs;
    cfg.budget = budget;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(app, t, cfg.cores, SEED)) as Box<dyn ThreadProgram>)
        .collect();
    System::new(cfg, programs)
}

/// One unmeasured execution (warmup: page in code, warm allocator).
fn run_once(s: &Scenario, budget: u64) {
    let mut sys = build_system(s, budget);
    assert!(
        sys.run(u64::MAX / 4),
        "{} warmup run did not finish:\n{}",
        s.name,
        sys.debug_state()
    );
    let _ = SimReport::collect(&sys);
}

/// Run one scenario: `warmup` unmeasured executions, then `reps` measured
/// ones with the profiler attached.
///
/// # Panics
///
/// Panics if a run fails to finish or (for oracle cells) the captured
/// value trace fails SC certification — a perf run must never paper over
/// a correctness bug.
pub fn run_scenario(s: &Scenario, budget: u64, warmup: u32, reps: u32) -> ScenarioResult {
    assert!(reps > 0, "at least one measured rep");
    for _ in 0..warmup {
        run_once(s, budget);
    }
    let mut out = ScenarioResult {
        name: s.name,
        config: s.config.clone(),
        app: s.app,
        reps: Vec::new(),
        prof: ProfReport::default(),
    };
    for _ in 0..reps {
        prof::enable();
        let (mut sys, jsonl) = {
            let _setup = prof::scope(Phase::Setup);
            let mut sys = build_system(s, budget);
            let jsonl = if s.tracing {
                let sink = JsonlTracer::shared();
                let mut handle = TraceHandle::off();
                handle.attach(sink.clone());
                sys.set_tracer(handle);
                Some(sink)
            } else {
                None
            };
            if s.sampling {
                sys.enable_sampling(256);
            }
            (sys, jsonl)
        };
        assert!(
            sys.run(u64::MAX / 4),
            "{} measured run did not finish:\n{}",
            s.name,
            sys.debug_state()
        );
        let report = SimReport::collect(&sys);
        if s.oracle || s.oracle_stream {
            let _oracle = prof::scope(Phase::Oracle);
            let sink = jsonl.as_ref().expect("oracle implies tracing").borrow();
            let events = EventSource::new(sink.contents().as_bytes(), "perf trace")
                .expect("perf trace has a schema header");
            let cfg = if s.oracle_stream {
                StreamConfig::windowed(4096)
            } else {
                StreamConfig::batch()
            };
            check_events(events, cfg).expect("perf run is SC");
        }
        let pr = prof::disable();
        let secs = pr.wall_ns as f64 / 1e9;
        out.reps.push(Rep {
            wall_ns: pr.wall_ns,
            cycles: report.cycles,
            instrs: report.retired,
            kips: report.retired as f64 / secs / 1e3,
            kcps: report.cycles as f64 / secs / 1e3,
            coverage_pct: pr.coverage_pct(),
        });
        out.prof.merge(&pr);
    }
    out
}

/// Run a whole scenario matrix on the [`crate::pool`] worker pool: one
/// job per scenario, `jobs` host threads. Warmup and measured reps stay
/// *serial inside each job* so medians are computed over the same rep
/// structure as a serial suite; the profiler is per-thread
/// (`bulksc-prof` keeps thread-local state), so each worker's
/// enable/disable brackets see only its own scenario's phases. Results
/// come back in matrix order regardless of completion order.
///
/// Note: running scenarios concurrently makes them compete for host
/// cores, which can depress absolute KIPS. Simulated results are
/// width-independent; host timings never were deterministic (see module
/// docs). Use `--jobs 1` when an undisturbed absolute measurement
/// matters more than suite wall-clock.
pub fn run_suite(
    cells: &[Scenario],
    budget: u64,
    warmup: u32,
    reps: u32,
    jobs: usize,
) -> Vec<ScenarioResult> {
    crate::pool::run_all(
        jobs,
        cells
            .iter()
            .map(|s| {
                crate::pool::Job::new(format!("perf {}", s.name), move || {
                    let r = run_scenario(s, budget, warmup, reps);
                    eprintln!(
                        "  {} done: median {:.1} KIPS ({:.1}% profiled)",
                        r.name,
                        r.median_kips(),
                        r.coverage_pct()
                    );
                    r
                })
            })
            .collect(),
    )
}

/// The `results/perf.json` document.
pub fn perf_json(
    results: &[ScenarioResult],
    ratios: &[RatioResult],
    label: &str,
    budget: u64,
    warmup: u32,
    reps: u32,
) -> Json {
    let mut doc = Json::obj([
        ("schema", "bulksc-perf".into()),
        ("version", SCHEMA_VERSION.into()),
        ("label", label.into()),
        ("budget", budget.into()),
        ("seed", SEED.into()),
        ("warmup", Json::U64(warmup as u64)),
        ("reps", Json::U64(reps as u64)),
    ]);
    let mut arr = Vec::new();
    for r in results {
        let mut sj = Json::obj([("name", r.name.into())]);
        sj.push("config", r.config.as_str().into());
        sj.push("app", r.app.into());
        sj.push("median_kips", Json::F64(r.median_kips()));
        sj.push("min_kips", Json::F64(r.min_kips()));
        sj.push("max_kips", Json::F64(r.max_kips()));
        sj.push("median_kcps", Json::F64(r.median_kcps()));
        sj.push("coverage_pct", Json::F64(r.coverage_pct()));
        let mut reps_arr = Vec::new();
        for rep in &r.reps {
            reps_arr.push(Json::obj([
                ("wall_ns", rep.wall_ns.into()),
                ("cycles", rep.cycles.into()),
                ("instrs", rep.instrs.into()),
                ("kips", Json::F64(rep.kips)),
                ("kcps", Json::F64(rep.kcps)),
                ("coverage_pct", Json::F64(rep.coverage_pct)),
            ]));
        }
        sj.push("runs", Json::Arr(reps_arr));
        let wall = r.prof.wall_ns.max(1);
        let mut phases = Vec::new();
        for p in &r.prof.phases {
            phases.push(Json::obj([
                ("phase", p.phase.name().into()),
                ("count", p.count.into()),
                ("total_ns", p.total_ns.into()),
                ("self_ns", p.self_ns.into()),
                (
                    "share_pct",
                    Json::F64(100.0 * p.self_ns as f64 / wall as f64),
                ),
            ]));
        }
        sj.push("phases", Json::Arr(phases));
        arr.push(sj);
    }
    doc.push("scenarios", Json::Arr(arr));
    let ratios = ratios
        .iter()
        .map(|r| {
            let mut rj = Json::obj([("name", r.name().into())]);
            rj.push("median", Json::F64(r.median()));
            rj.push(
                "pairs",
                Json::Arr(r.pairs.iter().map(|&x| Json::F64(x)).collect()),
            );
            rj
        })
        .collect();
    doc.push("ratios", Json::Arr(ratios));
    doc
}

/// One-screen summary table of a finished suite.
pub fn render_summary(results: &[ScenarioResult]) -> String {
    let mut t = bulksc_stats::Table::new(
        [
            "scenario",
            "config",
            "median KIPS",
            "min",
            "max",
            "KCPS",
            "prof cover %",
        ]
        .map(str::to_string)
        .to_vec(),
    );
    for r in results {
        t.row(vec![
            r.name.to_string(),
            r.config.clone(),
            format!("{:.1}", r.median_kips()),
            format!("{:.1}", r.min_kips()),
            format!("{:.1}", r.max_kips()),
            format!("{:.1}", r.median_kcps()),
            format!("{:.1}", r.coverage_pct()),
        ]);
    }
    t.to_string()
}

/// Parse a `perf.json` document, checking the schema stamp. Error
/// messages name the offending file and both versions.
pub fn load_perf(text: &str, origin: &str) -> Result<Json, String> {
    let doc = Json::parse(text).ok_or_else(|| format!("{origin}: artifact is not valid JSON"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "bulksc-perf" {
        return Err(format!(
            "{origin}: not a bulksc-perf artifact (schema {schema:?}, expected \"bulksc-perf\"); \
             regenerate it with `bulksc-perf`"
        ));
    }
    let version = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
    if !bulksc_trace::schema_supported(version) {
        return Err(format!(
            "{origin}: schema version {version} outside supported range \
             {}..={SCHEMA_VERSION}; regenerate it with a current `bulksc-perf`",
            bulksc_trace::MIN_SCHEMA_VERSION
        ));
    }
    Ok(doc)
}

fn scenario_kips(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for s in doc.get("scenarios").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
        let kips = s.get("median_kips").and_then(Json::as_f64).unwrap_or(0.0);
        out.push((name.to_string(), kips));
    }
    out
}

/// One scenario's throughput change between two perf artifacts.
#[derive(Debug)]
pub struct PerfDelta {
    /// Scenario name.
    pub name: String,
    /// Median KIPS in the old artifact.
    pub old_kips: f64,
    /// Median KIPS in the new artifact.
    pub new_kips: f64,
    /// Relative change in percent (negative = slower).
    pub delta_pct: f64,
}

/// The outcome of comparing two perf artifacts.
#[derive(Debug)]
pub struct PerfDiff {
    /// Every paired scenario, artifact order.
    pub rows: Vec<PerfDelta>,
    /// Paired scenarios slower than the threshold allows.
    pub regressions: Vec<String>,
    /// Scenarios present in only one artifact.
    pub unpaired: Vec<String>,
}

impl PerfDiff {
    /// True if no regression and no pairing drift.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty() && self.unpaired.is_empty()
    }

    /// Human-readable comparison.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut t = bulksc_stats::Table::new(
            ["scenario", "old KIPS", "new KIPS", "delta %"]
                .map(str::to_string)
                .to_vec(),
        );
        for d in &self.rows {
            let flag = if self.regressions.contains(&d.name) {
                "  << REGRESSION"
            } else {
                ""
            };
            t.row(vec![
                d.name.clone(),
                format!("{:.1}", d.old_kips),
                format!("{:.1}", d.new_kips),
                format!("{:+.1}{flag}", d.delta_pct),
            ]);
        }
        let mut out = t.to_string();
        for u in &self.unpaired {
            out.push_str(&format!("  unpaired scenario: {u}\n"));
        }
        out.push_str(&format!(
            "{} scenarios compared, {} regressions beyond {threshold_pct}% , {} unpaired\n",
            self.rows.len(),
            self.regressions.len(),
            self.unpaired.len()
        ));
        out
    }
}

/// Compare two perf artifacts: a paired scenario regresses when its new
/// median KIPS is more than `threshold_pct` percent below its old one.
/// Speedups never fail; pairing drift (scenario added/removed) does.
pub fn perf_diff(
    old_text: &str,
    new_text: &str,
    old_origin: &str,
    new_origin: &str,
    threshold_pct: f64,
) -> Result<PerfDiff, String> {
    let old = load_perf(old_text, old_origin)?;
    let new = load_perf(new_text, new_origin)?;
    let old_k = scenario_kips(&old);
    let new_k = scenario_kips(&new);
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    let mut unpaired = Vec::new();
    for (name, old_kips) in &old_k {
        let Some((_, new_kips)) = new_k.iter().find(|(n, _)| n == name) else {
            unpaired.push(format!("{name} ({old_origin} only)"));
            continue;
        };
        let delta_pct = if *old_kips == 0.0 {
            0.0
        } else {
            100.0 * (new_kips - old_kips) / old_kips
        };
        if delta_pct < -threshold_pct {
            regressions.push(name.clone());
        }
        rows.push(PerfDelta {
            name: name.clone(),
            old_kips: *old_kips,
            new_kips: *new_kips,
            delta_pct,
        });
    }
    for (name, _) in &new_k {
        if !old_k.iter().any(|(n, _)| n == name) {
            unpaired.push(format!("{name} ({new_origin} only)"));
        }
    }
    Ok(PerfDiff {
        rows,
        regressions,
        unpaired,
    })
}

/// Render a perf artifact's per-scenario phase breakdowns as text.
pub fn prof_report_text(text: &str, origin: &str) -> Result<String, String> {
    let doc = load_perf(text, origin)?;
    let label = doc.get("label").and_then(Json::as_str).unwrap_or("?");
    let budget = doc.get("budget").and_then(Json::as_u64).unwrap_or(0);
    let mut out = format!("perf suite {label:?}: budget {budget} instructions/core\n");
    for s in doc.get("scenarios").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
        let kips = s.get("median_kips").and_then(Json::as_f64).unwrap_or(0.0);
        let cover = s.get("coverage_pct").and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "\n== {name}: median {kips:.1} KIPS, {cover:.1}% profiled ==\n"
        ));
        let mut t = bulksc_stats::Table::new(
            ["phase", "scopes", "total ms", "self ms", "share %"]
                .map(str::to_string)
                .to_vec(),
        );
        for p in s.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
            t.row(vec![
                p.get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                p.get("count")
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    .to_string(),
                format!(
                    "{:.3}",
                    p.get("total_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6
                ),
                format!(
                    "{:.3}",
                    p.get("self_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6
                ),
                format!(
                    "{:.1}",
                    p.get("share_pct").and_then(Json::as_f64).unwrap_or(0.0)
                ),
            ]);
        }
        out.push_str(&t.to_string());
    }
    Ok(out)
}

/// Render a perf artifact as Chrome trace-event JSON (one lane per
/// scenario, one `"X"` duration event per phase, laid out cumulatively by
/// self time — a flame-chart of where host time went; `ts` is µs).
pub fn prof_chrome(text: &str, origin: &str) -> Result<String, String> {
    let doc = load_perf(text, origin)?;
    let mut events = Vec::new();
    for s in doc.get("scenarios").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
        let mut ts_us = 0u64;
        for p in s.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
            let phase = p.get("phase").and_then(Json::as_str).unwrap_or("?");
            let self_ns = p.get("self_ns").and_then(Json::as_u64).unwrap_or(0);
            let dur_us = self_ns / 1_000;
            events.push(
                Json::obj([
                    ("name", phase.into()),
                    ("cat", "prof".into()),
                    ("ph", "X".into()),
                    ("ts", ts_us.into()),
                    ("dur", dur_us.into()),
                    ("pid", Json::U64(0)),
                    ("tid", name.into()),
                    (
                        "args",
                        Json::obj([
                            ("self_ns", self_ns.into()),
                            ("count", p.get("count").cloned().unwrap_or(Json::U64(0))),
                        ]),
                    ),
                ])
                .to_string(),
            );
            ts_us += dur_us;
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    Ok(out)
}

/// The scenario pairs whose KIPS ratio CI bounds, as (numerator,
/// denominator): the tracing tax, and the xray tax (both cells trace; only
/// the second computes conflict attribution, so the ratio is the
/// attribution cost alone).
pub const GATED_RATIOS: [(&str, &str); 2] = [("bsc8", "bsc8_trace"), ("bsc8_trace", "bsc8_xray")];

/// Interleaved pairs measured for each gated ratio.
pub const RATIO_PAIRS: u32 = 9;

/// A KIPS ratio measured from interleaved pairs of single-rep runs.
pub struct RatioResult {
    /// Numerator scenario.
    pub num: &'static str,
    /// Denominator scenario.
    pub den: &'static str,
    /// `num` KIPS over `den` KIPS, one per pair, in run order.
    pub pairs: Vec<f64>,
}

impl RatioResult {
    /// `num/den`, the name `--max-ratio` matches.
    pub fn name(&self) -> String {
        format!("{}/{}", self.num, self.den)
    }

    /// Median of the per-pair ratios (the gated value).
    pub fn median(&self) -> f64 {
        median(&self.pairs)
    }
}

/// Measure `num` KIPS over `den` KIPS as `pairs` back-to-back single-rep
/// pairs on this thread, alternating which cell runs first. Host speed
/// drifts over seconds to minutes, so the two runs of a pair see nearly
/// the same host, and the median of per-pair ratios shrugs off a slow
/// stretch that skews a ratio of two cells' medians.
pub fn measure_ratio(num: &Scenario, den: &Scenario, budget: u64, pairs: u32) -> RatioResult {
    let kips = |s: &Scenario| run_scenario(s, budget, 0, 1).reps[0].kips;
    let pairs = (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let a = kips(num);
                a / kips(den)
            } else {
                let b = kips(den);
                kips(num) / b
            }
        })
        .collect();
    RatioResult {
        num: num.name,
        den: den.name,
        pairs,
    }
}

/// Measure every [`GATED_RATIOS`] pair of `cells`, [`RATIO_PAIRS`] pairs
/// each.
///
/// # Panics
///
/// Panics if `cells` lacks a gated scenario.
pub fn measure_gated_ratios(cells: &[Scenario], budget: u64) -> Vec<RatioResult> {
    let cell = |name: &str| {
        cells
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("gated scenario {name} is not in the matrix"))
    };
    GATED_RATIOS
        .iter()
        .map(|&(num, den)| measure_ratio(cell(num), cell(den), budget, RATIO_PAIRS))
        .collect()
}

/// Parse a `--max-ratio` bound `NUM/DEN=X` into its scenario names and a
/// positive bound.
pub fn parse_ratio_bound(spec: &str) -> Option<(String, String, f64)> {
    let (pair, bound) = spec.split_once('=')?;
    let (num, den) = pair.split_once('/')?;
    let bound: f64 = bound.parse().ok()?;
    (!num.is_empty() && !den.is_empty() && bound > 0.0).then(|| (num.into(), den.into(), bound))
}

/// The median of the interleaved pairs `bulksc-perf` measured for `num`
/// KIPS over `den` KIPS, with the number of pairs.
pub fn kips_ratio(text: &str, origin: &str, num: &str, den: &str) -> Result<(f64, usize), String> {
    let doc = load_perf(text, origin)?;
    let name = format!("{num}/{den}");
    let ratios = doc.get("ratios").and_then(Json::as_arr).unwrap_or(&[]);
    let r = ratios
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(&name))
        .ok_or_else(|| {
            let have: Vec<&str> = ratios
                .iter()
                .filter_map(|r| r.get("name").and_then(Json::as_str))
                .collect();
            format!("{origin}: no measured ratio {name} (measured: {have:?})")
        })?;
    let median = r
        .get("median")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{origin}: ratio {name} has no median"))?;
    let pairs = r.get("pairs").and_then(Json::as_arr).map_or(0, |p| p.len());
    Ok((median, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny but real suite run shared by several tests (one scenario).
    fn tiny_result(name: &'static str) -> ScenarioResult {
        let s = matrix().into_iter().find(|s| s.name == name).unwrap();
        run_scenario(&s, 1_000, 0, 2)
    }

    #[test]
    fn matrix_is_stable_and_unique() {
        let m = matrix();
        assert_eq!(m.len(), 10);
        let mut names: Vec<&str> = m.iter().map(|s| s.name).collect();
        assert!(names.contains(&"bsc8") && names.contains(&"bsc8_trace"));
        assert!(names.contains(&"bsc8_xray"));
        assert!(names.contains(&"bsc8_oracle_stream"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "scenario names are the pairing keys");
        for s in &m {
            assert!(
                !(s.oracle || s.oracle_stream) || s.tracing,
                "{}: oracle implies tracing",
                s.name
            );
        }
    }

    #[test]
    fn measured_scenario_reports_throughput_and_coverage() {
        let r = tiny_result("bsc8");
        assert_eq!(r.reps.len(), 2);
        for rep in &r.reps {
            assert!(rep.kips > 0.0 && rep.kcps > 0.0);
            assert!(rep.cycles > 0 && rep.instrs > 0);
            assert!(
                rep.coverage_pct >= 95.0,
                "phase self times must cover ≥95% of the rep wall: {}",
                rep.coverage_pct
            );
        }
        assert!(r.coverage_pct() >= 95.0);
        assert!(r.prof.phase(Phase::Run).is_some(), "step loop profiled");
        assert!(r.prof.phase(Phase::Execute).is_some(), "cores profiled");
        assert!(r.min_kips() <= r.median_kips());
        assert!(r.median_kips() <= r.max_kips());
    }

    #[test]
    fn traced_scenario_profiles_trace_emission() {
        let r = tiny_result("bsc8_trace");
        assert!(
            r.prof.phase(Phase::TraceEmit).is_some(),
            "tracing cell must attribute trace-emission time"
        );
    }

    #[test]
    fn oracle_scenario_profiles_the_oracle() {
        let r = tiny_result("bsc8_oracle");
        let oracle = r.prof.phase(Phase::Oracle).expect("oracle profiled");
        assert!(oracle.self_ns > 0);
    }

    #[test]
    fn streaming_oracle_scenario_certifies_and_profiles() {
        let r = tiny_result("bsc8_oracle_stream");
        let oracle = r.prof.phase(Phase::Oracle).expect("oracle profiled");
        assert!(oracle.self_ns > 0);
    }

    #[test]
    fn perf_json_round_trips_and_loads() {
        let r = tiny_result("bsc8");
        let doc = perf_json(&[r], &[], "test", 1_000, 0, 2);
        let text = doc.to_string();
        let loaded = load_perf(&text, "mem").expect("loads back");
        let kips = scenario_kips(&loaded);
        assert_eq!(kips.len(), 1);
        assert_eq!(kips[0].0, "bsc8");
        assert!(kips[0].1 > 0.0);
        // Shares in the artifact sum to ≥95% of wall per scenario.
        let s = &loaded.get("scenarios").unwrap().as_arr().unwrap()[0];
        let share_sum: f64 = s
            .get("phases")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.get("share_pct").and_then(Json::as_f64).unwrap_or(0.0))
            .sum();
        assert!(share_sum >= 95.0, "share sum {share_sum}");
        assert!(share_sum <= 101.0, "share sum {share_sum}");
    }

    #[test]
    fn load_perf_errors_name_the_file_and_versions() {
        let e = load_perf("{\"schema\":\"nope\"}", "results/perf.json").unwrap_err();
        assert!(e.contains("results/perf.json"), "{e}");
        assert!(e.contains("bulksc-perf"), "{e}");
        let e = load_perf(
            "{\"schema\":\"bulksc-perf\",\"version\":1}",
            "old/perf.json",
        )
        .unwrap_err();
        assert!(e.contains("old/perf.json"), "{e}");
        assert!(
            e.contains('1') && e.contains(&SCHEMA_VERSION.to_string()),
            "{e}"
        );
    }

    /// A synthetic perf doc with the given (name, median_kips) cells.
    fn synthetic(cells: &[(&str, f64)]) -> String {
        let mut doc = Json::obj([
            ("schema", "bulksc-perf".into()),
            ("version", SCHEMA_VERSION.into()),
            ("label", "synthetic".into()),
            ("budget", Json::U64(1000)),
            ("reps", Json::U64(1)),
        ]);
        let mut arr = Vec::new();
        for (name, kips) in cells {
            let mut sj = Json::obj([("median_kips", Json::F64(*kips))]);
            sj.push("name", (*name).into());
            sj.push(
                "phases",
                Json::Arr(vec![Json::obj([
                    ("phase", "step_loop".into()),
                    ("count", Json::U64(1)),
                    ("total_ns", Json::U64(5_000_000)),
                    ("self_ns", Json::U64(5_000_000)),
                    ("share_pct", Json::F64(100.0)),
                ])]),
            );
            arr.push(sj);
        }
        doc.push("scenarios", Json::Arr(arr));
        doc.to_string()
    }

    #[test]
    fn perf_diff_gates_on_injected_kips_regression() {
        let old = synthetic(&[("bsc8", 100.0), ("sc8", 50.0)]);
        let slow = synthetic(&[("bsc8", 60.0), ("sc8", 50.0)]);
        // 40% drop breaches a 10% threshold ...
        let d = perf_diff(&old, &slow, "old", "new", 10.0).unwrap();
        assert!(!d.clean());
        assert_eq!(d.regressions, vec!["bsc8".to_string()]);
        assert!(d.render(10.0).contains("REGRESSION"));
        // ... is forgiven by a 50% threshold ...
        assert!(perf_diff(&old, &slow, "old", "new", 50.0).unwrap().clean());
        // ... and a self-diff is always clean at 0%.
        assert!(perf_diff(&old, &old, "old", "old", 0.0).unwrap().clean());
        // Speedups never regress.
        let fast = synthetic(&[("bsc8", 500.0), ("sc8", 50.0)]);
        assert!(perf_diff(&old, &fast, "old", "new", 0.0).unwrap().clean());
    }

    #[test]
    fn perf_diff_flags_pairing_drift() {
        let old = synthetic(&[("bsc8", 100.0), ("sc8", 50.0)]);
        let new = synthetic(&[("bsc8", 100.0), ("rc8", 70.0)]);
        let d = perf_diff(&old, &new, "old", "new", 0.0).unwrap();
        assert!(!d.clean());
        assert_eq!(d.unpaired.len(), 2);
    }

    /// A perf doc carrying one measured ratio per (num, den, pairs).
    fn with_ratios(ratios: &[(&'static str, &'static str, &[f64])]) -> String {
        let ratios: Vec<RatioResult> = ratios
            .iter()
            .map(|&(num, den, pairs)| RatioResult {
                num,
                den,
                pairs: pairs.to_vec(),
            })
            .collect();
        perf_json(&[], &ratios, "synthetic", 1_000, 0, 1).to_string()
    }

    #[test]
    fn trace_overhead_is_the_base_over_traced_ratio() {
        let doc = with_ratios(&[("bsc8", "bsc8_trace", &[2.2, 1.8, 2.0])]);
        let (ratio, pairs) = kips_ratio(&doc, "mem", "bsc8", "bsc8_trace").unwrap();
        assert!((ratio - 2.0).abs() < 1e-9, "the median of the pairs");
        assert_eq!(pairs, 3);
        let e = kips_ratio(&doc, "mem", "bsc8_trace", "bsc8").unwrap_err();
        assert!(
            e.contains("bsc8_trace/bsc8") && e.contains("bsc8/bsc8_trace"),
            "{e}"
        );
    }

    #[test]
    fn xray_overhead_is_the_traced_over_xray_ratio() {
        let doc = with_ratios(&[
            ("bsc8", "bsc8_trace", &[2.0]),
            ("bsc8_trace", "bsc8_xray", &[1.02, 0.98, 1.12, 1.01]),
        ]);
        let (num, den, bound) = parse_ratio_bound("bsc8_trace/bsc8_xray=1.10").unwrap();
        assert_eq!(
            (num.as_str(), den.as_str(), bound),
            ("bsc8_trace", "bsc8_xray", 1.10)
        );
        let (ratio, pairs) = kips_ratio(&doc, "mem", &num, &den).unwrap();
        assert!((ratio - 1.01).abs() < 1e-9, "lower middle of an even count");
        assert_eq!(pairs, 4);
        for bad in ["bsc8/bsc8_trace", "bsc8=3", "/bsc8=3", "bsc8/x=0", "a/b=x"] {
            assert!(parse_ratio_bound(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn gated_ratios_are_measured_pair_by_pair() {
        let m = matrix();
        let cell = |name| m.iter().find(|s| s.name == name).unwrap();
        let r = measure_ratio(cell("bsc8"), cell("bsc8_trace"), 1_000, 3);
        assert_eq!(r.name(), "bsc8/bsc8_trace");
        assert_eq!(r.pairs.len(), 3);
        assert!(r.pairs.iter().all(|&x| x > 0.0 && x.is_finite()));
        for (num, den) in GATED_RATIOS {
            assert!(m.iter().any(|s| s.name == num) && m.iter().any(|s| s.name == den));
        }
        let text = perf_json(&[], &[r], "t", 1_000, 0, 1).to_string();
        let (ratio, pairs) = kips_ratio(&text, "mem", "bsc8", "bsc8_trace").unwrap();
        assert!(ratio > 0.0);
        assert_eq!(pairs, 3);
    }

    #[test]
    fn xray_cell_simulates_exactly_what_the_traced_cell_does() {
        // Attribution reads simulation state but never writes it: the
        // xray cell's simulated cycles and instructions match bsc8_trace.
        let traced = tiny_result("bsc8_trace");
        let xrayed = tiny_result("bsc8_xray");
        assert_eq!(traced.reps[0].cycles, xrayed.reps[0].cycles);
        assert_eq!(traced.reps[0].instrs, xrayed.reps[0].instrs);
    }

    #[test]
    fn prof_outputs_render_from_an_artifact() {
        let r = tiny_result("bsc8");
        let text = perf_json(&[r], &[], "test", 1_000, 0, 2).to_string();
        let report = prof_report_text(&text, "mem").unwrap();
        assert!(
            report.contains("bsc8") && report.contains("step_loop"),
            "{report}"
        );
        let chrome = prof_chrome(&text, "mem").unwrap();
        assert!(bulksc_trace::json::is_valid(&chrome));
    }
}
