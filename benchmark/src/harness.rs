//! The measurement loop every workload shares.
//!
//! A run sets up [`SETUP_REPS`] times (reporting the median), then drains
//! slices until `--seconds` have passed: each slice is a fixed list of
//! operations handed to at most two pool workers, a closed loop with no
//! schedule. The traced run follows every untraced slice with the same
//! slice again with `bulksc-prof` on inside every operation, so the
//! profiler's cost is measured pairwise and never leaks into the
//! end-to-end numbers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bulksc_bench::pool::{self, Job};
use bulksc_prof::{Phase, ProfReport};
use bulksc_trace::Json;

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Which core model an operation simulated. The profiler's `execute`
/// phase covers both node types, so its time is split by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// A BulkSC configuration.
    Bulk,
    /// SC, RC, TSO or SC++.
    Baseline,
    /// No simulation (a `bulksc-analyze` child process).
    Host,
}

/// Why an operation produced no output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    /// A simulation hit its cycle cap without finishing.
    CapHit,
    /// The operation panicked (caught; the run goes on).
    Panic,
}

/// One timed operation.
pub struct Op {
    /// Host seconds it took.
    pub wall: f64,
    pub fail: Option<Fail>,
    pub family: Family,
    /// What the profiler saw, in a traced slice.
    pub prof: Option<ProfReport>,
}

/// Run `f` as one operation: timed, panics caught, the profiler on inside
/// it when `traced`.
pub fn timed<T>(family: Family, traced: bool, f: impl FnOnce() -> T) -> (Op, Option<T>) {
    if traced {
        bulksc_prof::enable();
    }
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let wall = t0.elapsed().as_secs_f64();
    let prof = traced.then(bulksc_prof::disable);
    let fail = out.is_err().then_some(Fail::Panic);
    (
        Op {
            wall,
            fail,
            family,
            prof,
        },
        out.ok(),
    )
}

/// Pool width: at most two workers, never more than the host has.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Drain `jobs` on `width` pool workers; returns the wall time and the
/// results in job order.
pub fn drain<T: Send>(width: usize, jobs: Vec<Job<'_, T>>) -> (f64, Vec<T>) {
    let t0 = Instant::now();
    let out = pool::run_all(width, jobs);
    (t0.elapsed().as_secs_f64(), out)
}

/// What one slice measured.
pub struct Slice {
    /// Host seconds for the whole slice.
    pub wall: f64,
    /// Workers that drained it.
    pub workers: usize,
    pub ops: Vec<Op>,
    /// Per-layer values measured in this slice (rates, shares); a run
    /// reports their median over its untraced slices.
    pub values: Vec<(&'static str, f64)>,
    /// Exact counts; a run reports those of slice 0.
    pub counts: Vec<(&'static str, f64)>,
    /// FNV-1a over the slice's exact outputs.
    pub digest: u64,
}

impl Slice {
    pub fn new(wall: f64, workers: usize) -> Slice {
        Slice {
            wall,
            workers,
            ops: Vec::new(),
            values: Vec::new(),
            counts: Vec::new(),
            digest: 0,
        }
    }
}

/// A workload: its inputs come from the seed alone.
pub trait Workload {
    /// Size parameters, stamped into the result file.
    fn sizes(&self) -> Json;
    /// Build inputs and warm up. Called [`SETUP_REPS`] times; each call
    /// redoes the whole set-up.
    fn setup(&mut self) -> Result<(), String>;
    /// Run slice `k` (the same `k` always means the same inputs). `Err`
    /// means an output check failed.
    fn slice(&mut self, k: usize, traced: bool) -> Result<Slice, String>;
    /// Counts measured during set-up.
    fn setup_counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Peak resident set of whatever did the work, in MiB: by default this
    /// process's high-water mark.
    fn peak_rss_mib(&self) -> f64 {
        bulksc_bench::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
    }
}

/// FNV-1a, folding one 64-bit word at a time.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Options of one run.
pub struct RunOpts {
    pub seconds: f64,
    pub trace: bool,
    /// Fewest untraced slices a run measures, whatever `seconds` says.
    pub min_slices: usize,
}

/// Quartiles and sample count of the samples a median was taken over.
pub type Spread = ([f64; 3], usize);

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Where the value is a median.
    pub spread: Option<Spread>,
}

/// Everything a run measured.
pub struct RunResult {
    pub correct: bool,
    pub error: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `fail.*` counts by cause, in both runs.
    pub fails: Vec<(&'static str, u64)>,
    pub slices: usize,
    pub digest: u64,
    pub metrics: Vec<Metric>,
}

/// Failure causes; the set-up reports `liveness` and `verdict`.
const FAILS: [&str; 4] = [
    "fail.cap_hits",
    "fail.panics",
    "fail.liveness",
    "fail.verdict",
];

/// Set up, measure, and reduce to the metrics of `opts.trace`'s table.
pub fn run(w: &mut dyn Workload, opts: &RunOpts) -> RunResult {
    let mut setup = Vec::new();
    let mut untraced: Vec<Slice> = Vec::new();
    let mut traced: Vec<Slice> = Vec::new();
    let mut error = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        if let Err(e) = w.setup() {
            error = Some(format!("set-up failed: {e}"));
            break;
        }
        setup.push(t0.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let mut k = 0;
    while error.is_none()
        && (untraced.len() < opts.min_slices || start.elapsed().as_secs_f64() < opts.seconds)
    {
        match w.slice(k, false) {
            Ok(s) => untraced.push(s),
            Err(e) => error = Some(format!("slice {k}: {e}")),
        }
        if opts.trace && error.is_none() {
            match w.slice(k, true) {
                Ok(s) if s.digest != untraced[k].digest => {
                    error = Some(format!(
                        "slice {k}: profiling changed the simulated outputs (digest {:016x} \
                         traced vs {:016x} untraced)",
                        s.digest, untraced[k].digest
                    ))
                }
                Ok(s) => traced.push(s),
                Err(e) => error = Some(format!("traced slice {k}: {e}")),
            }
        }
        k += 1;
    }

    let all_ops = || untraced.iter().chain(&traced).flat_map(|s| &s.ops);
    let attempted = all_ops().count() as u64;
    let failed = all_ops().filter(|o| o.fail.is_some()).count() as u64;
    let mut counts: BTreeMap<&str, f64> = w.setup_counts().into_iter().collect();
    if let Some(first) = untraced.first() {
        counts.extend(first.counts.iter().copied());
    }
    for (name, kind) in [(FAILS[0], Fail::CapHit), (FAILS[1], Fail::Panic)] {
        *counts.entry(name).or_default() +=
            all_ops().filter(|o| o.fail == Some(kind)).count() as f64;
    }
    let fails = FAILS.map(|name| (name, counts.get(name).copied().unwrap_or(0.0) as u64));
    let metrics = if opts.trace {
        per_layer(&untraced, &traced, &counts)
    } else {
        end_to_end(w, &setup, &untraced, &counts)
    };
    RunResult {
        correct: error.is_none(),
        error,
        attempted: attempted.max(1),
        failed,
        fails: fails.to_vec(),
        slices: untraced.len(),
        digest: untraced.first().map_or(0, |s| s.digest),
        metrics,
    }
}

fn spread_of(values: &[f64]) -> Option<Spread> {
    Some((quartiles(values), values.len()))
}

fn end_to_end(
    w: &dyn Workload,
    setup: &[f64],
    untraced: &[Slice],
    counts: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    let walls: Vec<f64> = untraced.iter().map(|s| s.wall).collect();
    END_TO_END
        .iter()
        .map(|&(name, _)| match name {
            "slice_s" => Metric {
                name,
                value: median(&walls),
                spread: spread_of(&walls),
            },
            "setup_s" => Metric {
                name,
                value: median(setup),
                spread: spread_of(setup),
            },
            "peak_rss_mib" => Metric {
                name,
                value: w.peak_rss_mib(),
                spread: None,
            },
            "sim_cpi" => Metric {
                name,
                value: counts.get("sim_cpi").copied().unwrap_or(0.0),
                spread: None,
            },
            other => unreachable!("end-to-end metric {other} has no source"),
        })
        .collect()
}

/// The profiler's share of host time per phase over the traced slices,
/// its coverage, and the scopes entered in the first traced slice; `None`
/// when no operation was profiled.
fn profile(traced: &[Slice]) -> Option<Vec<(String, f64)>> {
    let (mut wall_ns, mut covered_ns) = (0u64, 0u64);
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, slice) in traced.iter().enumerate() {
        for op in &slice.ops {
            let Some(report) = &op.prof else { continue };
            wall_ns += report.wall_ns;
            covered_ns += report.covered_ns();
            for stat in &report.phases {
                let stem = match (stat.phase, op.family) {
                    (Phase::Setup, _) => "sys_new",
                    (Phase::Execute, Family::Baseline) => "baseline_exec",
                    (Phase::Execute, _) => "bulk_exec",
                    (phase, _) => phase.name(),
                };
                *self_ns.entry(stem).or_default() += stat.self_ns;
                if i == 0 {
                    let stem = if stat.phase == Phase::Execute {
                        "exec"
                    } else {
                        stem
                    };
                    *calls.entry(stem).or_default() += stat.count;
                }
            }
        }
    }
    if wall_ns == 0 {
        return None;
    }
    let share = |ns: u64| 100.0 * ns as f64 / wall_ns as f64;
    let mut out = vec![("prof.coverage_pct".to_string(), share(covered_ns))];
    out.extend(
        self_ns
            .iter()
            .map(|(stem, &ns)| (format!("prof.{stem}_pct"), share(ns))),
    );
    out.extend(
        calls
            .iter()
            .map(|(stem, &n)| (format!("prof.{stem}_calls"), n as f64)),
    );
    Some(out)
}

fn per_layer(untraced: &[Slice], traced: &[Slice], counts: &BTreeMap<&str, f64>) -> Vec<Metric> {
    // Measured values by name; a listed metric nothing measured reads 0.
    let mut found: BTreeMap<String, (f64, Option<Spread>)> = counts
        .iter()
        .map(|(name, &v)| (name.to_string(), (v, None)))
        .collect();
    let mut per_slice: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, v) in untraced.iter().flat_map(|s| &s.values) {
        per_slice.entry(name).or_default().push(*v);
    }
    let mut median_of = |name: &str, v: &[f64]| {
        found.insert(name.to_string(), (median(v), spread_of(v)));
    };
    for (name, v) in &per_slice {
        median_of(name, v);
    }
    let overhead: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| t.wall / u.wall)
        .collect();
    median_of("prof.overhead_x", &overhead);
    let busy: Vec<f64> = untraced
        .iter()
        .map(|s| s.ops.iter().map(|o| o.wall).sum::<f64>() / (s.workers as f64 * s.wall))
        .collect();
    median_of("pool.busy_frac", &busy);
    let op_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|s| &s.ops)
        .map(|o| o.wall * 1e3)
        .collect();
    found.insert(
        "span.op_p50_ms".to_string(),
        (percentile(&op_ms, 50.0), spread_of(&op_ms)),
    );
    found.insert(
        "span.op_p95_ms".to_string(),
        (percentile(&op_ms, 95.0), None),
    );
    for (name, v) in profile(traced).unwrap_or_default() {
        found.insert(name, (v, None));
    }

    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let (value, spread) = found.remove(name).unwrap_or((0.0, None));
            Metric {
                name,
                value,
                spread,
            }
        })
        .collect()
}

/// Print one `workload metric value unit` line per metric (quartiles and
/// sample count after a `#`), then the one-line JSON result the last
/// line of stdout carries.
pub fn print(workload: &str, r: &RunResult) {
    for m in &r.metrics {
        let mut line = format!(
            "{workload} {} {} {}",
            m.name,
            m.value,
            metrics::unit(m.name)
        );
        if let Some(([q1, _, q3], n)) = m.spread {
            line.push_str(&format!("  # p25 {q1:.6} p75 {q3:.6} n {n}"));
        }
        println!("{line}");
    }
    let fails: Vec<String> = r.fails.iter().map(|(n, c)| format!("{n} {c}")).collect();
    println!(
        "# {workload} sim_digest {:016x}  slices {}  attempted {}  failed {}  {}",
        r.digest,
        r.slices,
        r.attempted,
        r.failed,
        fails.join("  ")
    );
    println!("{}", result_line(r));
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> Json {
    let mut metrics = Json::obj([]);
    for m in &r.metrics {
        metrics.push(
            m.name,
            Json::obj([
                ("value", Json::F64(m.value)),
                ("unit", metrics::unit(m.name).into()),
            ]),
        );
    }
    Json::obj([
        ("correct", r.correct.into()),
        ("attempted", r.attempted.into()),
        ("failed", r.failed.into()),
        ("metrics", metrics),
    ])
}
