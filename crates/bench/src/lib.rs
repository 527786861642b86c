//! Shared machinery for the benchmark harness: every table and figure of
//! the paper's evaluation (§7) is regenerated by one binary in `src/bin/`.
//! The simulator's own speed is measured by the `benchmark/` package.
//!
//! | paper artifact | binary |
//! |---|---|
//! | Figure 9 (speedup over RC, 7 configs × 13 apps) | `fig9` |
//! | Figure 10 (BSCdypvt chunk-size sweep) | `fig10` |
//! | Figure 11 (traffic breakdown normalized to RC) | `fig11` |
//! | Table 3 (BulkSC characterization) | `table3` |
//! | Table 4 (commit process & coherence) | `table4` |
//! | design-choice ablations (ours) | `ablations` |
//!
//! Absolute cycle counts are *not* expected to match the paper (the
//! substrate is this workspace's simulator, not SESC on the authors'
//! binaries); the row-to-row and bar-to-bar *shape* is the reproduction
//! target. `EXPERIMENTS.md` records both sides.

use bulksc::{Model, SimReport, System, SystemConfig};
use bulksc_workloads::{AppParams, SyntheticApp, ThreadProgram};

pub mod analyze;
pub mod figures;
pub mod fuzz;
pub mod heartbeat;
pub mod perf;
pub mod pool;

/// Instructions per core for a full experiment run (kept modest so the
/// whole figure regenerates in minutes; raise for smoother numbers).
pub const DEFAULT_BUDGET: u64 = 25_000;

/// Deterministic seed for all runs (same workload across configs).
pub const SEED: u64 = 20070609; // the paper's publication date

/// Run `app` under `model` on the paper's 8-core CMP and collect the
/// report.
///
/// # Panics
///
/// Panics if the simulation fails to finish (a liveness bug).
pub fn run_app(model: Model, app: &AppParams, budget: u64) -> SimReport {
    run_custom(SystemConfig::cmp8(model), app, budget)
}

/// Run `app` on the machine of `cfg` (the ablations vary more than the
/// model) and collect the report.
///
/// # Panics
///
/// Panics with the machine's `debug_state` dump if the simulation fails
/// to finish.
pub(crate) fn run_custom(mut cfg: SystemConfig, app: &AppParams, budget: u64) -> SimReport {
    cfg.budget = budget;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(*app, t, cfg.cores, SEED)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    assert!(
        sys.run(u64::MAX / 4),
        "simulation of {} under {} did not finish:\n{}",
        app.name,
        sys.config().model.name(),
        sys.debug_state()
    );
    SimReport::collect(&sys)
}

/// The budget from the `BULKSC_BUDGET` environment variable, or the
/// default. Lets CI scale run length without code changes.
pub fn budget_from_env() -> u64 {
    std::env::var("BULKSC_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_BUDGET)
}

/// This process's peak resident set (`VmHWM` from `/proc/self/status`),
/// in KiB. `None` where procfs is unavailable (non-Linux hosts); callers
/// gating on memory should warn rather than fail there. The high-water
/// mark is kernel-maintained, so a single sample after the work is done
/// observes the true peak — no sampling thread needed.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Geometric-mean helper re-exported for the binaries.
pub use bulksc_stats::geomean;

pub mod artifact {
    //! Machine-readable run artifacts: every `src/bin/` binary accepts
    //! `--json` and then writes `results/<name>.json` with the full
    //! [`SimReport`](bulksc::SimReport) of every run it performed.

    use bulksc::SimReport;
    use bulksc_trace::Json;
    use std::path::PathBuf;

    /// True if `--json` was passed on the command line.
    pub fn json_requested() -> bool {
        std::env::args().any(|a| a == "--json")
    }

    /// Collects one experiment binary's runs for the `--json` artifact.
    pub struct RunLog {
        name: String,
        budget: u64,
        runs: Vec<Json>,
        extra: Vec<(String, Json)>,
    }

    impl RunLog {
        /// A log for the binary `name` running `budget` instructions/core.
        pub fn new(name: &str, budget: u64) -> RunLog {
            RunLog {
                name: name.to_string(),
                budget,
                runs: Vec::new(),
                extra: Vec::new(),
            }
        }

        /// Record one run: the app, the configuration label, and the full
        /// report.
        pub fn record(&mut self, app: &str, config: &str, r: &SimReport) {
            self.runs.push(Json::obj([
                ("app", app.into()),
                ("config", config.into()),
                ("report", r.to_json()),
            ]));
        }

        /// Attach a derived value (geomeans, normalized columns, ...).
        pub fn extra(&mut self, key: &str, value: Json) {
            self.extra.push((key.to_string(), value));
        }

        /// The artifact document. The leading `schema`/`version` pair is
        /// what `bulksc-analyze` checks before trusting the layout.
        pub fn to_json(&self) -> Json {
            let mut doc = Json::obj([
                ("schema", "bulksc-runlog".into()),
                ("version", bulksc_trace::SCHEMA_VERSION.into()),
                ("experiment", self.name.as_str().into()),
                ("budget", self.budget.into()),
                ("seed", crate::SEED.into()),
            ]);
            for (k, v) in &self.extra {
                doc.push(k, v.clone());
            }
            doc.push("runs", Json::Arr(self.runs.clone()));
            doc
        }

        /// If `--json` was requested, write `results/<name>.json` and
        /// report the path on stderr. Returns the path written, if any.
        ///
        /// # Panics
        ///
        /// Panics if the artifact cannot be written (results are the whole
        /// point of a `--json` run).
        pub fn write_if_requested(&self) -> Option<PathBuf> {
            if !json_requested() {
                return None;
            }
            Some(self.write())
        }

        /// Unconditionally write `results/<name>.json`.
        pub fn write(&self) -> PathBuf {
            let dir = PathBuf::from("results");
            std::fs::create_dir_all(&dir).expect("create results/");
            let path = dir.join(format!("{}.json", self.name));
            let mut out = self.to_json().to_string();
            out.push('\n');
            std::fs::write(&path, out).expect("write results artifact");
            eprintln!("wrote {}", path.display());
            path
        }
    }
}

pub mod xray {
    //! Conflict-forensics capture: every experiment binary accepts
    //! `--xray` and then records one pinned traced run with conflict
    //! attribution on, writing `results/<name>.xray.jsonl` for
    //! `bulksc-analyze xray`.
    //!
    //! The capture is a *separate* run from the figure sweep: attribution
    //! reads simulation state without writing it, so the figure numbers
    //! are identical either way, but keeping it out of the sweep means
    //! `--xray` can never perturb a figure artifact even by accident.
    //! One representative app under `BSCdypvt` at the binary's budget is
    //! enough to localize a squash storm; the seed is the workspace-wide
    //! [`crate::SEED`], so the artifact is byte-identical on every host.

    use bulksc::{BulkConfig, Model, System, SystemConfig};
    use bulksc_trace::{BtfTracer, JsonlTracer, TraceHandle, Tracer};
    use bulksc_workloads::{SyntheticApp, ThreadProgram};
    use std::path::PathBuf;

    /// The app every capture runs: the most squash-prone in the catalog
    /// at small budgets, so the artifact actually contains conflicts to
    /// attribute.
    pub const CAPTURE_APP: &str = "radix";

    /// True if `--xray` was passed on the command line.
    pub fn xray_requested() -> bool {
        std::env::args().any(|a| a == "--xray")
    }

    /// The on-disk format a capture writes, selected with
    /// `--trace-format=jsonl|btf` (every experiment binary that accepts
    /// `--xray` accepts it; default JSONL).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub enum TraceFormat {
        /// One JSON object per event (`.xray.jsonl`).
        #[default]
        Jsonl,
        /// Schema-stamped binary trace format (`.xray.btf`): ~8x smaller,
        /// block-indexed, consumed by the same `bulksc-analyze`
        /// subcommands via format sniffing.
        Btf,
    }

    impl TraceFormat {
        /// The artifact filename extension (after `.xray.`).
        pub fn extension(self) -> &'static str {
            match self {
                TraceFormat::Jsonl => "jsonl",
                TraceFormat::Btf => "btf",
            }
        }
    }

    /// The `--trace-format` selection from the command line (supports
    /// both `--trace-format=btf` and `--trace-format btf` spellings).
    ///
    /// # Panics
    ///
    /// Panics on a value other than `jsonl` or `btf` — a silently ignored
    /// typo would quietly produce the wrong artifact.
    pub fn trace_format() -> TraceFormat {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            let value = if let Some(v) = a.strip_prefix("--trace-format=") {
                v.to_string()
            } else if a == "--trace-format" {
                args.next().expect("--trace-format needs a value")
            } else {
                continue;
            };
            return match value.as_str() {
                "jsonl" => TraceFormat::Jsonl,
                "btf" => TraceFormat::Btf,
                other => panic!("--trace-format must be jsonl or btf, got {other:?}"),
            };
        }
        TraceFormat::default()
    }

    /// Run the pinned capture scenario with `sink` attached: `BSCdypvt`
    /// with conflict attribution on, [`CAPTURE_APP`] on the 8-core CMP.
    fn capture_into<T: Tracer + 'static>(budget: u64, sink: std::rc::Rc<std::cell::RefCell<T>>) {
        let app = bulksc_workloads::by_name(CAPTURE_APP).expect("catalog app");
        let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt().with_xray()));
        cfg.budget = budget;
        let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
            .map(|t| {
                Box::new(SyntheticApp::new(app, t, cfg.cores, crate::SEED))
                    as Box<dyn ThreadProgram>
            })
            .collect();
        let mut sys = System::new(cfg, programs);
        let mut handle = TraceHandle::off();
        handle.attach(sink);
        sys.set_tracer(handle);
        assert!(
            sys.run(u64::MAX / 4),
            "xray capture run did not finish:\n{}",
            sys.debug_state()
        );
    }

    /// The attributed event stream of one pinned run, as JSONL text.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to finish.
    pub fn capture_stream(budget: u64) -> String {
        let sink = JsonlTracer::shared();
        capture_into(budget, sink.clone());
        let text = sink.borrow().contents().to_string();
        text
    }

    /// The same pinned run encoded as a BTF artifact. Both encodings
    /// observe the identical execution (tracing never feeds back), so the
    /// two artifacts decode to the same event stream.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to finish.
    pub fn capture_stream_btf(budget: u64) -> Vec<u8> {
        let sink = BtfTracer::shared();
        capture_into(budget, sink.clone());
        let bytes = sink.borrow_mut().finish_bytes();
        bytes
    }

    /// If `--xray` was requested, capture and write
    /// `results/<name>.xray.jsonl` — or `.xray.btf` under
    /// `--trace-format=btf` — reporting the path on stderr.
    ///
    /// # Panics
    ///
    /// Panics if the artifact cannot be written.
    pub fn capture_if_requested(name: &str, budget: u64) -> Option<PathBuf> {
        if !xray_requested() {
            return None;
        }
        let format = trace_format();
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("create results/");
        let path = dir.join(format!("{name}.xray.{}", format.extension()));
        let bytes = match format {
            TraceFormat::Jsonl => capture_stream(budget).into_bytes(),
            TraceFormat::Btf => capture_stream_btf(budget),
        };
        std::fs::write(&path, bytes).expect("write xray artifact");
        eprintln!("wrote {}", path.display());
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc::BulkConfig;
    use bulksc_cpu::BaselineModel;

    #[test]
    fn run_app_produces_report() {
        let app = bulksc_workloads::by_name("lu").unwrap();
        let r = run_app(Model::Baseline(BaselineModel::Rc), &app, 2_000);
        assert!(r.finished);
        assert!(r.cycles > 0);
        let rb = run_app(Model::Bulk(BulkConfig::bsc_dypvt()), &app, 2_000);
        assert!(rb.chunks_committed > 0);
    }

    #[test]
    fn budget_env_parsing() {
        assert_eq!(budget_from_env(), DEFAULT_BUDGET);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_plausible_high_water_mark() {
        let kb = peak_rss_kb().expect("procfs present on Linux");
        assert!(kb > 100, "a running test binary uses more than 100 KiB");
    }
}
