//! The tracing-tax gate behind `bulksc-perf`: what does recording cost
//! the simulator?
//!
//! Three cells run the same simulation (BSCdypvt on `ocean`, the paper's
//! 8-core CMP, the workspace-wide [`SEED`]) and differ only in what they
//! record: nothing, a JSONL trace, or a trace with conflict attribution.
//! [`GATED_RATIOS`] bounds the KIPS (thousand simulated instructions per
//! host second) ratios between them. The simulator's own speed from one
//! commit to the next is measured by the `benchmark/` package; this gate
//! bounds only what recording costs relative to not recording.
//!
//! Host timings are *not* deterministic, only the simulated side is. Each
//! ratio is therefore measured from interleaved pairs of runs and gated
//! on the median of the per-pair ratios, not on a ratio of two cells'
//! medians.

use bulksc::{BulkConfig, Model, SimReport, System, SystemConfig};
use bulksc_prof::{self as prof, Phase, ProfReport};
use bulksc_trace::{JsonlTracer, TraceHandle};
use bulksc_workloads::{SyntheticApp, ThreadProgram};

use crate::SEED;

/// One cell of the gate: what a run records.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Name the gated ratios print.
    pub name: &'static str,
    /// Attach a JSONL tracer for the whole run.
    pub tracing: bool,
    /// Compute conflict attribution (`BulkConfig::with_xray`).
    pub xray: bool,
}

/// The three cells.
const CELLS: [Scenario; 3] = [
    Scenario {
        name: "bsc8",
        tracing: false,
        xray: false,
    },
    Scenario {
        name: "bsc8_trace",
        tracing: true,
        xray: false,
    },
    Scenario {
        name: "bsc8_xray",
        tracing: true,
        xray: true,
    },
];

/// The KIPS ratios CI bounds, as (numerator, denominator, bound).
///
/// The tracing tax (`bsc8/bsc8_trace` ≤ 3.0) bounds what a traced run
/// costs relative to an untraced one, with headroom for host noise at
/// this budget. It rises whenever untraced runs get faster and trace
/// emission does not, so a simulator speedup must come with a matching
/// cut in emission cost. The xray tax (`bsc8_trace/bsc8_xray` ≤ 1.10)
/// compares two traced cells of which only the second computes conflict
/// attribution, so it is the attribution cost alone.
pub const GATED_RATIOS: [(Scenario, Scenario, f64); 2] =
    [(CELLS[0], CELLS[1], 3.0), (CELLS[1], CELLS[2], 1.10)];

/// Instructions per core of every gate run.
pub const BUDGET: u64 = 2_000;

/// Interleaved pairs measured for each gated ratio.
pub const RATIO_PAIRS: u32 = 9;

/// The system of cell `s` at `budget` instructions per core, ready to run.
fn system(s: &Scenario, budget: u64) -> System {
    let app = bulksc_workloads::by_name("ocean").expect("catalog app");
    let bulk = BulkConfig::bsc_dypvt();
    let bulk = if s.xray { bulk.with_xray() } else { bulk };
    let mut cfg = SystemConfig::cmp8(Model::Bulk(bulk));
    cfg.budget = budget;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(app, t, cfg.cores, SEED)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    if s.tracing {
        let mut handle = TraceHandle::off();
        handle.attach(JsonlTracer::shared());
        sys.set_tracer(handle);
    }
    sys
}

/// One run of `s` at `budget` instructions per core, timed by the
/// profiler from set-up through [`SimReport::collect`].
///
/// # Panics
///
/// Panics if the run fails to finish: a perf run must never paper over a
/// liveness bug.
fn measure(s: &Scenario, budget: u64) -> (SimReport, ProfReport) {
    prof::enable();
    let mut sys = {
        let _setup = prof::scope(Phase::Setup);
        system(s, budget)
    };
    assert!(
        sys.run(u64::MAX / 4),
        "{} run did not finish:\n{}",
        s.name,
        sys.debug_state()
    );
    let report = SimReport::collect(&sys);
    (report, prof::disable())
}

/// Median of `values` (lower middle for even counts, so deterministic).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[(v.len() - 1) / 2]
}

/// A gated KIPS ratio measured from interleaved pairs of single runs.
pub struct RatioResult {
    /// Numerator cell.
    pub num: &'static str,
    /// Denominator cell.
    pub den: &'static str,
    /// The largest median that passes.
    pub bound: f64,
    /// `num` KIPS over `den` KIPS, one per pair, in run order.
    pub pairs: Vec<f64>,
}

impl RatioResult {
    /// `num/den`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.num, self.den)
    }

    /// Median of the per-pair ratios (the gated value).
    pub fn median(&self) -> f64 {
        median(&self.pairs)
    }

    /// True if the median is within the bound.
    pub fn passes(&self) -> bool {
        self.median() <= self.bound
    }
}

/// Measure one gated ratio as `pairs` back-to-back pairs of single runs
/// on this thread, alternating which cell runs first. Host speed drifts
/// over seconds to minutes, so the two runs of a pair see nearly the same
/// host, and the median of per-pair ratios shrugs off a slow stretch that
/// skews a ratio of two cells' medians.
fn measure_ratio(
    (num, den, bound): (Scenario, Scenario, f64),
    budget: u64,
    pairs: u32,
) -> RatioResult {
    let kips = |s: &Scenario| {
        let (report, pr) = measure(s, budget);
        report.retired as f64 / (pr.wall_ns as f64 / 1e9) / 1e3
    };
    let pairs = (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let a = kips(&num);
                a / kips(&den)
            } else {
                let b = kips(&den);
                kips(&num) / b
            }
        })
        .collect();
    RatioResult {
        num: num.name,
        den: den.name,
        bound,
        pairs,
    }
}

/// The whole gate: one unmeasured run of each cell (page in code, warm
/// the allocator), then every [`GATED_RATIOS`] entry measured from
/// [`RATIO_PAIRS`] pairs at [`BUDGET`].
pub fn run_gate() -> Vec<RatioResult> {
    for s in &CELLS {
        measure(s, BUDGET);
    }
    GATED_RATIOS
        .iter()
        .map(|&gate| measure_ratio(gate, BUDGET, RATIO_PAIRS))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_check::{check_events, StreamConfig};
    use bulksc_trace::EventSource;

    fn ratio((num, den, bound): (Scenario, Scenario, f64), pairs: &[f64]) -> RatioResult {
        RatioResult {
            num: num.name,
            den: den.name,
            bound,
            pairs: pairs.to_vec(),
        }
    }

    #[test]
    fn matrix_is_stable_and_unique() {
        let names: Vec<&str> = CELLS.iter().map(|s| s.name).collect();
        assert_eq!(names, ["bsc8", "bsc8_trace", "bsc8_xray"]);
        for s in &CELLS {
            assert!(
                !s.xray || s.tracing,
                "{}: attribution rides a trace",
                s.name
            );
        }
    }

    #[test]
    fn measured_scenario_reports_throughput_and_coverage() {
        let (report, pr) = measure(&CELLS[0], 1_000);
        assert!(report.cycles > 0 && report.retired > 0);
        assert!(pr.wall_ns > 0);
        assert!(
            pr.coverage_pct() >= 95.0,
            "phase self times must cover ≥95% of the run's wall: {}",
            pr.coverage_pct()
        );
        assert!(pr.phase(Phase::Run).is_some(), "step loop profiled");
        assert!(pr.phase(Phase::Execute).is_some(), "cores profiled");
    }

    #[test]
    fn traced_scenario_profiles_trace_emission() {
        let (_, pr) = measure(&CELLS[1], 1_000);
        assert!(
            pr.phase(Phase::TraceEmit).is_some(),
            "tracing cell must attribute trace-emission time"
        );
    }

    /// Oracle self time charged by the profiler while `check_events`
    /// certifies a JSONL capture of the untraced cell's run in mode `cfg`.
    fn oracle_self_ns(cfg: StreamConfig) -> u64 {
        let mut sys = system(&CELLS[0], 1_000);
        let jsonl = JsonlTracer::shared();
        let mut handle = TraceHandle::off();
        handle.attach(jsonl.clone());
        sys.set_tracer(handle);
        assert!(sys.run(u64::MAX / 4), "run finishes");
        let trace = jsonl.borrow().contents().to_string();
        prof::enable();
        let events = EventSource::new(trace.as_bytes(), "mem").expect("trace has a header");
        check_events(events, cfg).expect("the run is SC");
        let pr = prof::disable();
        pr.phase(Phase::Oracle).expect("oracle profiled").self_ns
    }

    #[test]
    fn oracle_scenario_profiles_the_oracle() {
        assert!(oracle_self_ns(StreamConfig::batch()) > 0);
    }

    #[test]
    fn streaming_oracle_scenario_certifies_and_profiles() {
        assert!(oracle_self_ns(StreamConfig::windowed(4096)) > 0);
    }

    #[test]
    fn xray_cell_simulates_exactly_what_the_traced_cell_does() {
        // Attribution reads simulation state but never writes it, so the
        // xray tax compares runs of the same simulated work.
        let (traced, _) = measure(&CELLS[1], 1_000);
        let (xrayed, _) = measure(&CELLS[2], 1_000);
        assert_eq!(traced.cycles, xrayed.cycles);
        assert_eq!(traced.retired, xrayed.retired);
    }

    #[test]
    fn trace_overhead_is_the_base_over_traced_ratio() {
        let r = ratio(GATED_RATIOS[0], &[2.2, 1.8, 2.0]);
        assert_eq!(r.name(), "bsc8/bsc8_trace");
        assert_eq!(r.bound, 3.0);
        assert!((r.median() - 2.0).abs() < 1e-9, "the median of the pairs");
    }

    #[test]
    fn xray_overhead_is_the_traced_over_xray_ratio() {
        let r = ratio(GATED_RATIOS[1], &[1.02, 0.98, 1.12, 1.01]);
        assert_eq!(r.name(), "bsc8_trace/bsc8_xray");
        assert_eq!(r.bound, 1.10);
        assert!(
            (r.median() - 1.01).abs() < 1e-9,
            "lower middle of an even count"
        );
        assert!(
            r.passes(),
            "one pair above the bound does not fail the gate"
        );
    }

    #[test]
    fn the_verdict_passes_a_median_at_its_bound_and_fails_one_above() {
        for gate in GATED_RATIOS {
            let bound = gate.2;
            assert!(ratio(gate, &[bound]).passes());
            assert!(!ratio(gate, &[bound + 0.01]).passes());
            assert!(!ratio(gate, &[0.5, bound + 0.01, bound + 0.02]).passes());
        }
    }

    #[test]
    fn gated_ratios_are_measured_pair_by_pair() {
        for gate in GATED_RATIOS {
            let r = measure_ratio(gate, 1_000, 3);
            assert_eq!(r.name(), format!("{}/{}", gate.0.name, gate.1.name));
            assert_eq!(r.bound, gate.2);
            assert_eq!(r.pairs.len(), 3);
            assert!(r.pairs.iter().all(|&x| x > 0.0 && x.is_finite()));
        }
    }
}
