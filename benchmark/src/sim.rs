//! Simulation helpers the in-process workloads share: one capped run of a
//! catalog app, the output checks every finished run must pass, and the
//! exact counts and digest a set of runs reduces to.

use bulksc::{Model, SimReport, System, SystemConfig};
use bulksc_stats::SplitMix64;
use bulksc_trace::TraceHandle;
use bulksc_workloads::{AppParams, SyntheticApp, ThreadProgram};

use crate::harness::{Family, Fnv};

/// A run may take this many times its per-core budget in cycles before it
/// counts as hung. Finished runs of the catalog need a few cycles per
/// instruction; SC++ livelocks on some program seeds and would otherwise
/// spin forever.
pub const CAP_FACTOR: u64 = 40;

/// The program seed for input `k` of `workload` at benchmark seed `seed`.
/// Hashed, so neighbouring benchmark seeds give unrelated programs.
pub fn input_seed(seed: u64, workload: &str, k: u64) -> u64 {
    let mut h = Fnv::default();
    h.add(seed);
    h.add_bytes(workload.as_bytes());
    h.add(k);
    SplitMix64::new(h.0).next_u64()
}

/// The profiler bucket of a model.
pub fn family(model: &Model) -> Family {
    match model {
        Model::Bulk(_) => Family::Bulk,
        Model::Baseline(_) => Family::Baseline,
    }
}

/// One run of `app` under `model` on the 8-core CMP, capped at
/// [`CAP_FACTOR`] × `budget` cycles. Returns the report and whether every
/// core finished.
pub fn simulate(
    model: Model,
    app: &AppParams,
    budget: u64,
    seed: u64,
    trace: TraceHandle,
) -> (SimReport, bool) {
    let mut cfg = SystemConfig::cmp8(model);
    cfg.budget = budget;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(*app, t, cfg.cores, seed)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    sys.set_tracer(trace);
    let finished = sys.run(CAP_FACTOR * budget);
    (SimReport::collect(&sys), finished)
}

/// Output checks on a finished run of `cores` cores at `budget`: every
/// core retired its budget, and each BulkSC core's cycle-loss table
/// accounts for exactly the run's cycles.
pub fn check_report(r: &SimReport, cores: u64, budget: u64, what: &str) -> Result<(), String> {
    // An SC++ core stops fetching once retired plus in-flight work reaches
    // its budget, and never refetches what a later squash discards, so it
    // can retire up to its squashed count short (a known accounting bug;
    // see the README).
    let short = if r.model == "SC++" {
        r.squashed_instrs
    } else {
        0
    };
    if r.retired + short < cores * budget {
        return Err(format!(
            "{what}: retired {} < {cores} cores x budget {budget}",
            r.retired
        ));
    }
    for (core, loss) in r.cycle_loss.iter().enumerate() {
        if loss.total() != r.cycles {
            return Err(format!(
                "{what}: core {core} cycle-loss table sums to {} but the run took {} cycles",
                loss.total(),
                r.cycles
            ));
        }
    }
    Ok(())
}

/// Fold a report's exact statistics into `h`.
pub fn digest_report(h: &mut Fnv, r: &SimReport) {
    for word in [
        r.cycles,
        r.retired,
        r.squashed_instrs,
        r.chunks_committed,
        r.alias_squashes,
        r.true_squashes,
        r.arb_requests,
        r.arb_denials,
        r.traffic.messages(),
        r.traffic.total(),
    ] {
        h.add(word);
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact counts over finished runs, each given with its core count;
/// `sim_cpi` is cycles × cores over retired instructions.
pub fn sim_counts<'a>(
    runs: impl IntoIterator<Item = (&'a SimReport, u64)>,
) -> Vec<(&'static str, f64)> {
    let (mut instrs, mut cycles, mut core_cycles, mut chunks, mut squashed) = (0, 0, 0, 0, 0);
    let (mut alias, mut squashes, mut requests, mut denials, mut msgs, mut bytes) =
        (0, 0, 0, 0, 0, 0);
    for (r, cores) in runs {
        instrs += r.retired;
        cycles += r.cycles;
        core_cycles += r.cycles * cores;
        chunks += r.chunks_committed;
        squashed += r.squashed_instrs;
        alias += r.alias_squashes;
        squashes += r.alias_squashes + r.true_squashes;
        requests += r.arb_requests;
        denials += r.arb_denials;
        msgs += r.traffic.messages();
        bytes += r.traffic.total();
    }
    vec![
        ("sim_cpi", frac(core_cycles, instrs)),
        ("sim.instrs", instrs as f64),
        ("sim.cycles", cycles as f64),
        ("core.chunks", chunks as f64),
        ("core.squash_frac", frac(squashed, instrs + squashed)),
        ("core.alias_squash_frac", frac(alias, squashes)),
        ("core.arb_denial_frac", frac(denials, requests)),
        ("net.msgs", msgs as f64),
        ("net.bytes", bytes as f64),
    ]
}
