//! Cross-crate sanity: the simulator is deterministic, and the headline
//! result shapes of the paper hold on small runs (the full-size versions
//! live in the bench harness and EXPERIMENTS.md).

use bulksc::{BulkConfig, Model, SimReport, System, SystemConfig};
use bulksc_bench::fuzz::{self, SweepEntry};
use bulksc_check::MemoryModel;
use bulksc_cpu::BaselineModel;
use bulksc_net::TrafficClass;
use bulksc_trace::{JsonlTracer, TraceHandle};
use bulksc_workloads::{by_name, FuzzSpec, SyntheticApp, ThreadProgram};

fn run(model: Model, app: &str, budget: u64, seed: u64) -> SimReport {
    let params = by_name(app).expect("catalog app");
    let mut cfg = SystemConfig::cmp8(model);
    cfg.budget = budget;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(params, t, cfg.cores, seed)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    assert!(sys.run(u64::MAX / 4), "run finished");
    SimReport::collect(&sys)
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = run(Model::Bulk(BulkConfig::bsc_dypvt()), "barnes", 5_000, 9);
    let b = run(Model::Bulk(BulkConfig::bsc_dypvt()), "barnes", 5_000, 9);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.traffic.total(), b.traffic.total());
    assert_eq!(a.chunks_committed, b.chunks_committed);
    assert_eq!(a.retired, b.retired);
}

#[test]
fn different_seeds_change_the_execution() {
    let a = run(Model::Bulk(BulkConfig::bsc_dypvt()), "barnes", 5_000, 9);
    let b = run(Model::Bulk(BulkConfig::bsc_dypvt()), "barnes", 5_000, 10);
    assert_ne!(
        (a.cycles, a.traffic.total()),
        (b.cycles, b.traffic.total()),
        "seeded workloads should differ"
    );
}

#[test]
fn bulk_sc_performs_close_to_rc() {
    // The paper's headline: BSCdypvt ≈ RC. Allow a generous band on this
    // small run.
    let rc = run(Model::Baseline(BaselineModel::Rc), "lu", 8_000, 3);
    let bsc = run(Model::Bulk(BulkConfig::bsc_dypvt()), "lu", 8_000, 3);
    let speedup = rc.cycles as f64 / bsc.cycles as f64;
    assert!(
        speedup > 0.85 && speedup < 1.15,
        "BSCdypvt should be within 15% of RC, got {speedup:.3}"
    );
}

#[test]
fn sc_baseline_is_slower_than_rc() {
    let rc = run(Model::Baseline(BaselineModel::Rc), "ocean", 8_000, 3);
    let sc = run(Model::Baseline(BaselineModel::Sc), "ocean", 8_000, 3);
    assert!(
        sc.cycles > rc.cycles,
        "SC ({}) should be slower than RC ({})",
        sc.cycles,
        rc.cycles
    );
}

#[test]
fn rsig_optimization_cuts_rdsig_bytes() {
    let with = run(Model::Bulk(BulkConfig::bsc_dypvt()), "ocean", 8_000, 3);
    let without = run(
        Model::Bulk(BulkConfig::bsc_dypvt().without_rsig()),
        "ocean",
        8_000,
        3,
    );
    assert!(with.traffic.bytes(TrafficClass::RdSig) < without.traffic.bytes(TrafficClass::RdSig));
}

#[test]
fn dynamically_private_data_reduces_write_sets() {
    // §5.2's point: Wpriv absorbs dirty-line rewrites, shrinking W.
    let base = run(Model::Bulk(BulkConfig::bsc_base()), "water-sp", 10_000, 3);
    let dypvt = run(Model::Bulk(BulkConfig::bsc_dypvt()), "water-sp", 10_000, 3);
    assert!(
        dypvt.write_set < base.write_set,
        "dypvt W ({:.2}) should be below base W ({:.2})",
        dypvt.write_set,
        base.write_set
    );
    assert!(
        dypvt.priv_write_set > 0.5,
        "Wpriv should absorb the rewrites"
    );
}

#[test]
fn statically_private_data_empties_r_and_w_of_stack_traffic() {
    let dypvt = run(Model::Bulk(BulkConfig::bsc_dypvt()), "water-sp", 10_000, 3);
    let stpvt = run(Model::Bulk(BulkConfig::bsc_stpvt()), "water-sp", 10_000, 3);
    assert!(
        stpvt.read_set < dypvt.read_set,
        "static-private reads leave R: {:.1} vs {:.1}",
        stpvt.read_set,
        dypvt.read_set
    );
    assert!(stpvt.empty_w_pct > dypvt.empty_w_pct);
}

#[test]
fn exact_signature_never_alias_squashes() {
    let r = run(Model::Bulk(BulkConfig::bsc_exact()), "radix", 10_000, 3);
    assert_eq!(r.alias_squashes, 0, "a magic signature cannot alias");
}

#[test]
fn chunk_size_sweep_runs_and_commits_fewer_bigger_chunks() {
    let small = run(
        Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(500)),
        "lu",
        6_000,
        3,
    );
    let big = run(
        Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(4000)),
        "lu",
        6_000,
        3,
    );
    assert!(small.chunks_committed > big.chunks_committed);
    assert!(
        big.read_set > small.read_set,
        "bigger chunks carry bigger sets"
    );
}

#[test]
fn distributed_arbiter_machine_matches_single_arbiter_results() {
    let single = run(Model::Bulk(BulkConfig::bsc_dypvt()), "lu", 5_000, 3);
    let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt().with_arbiters(4)));
    cfg.dirs = 4;
    cfg.budget = 5_000;
    let params = by_name("lu").unwrap();
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(params, t, cfg.cores, 3)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    assert!(sys.run(u64::MAX / 4));
    let multi = SimReport::collect(&sys);
    assert_eq!(single.retired, multi.retired, "same useful work");
    // Performance should be in the same ballpark (the paper's claim: the
    // single arbiter is not a bottleneck at this scale).
    let ratio = single.cycles as f64 / multi.cycles as f64;
    assert!((0.7..1.3).contains(&ratio), "ratio {ratio:.3}");
}

/// One fuzz case with a JSONL sink attached, driven by `drive`; returns
/// the report JSON and the trace text.
fn fuzz_case(entry: &SweepEntry, seed: u64, drive: impl FnOnce(&mut System)) -> (String, String) {
    let mut sys = fuzz::build_case(entry, FuzzSpec::default(), seed);
    let sink = JsonlTracer::shared();
    let mut handle = TraceHandle::off();
    handle.attach(sink.clone());
    sys.set_tracer(handle);
    drive(&mut sys);
    let report = SimReport::collect(&sys).to_json().to_string();
    let trace = sink.borrow().contents().to_string();
    (report, trace)
}

#[test]
fn run_matches_per_cycle_stepping() {
    // `run` is the loop every experiment uses; a plain step loop is the
    // definition of the machine. They must agree on every simulated byte.
    const CAP: u64 = 1_000_000;
    let entries = fuzz::sweep_for(MemoryModel::Sc)
        .into_iter()
        .chain(fuzz::sweep_for(MemoryModel::Tso));
    for entry in entries {
        for seed in [1u64, 5] {
            let what = format!("{} seed {seed}", entry.name);
            let ran = fuzz_case(&entry, seed, |sys| {
                assert!(sys.run(CAP), "{what}: run did not finish");
            });
            let stepped = fuzz_case(&entry, seed, |sys| {
                while !sys.finished() && sys.cycles() < CAP {
                    sys.step();
                }
            });
            assert_eq!(ran.0, stepped.0, "{what}: SimReport differs");
            assert!(ran.1 == stepped.1, "{what}: JSONL trace differs");
        }
    }
}
