//! The SC-vs-TSO contrast the paper is about, as a measured, certified
//! artifact: the TSO baseline's executions are exactly TSO (the
//! model-parametric oracle certifies every run), the classic
//! store-buffering reordering actually appears (and is the *only*
//! catalog shape whose SC-forbidden outcome TSO admits — see
//! `Litmus::tso_allowed`), and BulkSC never exhibits it. The same SB
//! trace is flagged by the SC oracle, naming the relaxed W→R edge, and
//! certified by the TSO oracle: the two models are discriminated on one
//! concrete execution, not just on paper.

use bulksc::{BulkConfig, Model, System, SystemConfig};
use bulksc_check::{CheckError, CollectingTracer, MemoryModel, ValueTrace, ViolationKind};
use bulksc_cpu::BaselineModel;
use bulksc_trace::TraceHandle;
use bulksc_workloads::litmus;

/// Run one litmus test and return the observations plus the full value
/// trace (every model under test here emits value events).
fn run_litmus(model: Model, test: &litmus::Litmus, skews: &[u32]) -> (Vec<Vec<u64>>, ValueTrace) {
    let mut cfg = SystemConfig::cmp8(model);
    cfg.cores = test.threads() as u32;
    cfg.budget = u64::MAX;
    let mut sys = System::new(cfg, test.programs(skews));
    let tracer = CollectingTracer::shared();
    let mut trace = TraceHandle::off();
    trace.attach(tracer.clone());
    sys.set_tracer(trace);
    assert!(
        sys.run(10_000_000),
        "{}: did not finish:\n{}",
        test.name,
        sys.debug_state()
    );
    let trace = tracer.borrow_mut().take();
    (sys.observations(), trace)
}

/// Skew sweep matching `tests/sc_litmus.rs`.
fn skews(test: &litmus::Litmus, round: u32) -> Vec<u32> {
    (0..test.threads())
        .map(|t| (round * 11 + t as u32 * 5) % 29)
        .collect()
}

/// The whole catalog on the TSO baseline: every run must TSO-certify,
/// SC-certified runs are a subset (monotonicity), and an SC-forbidden
/// outcome may only ever appear where the annotation allows it.
#[test]
fn tso_baseline_is_tso_and_only_relaxes_where_annotated() {
    let mut sc_rejected_some_run = false;
    for test in litmus::catalog() {
        for round in 0..8u32 {
            let (obs, trace) = run_litmus(
                Model::Baseline(BaselineModel::Tso),
                &test,
                &skews(&test, round),
            );
            assert!(
                !trace.accesses.is_empty(),
                "{}: no value trace — tracing unwired?",
                test.name
            );
            if (test.forbidden)(&obs) {
                assert!(
                    test.tso_allowed,
                    "{} (round {round}): outcome {obs:?} is forbidden under TSO \
                     but the tso baseline produced it",
                    test.name
                );
            }
            trace.verify_model(MemoryModel::Tso).unwrap_or_else(|e| {
                panic!(
                    "{} (round {round}): TSO oracle rejected a tso-baseline run:\n{e}",
                    test.name
                )
            });
            // SC ⊂ TSO on real executions: an SC-certified run is
            // always TSO-certified (just shown); the converse may fail,
            // and must fail only on the tso-allowed shape.
            match trace.verify_model(MemoryModel::Sc) {
                Ok(_) => {}
                Err(e) => {
                    assert!(
                        test.tso_allowed,
                        "{} (round {round}): SC oracle rejected a run of a shape \
                         TSO should not relax:\n{e}",
                        test.name
                    );
                    sc_rejected_some_run = true;
                }
            }
        }
    }
    assert!(
        sc_rejected_some_run,
        "the sweep never produced an SC-violating TSO execution — \
         the discrimination is vacuous at these skews"
    );
}

/// The discrimination proof on one concrete execution: hunt the SB
/// reordering, then show the two oracles disagree about that exact trace
/// — SC names the relaxed W→R po edge, TSO certifies with a witness.
#[test]
fn sb_trace_discriminates_the_two_oracles() {
    let test = litmus::store_buffering();
    assert!(test.tso_allowed, "SB is the TSO-allowed catalog entry");
    let mut found = None;
    for round in 0..20u32 {
        let (obs, trace) = run_litmus(
            Model::Baseline(BaselineModel::Tso),
            &test,
            &[round % 5, (round * 7) % 5],
        );
        if (test.forbidden)(&obs) {
            found = Some(trace);
            break;
        }
    }
    let trace = found.expect("the tso baseline never produced the SB reordering");
    // SC refuses: a cycle through the dropped W→R program-order edge.
    let err = trace
        .verify_model(MemoryModel::Sc)
        .expect_err("the SB outcome is not SC");
    let CheckError::Violation(v) = err else {
        panic!("expected an SC violation, got {err:?}");
    };
    assert_eq!(v.kind, ViolationKind::Cycle);
    assert!(v.report.starts_with("SC violation"), "{}", v.report);
    assert!(
        v.report.contains("relaxed edge") && v.report.contains("--model=tso"),
        "SC report must point at the W→R relaxation:\n{}",
        v.report
    );
    // TSO certifies the same trace, with a replayed witness.
    let cert = trace
        .verify_model(MemoryModel::Tso)
        .expect("the SB outcome is TSO");
    assert_eq!(cert.model, MemoryModel::Tso);
    assert!(cert.witness.is_some_and(|w| !w.is_empty()));
}

/// BulkSC enforces SC: the tso-allowed outcome never appears under any
/// chunked configuration, across the same skews that exhibit it on the
/// tso baseline — and every run certifies under *both* models.
#[test]
fn bulksc_never_exhibits_store_buffering() {
    let test = litmus::store_buffering();
    for bulk in [BulkConfig::bsc_base(), BulkConfig::bsc_dypvt()] {
        for round in 0..20u32 {
            let (obs, trace) = run_litmus(
                Model::Bulk(bulk.clone()),
                &test,
                &[round % 5, (round * 7) % 5],
            );
            assert!(
                !(test.forbidden)(&obs),
                "BulkSC produced the SB reordering at round {round}: {obs:?}"
            );
            trace
                .verify_model(MemoryModel::Sc)
                .unwrap_or_else(|e| panic!("BulkSC run not SC (round {round}):\n{e}"));
            trace
                .verify_model(MemoryModel::Tso)
                .unwrap_or_else(|e| panic!("BulkSC run not TSO (round {round}):\n{e}"));
        }
    }
}

/// Exactly one catalog entry is TSO-allowed, and it is SB — the
/// annotation the whole discrimination layer hangs off.
#[test]
fn catalog_annotation_is_sb_only() {
    let allowed: Vec<&str> = litmus::catalog()
        .iter()
        .filter(|t| t.tso_allowed)
        .map(|t| t.name)
        .collect();
    assert_eq!(allowed, ["SB"]);
}
