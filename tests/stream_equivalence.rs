//! Windowed-vs-batch equivalence: the windowed checker added for the
//! unbounded-memory fix must reach the batch oracle's verdict on every
//! trace this repo can produce. (Batch is the one-window check, so the
//! comparison that means something is across window sizes.)
//!
//! Three corpora:
//!
//! * every litmus-catalog trace under a BulkSC preset — legal runs whose
//!   windowed certificates must agree with batch on the access count
//!   and the final memory, with no more ambiguity;
//! * the `commit_without_arbitration` fault trace and a TSO
//!   store-buffering run — *violations* a windowed check must refuse as
//!   batch does;
//! * a seeded fuzz corpus — contended synthetic-app runs, the same
//!   traces the `bulksc-fuzz --stream-check` differential sweeps.

use bulksc::{BulkConfig, Model, System, SystemConfig};
use bulksc_bench::fuzz;
use bulksc_check::{
    check, check_model, check_stream, CheckError, CollectingTracer, MemoryModel, StreamConfig,
    ValueTrace, ViolationKind,
};
use bulksc_cpu::BaselineModel;
use bulksc_sig::Addr;
use bulksc_trace::TraceHandle;
use bulksc_workloads::{litmus, FuzzSpec, Instr, ScriptOp, ScriptProgram, ThreadProgram};

/// Run `programs` under `model` with value tracing on; return the trace.
fn run_traced(model: Model, dirs: u32, programs: Vec<Box<dyn ThreadProgram>>) -> ValueTrace {
    let mut cfg = SystemConfig::cmp8(model);
    cfg.cores = programs.len() as u32;
    cfg.dirs = dirs;
    cfg.budget = u64::MAX;
    let mut sys = System::new(cfg, programs);
    let tracer = CollectingTracer::shared();
    let mut trace = TraceHandle::off();
    trace.attach(tracer.clone());
    sys.set_tracer(trace);
    assert!(
        sys.run(10_000_000),
        "did not finish:\n{}",
        sys.debug_state()
    );
    let trace = tracer.borrow_mut().take();
    trace
}

/// Certify `trace` in batch and through `window`-sized windows, and
/// insist the windowed answer matches the batch oracle: the same
/// verdict, access count and final memory.
fn assert_equivalent(name: &str, trace: &ValueTrace, window: usize) {
    assert_equivalent_model(name, trace, window, MemoryModel::Sc);
}

/// The same contract under any oracle model; both certificates must
/// carry the model they certified against.
fn assert_equivalent_model(name: &str, trace: &ValueTrace, window: usize, model: MemoryModel) {
    let cert = check_model(&trace.accesses, &trace.lifecycle, model)
        .unwrap_or_else(|e| panic!("{name}: batch oracle rejected a legal trace:\n{e}"));
    let w = check_stream(
        &trace.accesses,
        &trace.lifecycle,
        StreamConfig::windowed(window).with_model(model),
    )
    .unwrap_or_else(|e| panic!("{name}: windowed streaming rejected the trace:\n{e}"));
    assert_eq!(
        (cert.model, w.model),
        (model, model),
        "{name}: certificates name the model"
    );
    assert_eq!(w.accesses, cert.accesses, "{name}: access count diverges");
    assert_eq!(
        w.final_memory, cert.final_memory,
        "{name}: windowed replayed memory diverges"
    );
    // Ambiguity is frontier-local in windowed mode (a retired same-value
    // writer no longer competes), so the count may only shrink relative
    // to batch — never grow.
    assert!(
        w.ambiguous_reads <= cert.ambiguous_reads,
        "{name}: windowed mode invented ambiguity: {} > {}",
        w.ambiguous_reads,
        cert.ambiguous_reads
    );
}

/// A windowed SC check of `trace` must refuse it with a violation, as
/// the batch check did.
fn assert_windowed_refuses(trace: &ValueTrace, window: usize) {
    let err = check_stream(
        &trace.accesses,
        &trace.lifecycle,
        StreamConfig::windowed(window),
    )
    .expect_err("a windowed check must refuse what batch refuses");
    assert!(
        matches!(err, CheckError::Violation(_)),
        "expected a violation at window {window}, got: {err}"
    );
}

#[test]
fn every_litmus_trace_streams_to_the_same_verdict() {
    for test in litmus::catalog() {
        let skews: Vec<u32> = (0..test.threads()).map(|t| (t as u32 * 7) % 23).collect();
        let trace = run_traced(
            Model::Bulk(BulkConfig::bsc_dypvt()),
            1,
            test.programs(&skews),
        );
        assert!(!trace.accesses.is_empty(), "{}: empty trace", test.name);
        // Window 64 slices every litmus trace into several windows.
        assert_equivalent(test.name, &trace, 64);
    }
}

/// Store-buffering with plain loads (see `tests/check_oracle.rs`): only
/// commit arbitration keeps it SC, so `commit_without_arbitration`
/// leaks the classic non-SC outcome for the oracle to catch.
fn sb_plain(skew: u32) -> Vec<Box<dyn ThreadProgram>> {
    let x = Addr(0x100);
    let y = Addr(0x1100); // different cache lines
    let prog = |mine: Addr, other: Addr, skew: u32| -> Box<dyn ThreadProgram> {
        Box::new(ScriptProgram::new(vec![
            ScriptOp::WarmRead(mine),
            ScriptOp::WarmRead(other),
            ScriptOp::Op(Instr::Compute(40 + skew)),
            ScriptOp::Op(Instr::Store {
                addr: mine,
                value: 1,
            }),
            ScriptOp::Op(Instr::Load {
                addr: other,
                consume: false,
            }),
        ]))
    };
    vec![prog(x, y, 0), prog(y, x, skew)]
}

#[test]
fn the_injected_fault_produces_an_identical_violation_report() {
    let mut faulty = BulkConfig::bsc_base();
    faulty.commit_without_arbitration = true;

    let mut compared = false;
    for skew in 0..8u32 {
        let trace = run_traced(Model::Bulk(faulty.clone()), 1, sb_plain(skew));
        let v = match check(&trace.accesses, &trace.lifecycle) {
            Ok(_) => continue, // this skew escaped; try the next
            Err(CheckError::Violation(v)) => v,
            Err(CheckError::Malformed(m)) => panic!("malformed trace: {m}"),
        };
        assert_eq!(v.kind, ViolationKind::Cycle, "{}", v.report);
        assert_windowed_refuses(&trace, 64);
        compared = true;
        break;
    }
    assert!(
        compared,
        "commit_without_arbitration never produced a violation to compare"
    );
}

/// The same equivalence contract under the TSO oracle: every litmus
/// trace the TSO baseline produces (including store-buffering runs SC
/// would refuse) must certify alike in batch and windowed.
#[test]
fn tso_baseline_traces_stream_to_the_same_tso_verdict() {
    for test in litmus::catalog() {
        let skews: Vec<u32> = (0..test.threads()).map(|t| (t as u32 * 7) % 23).collect();
        let trace = run_traced(
            Model::Baseline(BaselineModel::Tso),
            1,
            test.programs(&skews),
        );
        assert!(!trace.accesses.is_empty(), "{}: empty trace", test.name);
        assert_equivalent_model(test.name, &trace, 64, MemoryModel::Tso);
    }
    // Contended fuzz traces too — window 256 matches `--stream-check`.
    let entries = fuzz::tso_sweep();
    let spec = FuzzSpec {
        ops_per_thread: 80,
        ..FuzzSpec::default()
    };
    for entry in entries.iter().take(2) {
        for seed in [1u64, 7] {
            let (trace, _) = fuzz::run_traced(entry, spec, seed);
            assert_equivalent_model(
                &format!("{} seed {seed}", entry.name),
                &trace,
                256,
                MemoryModel::Tso,
            );
        }
    }
}

/// A store-buffering execution the TSO baseline actually produced: the
/// SC oracle must refuse it, batch naming the relaxed W→R edge and
/// windowed too, while the TSO oracle certifies the same trace both
/// ways.
#[test]
fn the_sb_reordering_streams_to_the_same_split_verdict() {
    let test = litmus::store_buffering();
    let mut compared = false;
    for round in 0..20u32 {
        let trace = run_traced(
            Model::Baseline(BaselineModel::Tso),
            1,
            test.programs(&[round % 5, (round * 7) % 5]),
        );
        let v = match check(&trace.accesses, &trace.lifecycle) {
            Ok(_) => continue, // no reordering this round; try the next
            Err(CheckError::Violation(v)) => v,
            Err(CheckError::Malformed(m)) => panic!("malformed trace: {m}"),
        };
        assert!(
            v.report.contains("relaxed edge"),
            "the SC refusal names the relaxed W->R edge:\n{}",
            v.report
        );
        assert_windowed_refuses(&trace, 4);
        // And the TSO oracle certifies the very same trace both ways.
        assert_equivalent_model("SB under TSO", &trace, 4, MemoryModel::Tso);
        compared = true;
        break;
    }
    assert!(
        compared,
        "the TSO baseline never produced the SB reordering"
    );
}

#[test]
fn a_seeded_fuzz_corpus_streams_to_the_same_verdicts() {
    let entries = fuzz::sweep();
    let spec = FuzzSpec {
        ops_per_thread: 80,
        ..FuzzSpec::default()
    };
    for entry in entries.iter().take(3) {
        for seed in [1u64, 2] {
            let (trace, _) = fuzz::run_traced(entry, spec, seed);
            assert!(
                !trace.accesses.is_empty(),
                "{} seed {seed}: empty trace",
                entry.name
            );
            // Window 256 matches the `--stream-check` differential shape.
            assert_equivalent(&format!("{} seed {seed}", entry.name), &trace, 256);
        }
    }
}
