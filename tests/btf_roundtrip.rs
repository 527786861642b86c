//! BTF ⇄ JSONL equivalence, end to end.
//!
//! The binary trace format is only trustworthy if it is *invisible*: any
//! trace this repo can produce must survive `jsonl → btf → jsonl`
//! byte-identically, every consumer (oracle, timeline, xray, query) must
//! reach the same answer from either encoding — read through the one
//! streaming `EventSource` — and the block index must demonstrably skip
//! work without ever changing a result. Three corpora pin that:
//!
//! * the demo-example trace (the run behind `results/trace_demo.jsonl`);
//! * a live xray capture — squash causes, conflict-attribution blobs,
//!   witness lists, net hops — recorded through *both* sinks;
//! * a seeded fuzz corpus under contended configs (value events, the
//!   same traces `bulksc-fuzz` differentially sweeps).

use std::io::Cursor;

use bulksc::{BulkConfig, Model, System, SystemConfig};
use bulksc_bench::analyze::{self, CountBy, QueryFilter};
use bulksc_bench::{fuzz, xray};
use bulksc_check::{check_btf_reader, check_jsonl_reader, StreamConfig, ValueTrace};
use bulksc_trace::btf::{btf_to_jsonl, jsonl_to_btf};
use bulksc_trace::{BtfWriter, EventSource, IndexedBtf, JsonlTracer, TraceHandle};
use bulksc_workloads::{by_name, fuzz_programs, FuzzSpec, SyntheticApp, ThreadProgram};

/// The `examples/trace_demo.rs` run (ocean, seed 42, budget 5k), traced
/// as JSONL — the same stream `scripts/ci.sh` converts and queries.
fn demo_jsonl() -> String {
    let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
    cfg.budget = 5_000;
    let app = by_name("ocean").expect("catalog app");
    let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
        .map(|t| Box::new(SyntheticApp::new(app, t, cfg.cores, 42)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    let sink = JsonlTracer::shared();
    let mut handle = TraceHandle::off();
    handle.attach(sink.clone());
    sys.set_tracer(handle);
    assert!(sys.run(u64::MAX / 4), "demo run finishes");
    let text = sink.borrow().contents().to_string();
    text
}

/// One fuzz case recorded as JSONL text (the same run shape
/// `fuzz::run_traced` certifies, with the text sink attached instead).
fn fuzz_jsonl(entry: &fuzz::SweepEntry, spec: FuzzSpec, seed: u64) -> String {
    let mut cfg = SystemConfig::cmp8(entry.model.clone());
    cfg.cores = spec.threads;
    cfg.dirs = entry.dirs;
    cfg.l1 = entry.l1;
    cfg.budget = u64::MAX;
    let mut sys = System::new(cfg, fuzz_programs(spec, seed));
    let sink = JsonlTracer::shared();
    let mut handle = TraceHandle::off();
    handle.attach(sink.clone());
    sys.set_tracer(handle);
    assert!(
        sys.run(50_000_000),
        "fuzz seed {seed} under {} did not finish",
        entry.name
    );
    let text = sink.borrow().contents().to_string();
    text
}

/// Every trace the round-trip must hold on: name + JSONL text.
fn corpus() -> Vec<(String, String)> {
    let mut traces = vec![
        ("trace_demo".to_string(), demo_jsonl()),
        ("xray capture".to_string(), xray::capture_stream(25_000)),
    ];
    let spec = FuzzSpec {
        ops_per_thread: 80,
        ..FuzzSpec::default()
    };
    for entry in fuzz::sweep().iter().take(3) {
        for seed in [1u64, 2] {
            traces.push((
                format!("{} seed {seed}", entry.name),
                fuzz_jsonl(entry, spec, seed),
            ));
        }
    }
    traces
}

#[test]
fn jsonl_btf_jsonl_is_byte_identical_on_every_corpus_trace() {
    for (name, text) in corpus() {
        let btf = jsonl_to_btf(&text).unwrap_or_else(|e| panic!("{name}: encode: {e}"));
        assert!(
            btf.len() < text.len(),
            "{name}: BTF ({} bytes) must be smaller than JSONL ({} bytes)",
            btf.len(),
            text.len()
        );
        let back = btf_to_jsonl(&btf).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        assert_eq!(
            back, text,
            "{name}: jsonl → btf → jsonl must be byte-identical"
        );
    }
}

#[test]
fn checker_verdicts_agree_across_formats_and_pool_widths() {
    for (name, text) in corpus() {
        if !text.contains("\"ev\":\"val_") {
            continue; // no value events — nothing for the oracle
        }
        let btf = jsonl_to_btf(&text).unwrap_or_else(|e| panic!("{name}: encode: {e}"));
        let mut hashes = Vec::new();
        for jobs in [1usize, 4] {
            let cfg = StreamConfig::windowed(512).with_jobs(jobs);
            let j = check_jsonl_reader(text.as_bytes(), name.as_str(), cfg.clone())
                .unwrap_or_else(|e| panic!("{name}: jsonl path (jobs {jobs}): {e}"));
            let b = check_btf_reader(btf.as_slice(), name.as_str(), cfg)
                .unwrap_or_else(|e| panic!("{name}: btf path (jobs {jobs}): {e}"));
            assert_eq!(j.accesses, b.accesses, "{name}: access counts diverge");
            assert_eq!(
                j.witness_hash, b.witness_hash,
                "{name}: witness hash diverges across formats (jobs {jobs})"
            );
            assert_eq!(
                j.final_memory, b.final_memory,
                "{name}: replayed memory diverges across formats"
            );
            assert_eq!(j.summary(), b.summary(), "{name}: certificates diverge");
            hashes.push(b.witness_hash);
        }
        assert_eq!(
            hashes[0], hashes[1],
            "{name}: pool width changed the BTF-path witness hash"
        );
    }
}

/// One encoding of a trace as a streaming event source.
fn events(bytes: &[u8]) -> EventSource<'_> {
    EventSource::new(bytes, "trace").unwrap_or_else(|e| panic!("{e}"))
}

/// Everything the trace consumers print for one encoding of a trace:
/// the timeline summary and Chrome trace, the xray report and dot graph,
/// and `query --count-by` on every axis.
fn consumer_outputs(bytes: &[u8]) -> Vec<String> {
    let tl = analyze::timeline(events(bytes)).expect("timeline");
    let x = analyze::xray(events(bytes), 10).expect("xray");
    let mut out = vec![tl.summary(), tl.chrome_trace, x.text, x.dot];
    for by in ["kind", "core", "cause", "site"] {
        let filter = QueryFilter::default();
        let q = analyze::query(Cursor::new(bytes), "trace", &filter, CountBy::parse(by), 20)
            .unwrap_or_else(|e| panic!("query --count-by {by}: {e}"));
        out.push(q.render("trace", false));
    }
    out
}

#[test]
fn btf_tracer_capture_decodes_to_the_jsonl_capture() {
    // The same pinned xray run through both sinks: the BtfTracer artifact
    // must decode to exactly what the JsonlTracer wrote, and the derived
    // reports must not notice which encoding they came from.
    let jsonl = xray::capture_stream(25_000);
    let btf = xray::capture_stream_btf(25_000);
    assert_eq!(
        btf_to_jsonl(&btf).expect("decode BtfTracer artifact"),
        jsonl,
        "the two sinks must record the identical event stream"
    );
    let from_jsonl: Vec<(u64, bulksc_trace::Event)> =
        events(jsonl.as_bytes()).map(Result::unwrap).collect();
    let from_btf: Vec<(u64, bulksc_trace::Event)> = events(&btf).map(Result::unwrap).collect();
    assert_eq!(from_jsonl, from_btf, "the event sources diverge");
    assert_eq!(
        consumer_outputs(jsonl.as_bytes()),
        consumer_outputs(&btf),
        "a consumer's output depends on the capture's encoding"
    );
}

#[test]
fn every_consumer_reads_both_encodings_identically() {
    for (name, text) in corpus() {
        let btf = jsonl_to_btf(&text).unwrap_or_else(|e| panic!("{name}: encode: {e}"));
        let (from_jsonl, from_btf) = (consumer_outputs(text.as_bytes()), consumer_outputs(&btf));
        for (j, b) in from_jsonl.iter().zip(&from_btf) {
            assert_eq!(j, b, "{name}: output diverges across formats");
        }
    }
}

#[test]
fn blank_lines_are_skipped_by_every_consumer() {
    // Blank and whitespace-only lines mid-stream and at the end: timeline,
    // xray, query and the oracle (streaming and batch) must all print
    // exactly what they print for the clean stream.
    let clean = demo_jsonl();
    let mut lines: Vec<&str> = clean.lines().collect();
    lines.insert(200, "   ");
    lines.insert(100, "");
    let spaced = lines.join("\n") + "\n\n";
    let check = |text: &str| {
        let stream = check_jsonl_reader(text.as_bytes(), "trace", StreamConfig::windowed(512))
            .unwrap_or_else(|e| panic!("streaming check: {e}"));
        let batch = ValueTrace::from_jsonl(text, "trace")
            .expect("batch load")
            .verify()
            .unwrap_or_else(|e| panic!("batch check: {e:?}"));
        [stream.summary(), batch.summary()]
    };
    assert_eq!(check(&spaced), check(&clean), "check disagrees");
    assert_eq!(
        consumer_outputs(spaced.as_bytes()),
        consumer_outputs(clean.as_bytes()),
        "timeline / xray / query disagree"
    );
}

#[test]
fn query_skips_unmatching_blocks_without_changing_results() {
    // Small blocks force a multi-block artifact; a narrow cycle filter
    // must then skip whole blocks (the index proof) while producing the
    // exact result of the full-scan JSONL path.
    let text = demo_jsonl();
    let events: Vec<(u64, bulksc_trace::Event)> =
        events(text.as_bytes()).map(Result::unwrap).collect();
    assert!(events.len() > 1_000, "demo trace is non-trivial");

    let mut w = BtfWriter::new(Vec::new()).unwrap().with_block_events(256);
    for (cycle, ev) in &events {
        w.push(*cycle, ev).unwrap();
    }
    let bytes = w.finish().unwrap();
    let btf = IndexedBtf::new(Cursor::new(&bytes)).unwrap();
    let blocks_total = btf.index().len();
    assert!(blocks_total > 3, "filter test needs several blocks");

    // A cycle window covering only the first block's range...
    let first_max = btf.index()[0].max_cycle;
    let filters = [
        QueryFilter {
            cycles: Some((0, first_max)),
            ..QueryFilter::default()
        },
        // ...and a kind that never occurs, which must skip *everything*.
        QueryFilter {
            kinds: vec![bulksc_trace::Event::kind_id_of("chunk_abandon").unwrap()],
            ..QueryFilter::default()
        },
    ];
    for (i, filter) in filters.iter().enumerate() {
        let fast = analyze::query(Cursor::new(&bytes), "demo.btf", filter, None, 0)
            .unwrap_or_else(|e| panic!("query (btf): {e}"));
        assert!(
            fast.blocks_skipped > 0,
            "filter {i}: index skipped nothing ({} blocks decoded of {})",
            fast.blocks_decoded,
            fast.blocks_total
        );
        assert_eq!(
            fast.blocks_decoded + fast.blocks_skipped,
            blocks_total,
            "filter {i}: block accounting is inconsistent"
        );
        let slow = analyze::query(Cursor::new(text.as_bytes()), "demo.jsonl", filter, None, 0)
            .unwrap_or_else(|e| panic!("query (jsonl): {e}"));
        assert_eq!(slow.blocks_total, 0, "a JSONL scan has no blocks");
        assert_eq!(
            fast.matched, slow.matched,
            "filter {i}: match counts diverge"
        );
        assert_eq!(fast.lines, slow.lines, "filter {i}: matched events diverge");
    }
    // The never-occurring kind decodes zero blocks: pure index traversal.
    let none = analyze::query(Cursor::new(&bytes), "demo.btf", &filters[1], None, 0).unwrap();
    assert_eq!(
        none.blocks_decoded, 0,
        "an impossible filter must decode nothing"
    );
    assert_eq!(none.matched, 0);
}
