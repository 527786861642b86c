//! `trace_capture`: the write side of tracing. Slice `k` runs radix,
//! ocean and sjbb2k under BSCdypvt with conflict attribution on, each
//! once into the JSONL sink and once into the BTF sink. Event
//! construction and sink recording, idle in `paper_sweep`, take about a
//! fifth of the host time here.

use bulksc::{BulkConfig, Model, SimReport};
use bulksc_bench::pool::Job;
use bulksc_trace::{BtfTracer, Json, JsonlTracer, TraceHandle};
use bulksc_workloads::{by_name, AppParams};

use crate::harness::{drain, timed, Fail, Family, Fnv, Op, Slice, Workload};
use crate::sim::{check_report, digest_report, input_seed, sim_counts, simulate};

const NAME: &str = "trace_capture";
const APPS: [&str; 3] = ["radix", "ocean", "sjbb2k"];

/// One capture at a time: two JSONL sinks growing side by side would make
/// the peak resident set depend on how their reallocations overlap.
const WORKERS: usize = 1;

pub struct TraceCapture {
    seed: u64,
    apps: Vec<AppParams>,
    budget: u64,
}

impl TraceCapture {
    pub fn new(seed: u64, smoke: bool) -> TraceCapture {
        TraceCapture {
            seed,
            apps: APPS
                .iter()
                .map(|n| by_name(n).expect("catalog app"))
                .collect(),
            budget: if smoke { 1_000 } else { 30_000 },
        }
    }
}

fn model() -> Model {
    Model::Bulk(BulkConfig::bsc_dypvt().with_xray())
}

/// One capture's output.
struct Capture {
    report: SimReport,
    finished: bool,
    events: u64,
    bytes: usize,
    /// The BTF artifact.
    btf: Option<Vec<u8>>,
    /// FNV-1a of the JSONL artifact, taken in slice 0 only: the BTF
    /// artifact transcoded to JSONL must hash the same.
    jsonl_hash: Option<u64>,
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.add_bytes(bytes);
    h.0
}

fn capture(
    app: &AppParams,
    budget: u64,
    seed: u64,
    btf: bool,
    keep: bool,
    traced: bool,
) -> (Op, Option<Capture>) {
    let mut handle = TraceHandle::off();
    if btf {
        let sink = BtfTracer::shared();
        handle.attach(sink.clone());
        let (op, out) = timed(Family::Bulk, traced, || {
            let (report, finished) = simulate(model(), app, budget, seed, handle);
            let bytes = sink.borrow_mut().finish_bytes();
            (report, finished, bytes)
        });
        let events = sink.borrow().events();
        let out = out.map(|(report, finished, bytes)| Capture {
            report,
            finished,
            events,
            bytes: bytes.len(),
            btf: Some(bytes),
            jsonl_hash: None,
        });
        (op, out)
    } else {
        let sink = JsonlTracer::shared();
        handle.attach(sink.clone());
        let (op, out) = timed(Family::Bulk, traced, || {
            simulate(model(), app, budget, seed, handle)
        });
        let sink = sink.borrow();
        let out = out.map(|(report, finished)| Capture {
            report,
            finished,
            events: sink.lines(),
            bytes: sink.contents().len(),
            btf: None,
            jsonl_hash: keep.then(|| hash(sink.contents().as_bytes())),
        });
        (op, out)
    }
}

impl Workload for TraceCapture {
    fn sizes(&self) -> Json {
        Json::obj([
            ("apps", Json::Arr(APPS.iter().map(|&a| a.into()).collect())),
            ("sinks", Json::Arr(vec!["jsonl".into(), "btf".into()])),
            ("cores", 8u64.into()),
            ("workers", WORKERS.into()),
            ("budget_per_core", self.budget.into()),
        ])
    }

    /// Nothing to build; one app captured into both sinks warms code and
    /// allocator.
    fn setup(&mut self) -> Result<(), String> {
        let (app, budget) = (&self.apps[0], self.budget);
        let seed = input_seed(self.seed, "trace_capture/warm-up", 0);
        let jobs = [false, true]
            .map(|btf| {
                Job::new("warm-up", move || {
                    capture(app, budget, seed, btf, false, false)
                })
            })
            .into();
        let (_, captures) = drain(WORKERS, jobs);
        for (_, c) in captures {
            match c {
                Some(c) if c.finished && c.events > 0 => {}
                _ => return Err("warm-up capture did not finish".to_string()),
            }
        }
        Ok(())
    }

    fn slice(&mut self, k: usize, traced: bool) -> Result<Slice, String> {
        let seed = input_seed(self.seed, NAME, k as u64);
        let budget = self.budget;
        let keep = k == 0;
        let jobs = self
            .apps
            .iter()
            .flat_map(|app| {
                [false, true].map(|btf| {
                    Job::new(format!("capture {}", app.name), move || {
                        capture(app, budget, seed, btf, keep, traced)
                    })
                })
            })
            .collect();
        let (wall, results) = drain(WORKERS, jobs);

        let mut slice = Slice::new(wall, WORKERS);
        let mut digest = Fnv::default();
        let mut reports = Vec::new();
        let (mut events, mut jsonl_bytes, mut btf_bytes) = (0u64, 0usize, 0usize);
        // (instructions, op seconds) per sink.
        let mut kips = [(0u64, 0.0f64); 2];
        let mut results = results.into_iter();
        for app in &self.apps {
            let (mut jop, jsonl) = results.next().expect("one JSONL capture per app");
            let (mut bop, btf) = results.next().expect("one BTF capture per app");
            let (Some(jsonl), Some(btf)) = (jsonl, btf) else {
                slice.ops.extend([jop, bop]);
                digest.add(u64::MAX);
                continue;
            };
            if !(jsonl.finished && btf.finished) {
                for (op, finished) in [(&mut jop, jsonl.finished), (&mut bop, btf.finished)] {
                    if !finished {
                        op.fail = Some(Fail::CapHit);
                    }
                }
                slice.ops.extend([jop, bop]);
                digest.add(u64::MAX);
                continue;
            }
            let what = format!("{} capture", app.name);
            check_report(&jsonl.report, 8, budget, &what)?;
            if jsonl.events != btf.events || jsonl.report.cycles != btf.report.cycles {
                return Err(format!(
                    "{what}: JSONL saw {} events in {} cycles, BTF {} events in {} cycles",
                    jsonl.events, jsonl.report.cycles, btf.events, btf.report.cycles
                ));
            }
            let btf_artifact = btf.btf.as_deref().unwrap_or_default();
            if let Some(jsonl_hash) = jsonl.jsonl_hash {
                let transcoded = bulksc_trace::btf::btf_to_jsonl(btf_artifact)
                    .map_err(|e| format!("{what}: BTF artifact does not decode: {e}"))?;
                if hash(transcoded.as_bytes()) != jsonl_hash {
                    return Err(format!(
                        "{what}: BTF transcoded to JSONL differs from the JSONL capture"
                    ));
                }
            }
            digest_report(&mut digest, &jsonl.report);
            digest.add(jsonl.events);
            digest.add(jsonl.bytes as u64);
            digest.add_bytes(btf_artifact);
            kips[0].0 += jsonl.report.retired;
            kips[0].1 += jop.wall;
            kips[1].0 += btf.report.retired;
            kips[1].1 += bop.wall;
            events += jsonl.events;
            jsonl_bytes += jsonl.bytes;
            btf_bytes += btf.bytes;
            reports.push(jsonl.report);
            slice.ops.extend([jop, bop]);
        }
        for (name, (instrs, secs)) in ["rate.capture_kips_jsonl", "rate.capture_kips_btf"]
            .into_iter()
            .zip(kips)
        {
            if secs > 0.0 {
                slice.values.push((name, instrs as f64 / 1e3 / secs));
            }
        }
        slice.counts = sim_counts(reports.iter().map(|r| (r, 8)));
        slice.counts.extend([
            ("trace.events", events as f64),
            ("trace.jsonl_mib", jsonl_bytes as f64 / (1 << 20) as f64),
            ("trace.btf_mib", btf_bytes as f64 / (1 << 20) as f64),
        ]);
        slice.digest = digest.0;
        Ok(slice)
    }
}
