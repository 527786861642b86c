//! `trace_analyze`: the read side of tracing, with no simulator in the
//! timed region. Set-up captures one radix run (BSCdypvt, attribution on)
//! into a BTF file and a JSONL file; each slice then runs the
//! `bulksc-analyze` CLI over them as child processes: `check --stream` on
//! both files, and `xray`, `timeline` and `query --count-by kind` on the
//! BTF file. Each child is timed and its peak resident set taken from the
//! kernel.

use std::path::{Path, PathBuf};
use std::process::Command;

use bulksc::{BulkConfig, Model, SimReport};
use bulksc_trace::{BtfTracer, Json, JsonlTracer, TraceHandle};
use bulksc_workloads::by_name;

use crate::child;
use crate::harness::{Family, Fnv, Op, Slice, Workload};
use crate::sim::{check_report, digest_report, input_seed, sim_counts, simulate};

const NAME: &str = "trace_analyze";

/// The timed subcommands in slice order: name, arguments (`{btf}` and
/// `{jsonl}` stand for the captured files), and the per-layer metrics of
/// its share of the CLI time and its peak resident set.
const COMMANDS: [(&str, &[&str], &str, Option<&str>); 5] = [
    (
        "check_btf",
        &["check", "--stream", "--jobs", "1", "{btf}"],
        "analyze.check_btf_pct",
        Some("analyze.check_btf_rss_mib"),
    ),
    (
        "check_jsonl",
        &["check", "--stream", "--jobs", "1", "{jsonl}"],
        "analyze.check_jsonl_pct",
        Some("analyze.check_jsonl_rss_mib"),
    ),
    (
        "xray",
        &["xray", "{btf}"],
        "analyze.xray_pct",
        Some("analyze.xray_rss_mib"),
    ),
    (
        "timeline",
        &["timeline", "{btf}"],
        "analyze.timeline_pct",
        Some("analyze.timeline_rss_mib"),
    ),
    (
        "query",
        &["query", "{btf}", "--count-by", "kind"],
        "analyze.query_pct",
        None,
    ),
];

/// What the capture left behind.
struct Captured {
    report: SimReport,
    events: u64,
    btf_bytes: u64,
    jsonl_bytes: u64,
}

pub struct TraceAnalyze {
    seed: u64,
    budget: u64,
    cli: PathBuf,
    dir: PathBuf,
    captured: Option<Captured>,
    /// The largest child so far, in MiB.
    peak_rss_mib: f64,
}

impl TraceAnalyze {
    /// `cli` is the `bulksc-analyze` binary; the captured files go in a
    /// directory of their own under `out`, removed when this is dropped.
    pub fn new(seed: u64, smoke: bool, cli: PathBuf, out: &Path) -> TraceAnalyze {
        TraceAnalyze {
            seed,
            budget: if smoke { 1_000 } else { 50_000 },
            cli,
            dir: out.join(format!("trace_analyze-{}", std::process::id())),
            captured: None,
            peak_rss_mib: 0.0,
        }
    }

    fn path(&self, ext: &str) -> PathBuf {
        self.dir.join(format!("radix.{ext}"))
    }
}

impl Drop for TraceAnalyze {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The number just before `suffix` in `text`.
fn number_before(text: &str, suffix: &str) -> Option<u64> {
    let head = &text[..text.find(suffix)?];
    head.rsplit(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// What `check --stream` certified: (accesses, witness edges, ambiguous
/// reads, witness hash).
fn certificate(stdout: &str) -> Option<(u64, u64, u64, String)> {
    Some((
        number_before(stdout, " accesses in ")?,
        number_before(stdout, " witness edges")?,
        number_before(stdout, " ambiguous reads")?,
        stdout
            .split("witness hash ")
            .nth(1)?
            .split_whitespace()
            .next()?
            .to_string(),
    ))
}

impl Workload for TraceAnalyze {
    fn sizes(&self) -> Json {
        Json::obj([
            ("app", "radix".into()),
            ("cores", 8u64.into()),
            ("workers", 1u64.into()),
            ("budget_per_core", self.budget.into()),
            (
                "commands",
                Json::Arr(COMMANDS.iter().map(|c| c.0.into()).collect()),
            ),
        ])
    }

    fn setup(&mut self) -> Result<(), String> {
        let app = by_name("radix").expect("catalog app");
        let seed = input_seed(self.seed, NAME, 0);
        let (jsonl, btf) = (JsonlTracer::shared(), BtfTracer::shared());
        let mut handle = TraceHandle::off();
        handle.attach(jsonl.clone());
        handle.attach(btf.clone());
        let model = Model::Bulk(BulkConfig::bsc_dypvt().with_xray());
        let (report, finished) = simulate(model, &app, self.budget, seed, handle);
        if !finished {
            return Err("capture run hit its cycle cap".to_string());
        }
        check_report(&report, 8, self.budget, "capture")?;
        let btf_bytes = btf.borrow_mut().finish_bytes();
        let (jsonl, btf) = (jsonl.borrow(), btf.borrow());
        if jsonl.lines() != btf.events() {
            return Err(format!(
                "capture: JSONL saw {} events, BTF {}",
                jsonl.lines(),
                btf.events()
            ));
        }
        let write = |path: PathBuf, bytes: &[u8]| {
            std::fs::write(&path, bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        write(self.path("btf"), &btf_bytes)?;
        write(self.path("jsonl"), jsonl.contents().as_bytes())?;
        self.captured = Some(Captured {
            report,
            events: btf.events(),
            btf_bytes: btf_bytes.len() as u64,
            jsonl_bytes: jsonl.contents().len() as u64,
        });
        Ok(())
    }

    /// Slices are identical whether traced or not: the profiler cannot see
    /// into the child processes, so only the spans around them exist.
    fn slice(&mut self, _k: usize, _traced: bool) -> Result<Slice, String> {
        let (btf, jsonl) = (self.path("btf"), self.path("jsonl"));
        let captured = self.captured.as_ref().expect("set up before slicing");
        let t0 = std::time::Instant::now();
        let mut outs = Vec::new();
        let mut ops: Vec<Op> = Vec::new();
        for (name, args, _, _) in COMMANDS {
            let args: Vec<&Path> = args
                .iter()
                .map(|&a| match a {
                    "{btf}" => btf.as_path(),
                    "{jsonl}" => jsonl.as_path(),
                    a => Path::new(a),
                })
                .collect();
            let mut cmd = Command::new(&self.cli);
            cmd.args(&args);
            let out = child::run(&mut cmd)
                .map_err(|e| format!("{name}: cannot run {}: {e}", self.cli.display()))?;
            if out.code != Some(0) {
                return Err(format!("{name}: bulksc-analyze exited with {:?}", out.code));
            }
            ops.push(Op {
                wall: out.wall,
                fail: None,
                family: Family::Host,
                prof: None,
            });
            outs.push((name, out));
        }
        let wall = t0.elapsed().as_secs_f64();

        let stdout = |name: &str| &outs.iter().find(|(n, _)| *n == name).expect("ran").1;
        let (accesses, edges, ambiguous, hash) = certificate(&stdout("check_btf").stdout)
            .ok_or("check_btf: no streaming certificate in the output")?;
        let jsonl_cert = certificate(&stdout("check_jsonl").stdout)
            .ok_or("check_jsonl: no streaming certificate in the output")?;
        if jsonl_cert != (accesses, edges, ambiguous, hash.clone()) {
            return Err(format!(
                "check certified {accesses} accesses with witness hash {hash} from BTF but \
                 {} accesses with hash {} from JSONL",
                jsonl_cert.0, jsonl_cert.3
            ));
        }
        match number_before(&stdout("timeline").stdout, " unmatched") {
            Some(0) => {}
            other => return Err(format!("timeline: {other:?} unmatched chunk spans")),
        }
        let scanned = number_before(&stdout("query").stdout, " scanned events");
        if scanned != Some(captured.events) {
            return Err(format!(
                "query scanned {scanned:?} events; the capture recorded {}",
                captured.events
            ));
        }

        for (_, out) in &outs {
            self.peak_rss_mib = self.peak_rss_mib.max(out.rss_mib);
        }
        let mut slice = Slice::new(wall, 1);
        let secs = |name: &str| stdout(name).wall;
        let cli_total: f64 = outs.iter().map(|(_, o)| o.wall).sum();
        slice.values = vec![
            (
                "rate.certify_macc_per_s_btf",
                accesses as f64 / 1e6 / secs("check_btf"),
            ),
            (
                "rate.certify_macc_per_s_jsonl",
                accesses as f64 / 1e6 / secs("check_jsonl"),
            ),
            (
                "rate.analyze_mevents_per_s",
                3.0 * captured.events as f64
                    / 1e6
                    / (secs("xray") + secs("timeline") + secs("query")),
            ),
            ("prof.coverage_pct", 100.0 * cli_total / wall),
        ];
        for ((_, out), (_, _, share, rss)) in outs.iter().zip(COMMANDS) {
            slice.values.push((share, 100.0 * out.wall / cli_total));
            if let Some(rss) = rss {
                slice.values.push((rss, out.rss_mib));
            }
        }
        slice.counts = sim_counts([(&captured.report, 8)]);
        slice.counts.extend([
            ("check.accesses", accesses as f64),
            ("check.edges", edges as f64),
            (
                "check.ambiguous_frac",
                ambiguous as f64 / accesses.max(1) as f64,
            ),
            ("trace.events", captured.events as f64),
            (
                "trace.jsonl_mib",
                captured.jsonl_bytes as f64 / (1 << 20) as f64,
            ),
            (
                "trace.btf_mib",
                captured.btf_bytes as f64 / (1 << 20) as f64,
            ),
        ]);
        let mut digest = Fnv::default();
        digest_report(&mut digest, &captured.report);
        for word in [captured.events, accesses, edges, ambiguous] {
            digest.add(word);
        }
        digest.add_bytes(hash.as_bytes());
        slice.digest = digest.0;
        slice.ops = ops;
        Ok(slice)
    }

    /// The largest child: the CLI, not this process, does the work.
    fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_mib
    }
}
