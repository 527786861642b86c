//! `bulksc-analyze`: post-process run artifacts and event traces.
//!
//! ```text
//! bulksc-analyze report    <results.json|trace.btf>...
//! bulksc-analyze timeline  <trace.jsonl|.btf> [--out <chrome.json>]
//! bulksc-analyze diff      <a.json> <b.json> [--threshold <pct>]
//! bulksc-analyze check     <trace.jsonl|.btf|->... [--model[=sc|tso]] [--jobs N]
//!                          [--metrics[=MS]] [--stream[=WINDOW]] [--window N]
//!                          [--max-rss-mb MB]
//! bulksc-analyze query     <trace.btf|.jsonl> [--core N] [--kind NAME]...
//!                          [--cycles A..B] [--line ADDR] [--count-by kind|core|cause|site]
//!                          [--limit N] [--stats]
//! bulksc-analyze convert   <in.jsonl|in.btf> <out>
//! bulksc-analyze synth-trace <N> [--cores C] [--words W] [--format jsonl|btf]
//! bulksc-analyze prof      <perf.json> [--chrome <out.json>] [--max-trace-overhead <x>]
//!                          [--max-xray-overhead <x>]
//! bulksc-analyze perf-diff <old.json> <new.json> [--threshold <pct>]
//! bulksc-analyze metrics   <name.metrics.jsonl>...
//! bulksc-analyze trend     <BENCH_label.json>...
//! bulksc-analyze xray      <name.xray.jsonl|.btf> [--dot <out.dot>] [--top N]
//! ```
//!
//! * `report` prints per-phase commit-latency percentiles, the per-core
//!   cycle-loss attribution (validated to sum to the run's cycles), and
//!   the signature false-positive rate for every run in each artifact.
//! * `timeline` rebuilds per-chunk spans from an event trace,
//!   writes a Chrome trace (open in <https://ui.perfetto.dev>), and fails
//!   if any `chunk_start` never reached a commit, squash, or abandon.
//! * `diff` compares two artifacts run-by-run; any metric whose relative
//!   delta exceeds the threshold (default 0%) makes the exit code
//!   nonzero, so CI can gate on regressions.
//! * `check` runs the `bulksc-check` conformance oracle over a
//!   value-traced event stream (a run recorded with value tracing on):
//!   prints the certificate summary on success, the full violation
//!   report — offending accesses, edge kinds, surrounding chunk
//!   lifecycle — on failure. `--model=tso` certifies against SPARC TSO
//!   instead of SC (program-order W→R edges to different addresses are
//!   not enforced; the violation banner names the model), in both batch
//!   and `--stream` modes. `-` reads the trace from stdin. Input is
//!   consumed line-at-a-time in both modes; parse errors name the file
//!   and 1-based line. With `--stream[=WINDOW]` (window also settable
//!   via `--window N`, default 2^20 accesses) the trace is certified
//!   through the windowed streaming checker in bounded memory — traces
//!   of any length — and the pool accelerates each window seal instead
//!   of fanning out over traces. `--max-rss-mb MB` fails the run with
//!   exit 1 if the process's peak RSS exceeded the bound, which is how
//!   CI proves the streaming oracle's memory stays flat. In batch mode,
//!   multiple traces are verified concurrently on the
//!   `bulksc_bench::pool` worker pool (`--jobs N`, default
//!   `BULKSC_JOBS`/available parallelism); results print in argument
//!   order, so output is identical at any width.
//! * `synth-trace` writes a synthetic N-access legal trace (the
//!   million-soak pattern: unique-value stores, loads of the current
//!   value, periodic RMWs) as JSONL on stdout with per-word generator
//!   state only — pipe it into `check - --stream` to exercise the
//!   oracle at sizes that never fit in memory.
//! * `prof` renders a `bulksc-perf` artifact's per-phase host-time
//!   breakdown; `--chrome` also writes it as a Chrome trace
//!   (flame-chart of where host time went), and `--max-trace-overhead`
//!   fails if the tracing slowdown (bsc8 / bsc8_trace KIPS) exceeds the
//!   given factor.
//! * `perf-diff` compares two `bulksc-perf` artifacts scenario-by-
//!   scenario and fails on any median-KIPS drop beyond the threshold
//!   (default 10%) — the host-throughput regression gate for CI.
//! * `metrics` renders a `--metrics` heartbeat stream
//!   (`results/<name>.metrics.jsonl`): one row per snapshot plus
//!   per-interval completion rates from the monotonic wall stamps.
//! * `trend` tabulates a `BENCH_<label>.json` trajectory: per-scenario
//!   median KIPS across every recorded suite run with last-entry deltas.
//! * `xray` reads a conflict-forensics capture (an experiment binary run
//!   with `--xray`) and renders the squash post-mortem: the
//!   victim-by-aggressor conflict matrix, the hottest conflict lines
//!   split into alias (Bloom false positive) vs true sharing, the
//!   squash-cascade depth histogram, and the per-core
//!   squashed/denied/aggressor balance. `--dot` also writes the
//!   victim→aggressor causality graph in Graphviz form; `--top N`
//!   widens the hot-line table (default 10).
//! * `query` filters a trace by core, event kind, cycle range, and/or
//!   line address, printing matching events as JSONL (capped by
//!   `--limit`, default 20, 0 = unlimited) and optionally a
//!   `--count-by kind|core|cause|site` aggregation. On a `.btf` artifact
//!   the footer index lets whole blocks be *skipped* without decoding;
//!   `--stats` prints the total/decoded/skipped block counts as proof.
//!   JSONL input falls back to a full scan with identical results.
//! * `convert` transcodes a trace between JSONL and BTF (direction
//!   sniffed from the input bytes), losslessly: `jsonl → btf → jsonl`
//!   re-emission is byte-identical, original schema version included.
//!
//! Trace-consuming subcommands (`check`, `timeline`, `xray`, `query`,
//! `convert`, `report`) sniff the input format — magic bytes for BTF, `{`
//! for JSONL — so `.btf` artifacts are consumed transparently everywhere a
//! `.jsonl` is. `timeline`, `xray`, `query` and `convert` stream through
//! one `bulksc_trace::EventSource`, holding a block or a line at a time;
//! `check` shares its open-and-sniff helper and keeps its own decoders.
//!
//! Exit codes: 0 success, 1 validation/regression failure, 2 usage or
//! unreadable/unsupported input.

use bulksc_bench::{analyze, perf};
use bulksc_trace::source::{self, Format};
use bulksc_trace::EventSource;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bulksc-analyze report <results.json|trace.btf>...\n\
         \x20      bulksc-analyze timeline <trace.jsonl|.btf> [--out <chrome.json>]\n\
         \x20      bulksc-analyze diff <a.json> <b.json> [--threshold <pct>]\n\
         \x20      bulksc-analyze check <trace.jsonl|.btf|->... [--model[=sc|tso]] [--jobs N]\n\
         \x20                           [--metrics[=MS]] [--stream[=WINDOW]] [--window N]\n\
         \x20                           [--max-rss-mb MB]\n\
         \x20      bulksc-analyze query <trace.btf|.jsonl> [--core N] [--kind NAME]...\n\
         \x20                           [--cycles A..B] [--line ADDR] \
         [--count-by kind|core|cause|site] [--limit N] [--stats]\n\
         \x20      bulksc-analyze convert <in.jsonl|in.btf> <out>\n\
         \x20      bulksc-analyze synth-trace <N> [--cores C] [--words W] [--format jsonl|btf]\n\
         \x20      bulksc-analyze prof <perf.json> [--chrome <out.json>] \
         [--max-trace-overhead <x>] [--max-xray-overhead <x>]\n\
         \x20      bulksc-analyze perf-diff <old.json> <new.json> [--threshold <pct>]\n\
         \x20      bulksc-analyze metrics <name.metrics.jsonl>...\n\
         \x20      bulksc-analyze trend <BENCH_label.json>...\n\
         \x20      bulksc-analyze xray <name.xray.jsonl|.btf> [--dot <out.dot>] [--top N]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("bulksc-analyze: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

/// Open a trace in either format (`-` = stdin) as a streaming event
/// source: the format is sniffed from its first bytes, not its name.
fn open_events(path: &str) -> Result<EventSource<'static>, ExitCode> {
    let (_, input) = source::open(path).map_err(|e| {
        eprintln!("bulksc-analyze: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    EventSource::new(input, path).map_err(|e| {
        eprintln!("bulksc-analyze: {e}");
        ExitCode::from(2)
    })
}

/// Parse an address argument: `0x`-prefixed hex or plain decimal.
fn parse_addr(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u64>().ok()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match (cmd.as_str(), &args[1..]) {
        ("report", paths) if !paths.is_empty() => {
            for path in paths {
                let bytes = match std::fs::read(path) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("bulksc-analyze: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                if bulksc_trace::btf::is_btf(&bytes) {
                    // A trace artifact, not a results file: report its
                    // format, size, and block-index shape instead.
                    match bulksc_trace::IndexedBtf::new(std::io::Cursor::new(bytes)) {
                        Ok(btf) => print!("{}", analyze::btf_stats(&btf, path)),
                        Err(e) => {
                            eprintln!("bulksc-analyze: {path}: {e}");
                            return ExitCode::from(1);
                        }
                    }
                    continue;
                }
                let text = match String::from_utf8(bytes) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("bulksc-analyze: {path}: not UTF-8 (and not BTF): {e}");
                        return ExitCode::from(2);
                    }
                };
                match analyze::report(&text, path) {
                    Ok(out) => {
                        println!("# {path}");
                        print!("{out}");
                    }
                    Err(e) => {
                        eprintln!("bulksc-analyze: {path}: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        ("timeline", rest) if !rest.is_empty() => {
            let path = &rest[0];
            let out_path = match rest[1..] {
                [] => None,
                [ref flag, ref p] if flag == "--out" => Some(p.clone()),
                _ => return usage(),
            };
            let events = match open_events(path) {
                Ok(events) => events,
                Err(code) => return code,
            };
            let tl = match analyze::timeline(events) {
                Ok(tl) => tl,
                Err(e) => {
                    eprintln!("bulksc-analyze: {e}");
                    return ExitCode::from(2);
                }
            };
            println!("{path}: {}", tl.summary());
            if tl.events == 0 {
                // Valid but empty (tracer attached, nothing emitted):
                // warn, still succeed — an empty run is not a broken one.
                eprintln!("bulksc-analyze: warning: {path}: trace has a header but no events");
            }
            if let Some(out) = out_path {
                if let Err(e) = std::fs::write(&out, &tl.chrome_trace) {
                    eprintln!("bulksc-analyze: cannot write {out}: {e}");
                    return ExitCode::from(2);
                }
                println!("wrote {out}");
            }
            if tl.unmatched.is_empty() {
                ExitCode::SUCCESS
            } else {
                for u in &tl.unmatched {
                    eprintln!("bulksc-analyze: unterminated chunk: {u}");
                }
                ExitCode::from(1)
            }
        }
        ("diff", rest) if rest.len() >= 2 => {
            let threshold = match rest[2..] {
                [] => 0.0,
                [ref flag, ref v] if flag == "--threshold" => match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => t,
                    _ => return usage(),
                },
                _ => return usage(),
            };
            let (a, b) = match (read(&rest[0]), read(&rest[1])) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            match analyze::diff(&a, &b, &rest[0], &rest[1], threshold) {
                Ok(d) => {
                    print!("{}", d.render());
                    if d.clean() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("bulksc-analyze: {e}");
                    ExitCode::from(2)
                }
            }
        }
        ("check", rest) if !rest.is_empty() => {
            use bulksc_bench::pool::{self, Job};
            use bulksc_check::{
                check_btf_reader, check_jsonl_reader, CheckError, MemoryModel, StreamConfig,
                StreamError, ValueTrace,
            };
            // Split flags off the path list (paths keep their order). `-`
            // is a path meaning stdin.
            let mut paths: Vec<&String> = Vec::new();
            let mut jobs: Option<usize> = None;
            let mut stream = false;
            let mut window: Option<usize> = None;
            let mut max_rss_mb: Option<u64> = None;
            let mut model = MemoryModel::Sc;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                let (flag, value) = if arg == "--stream" {
                    stream = true;
                    continue;
                } else if let Some(v) = arg.strip_prefix("--stream=") {
                    stream = true;
                    ("--stream", v.to_string())
                } else if *arg == "--model" || arg.starts_with("--model=") {
                    let v = match arg.strip_prefix("--model=") {
                        Some(v) => v,
                        None => match it.next() {
                            Some(v) => v.as_str(),
                            None => return usage(),
                        },
                    };
                    model = match MemoryModel::parse(v) {
                        Some(m) => m,
                        None => return usage(),
                    };
                    continue;
                } else if *arg == "--metrics" || arg.starts_with("--metrics=") {
                    // Validated (and re-read) by Heartbeat::maybe_start.
                    continue;
                } else if let Some(v) = arg.strip_prefix("--jobs=") {
                    ("--jobs", v.to_string())
                } else if arg == "--jobs" || arg == "--window" || arg == "--max-rss-mb" {
                    match it.next() {
                        Some(v) => (arg.as_str(), v.clone()),
                        None => return usage(),
                    }
                } else {
                    paths.push(arg);
                    continue;
                };
                match (flag, value.parse::<u64>()) {
                    ("--jobs", Ok(n)) if n >= 1 => jobs = Some(n as usize),
                    ("--stream", Ok(n)) | ("--window", Ok(n)) if n >= 1 => {
                        window = Some(n as usize)
                    }
                    ("--max-rss-mb", Ok(n)) if n >= 1 => max_rss_mb = Some(n),
                    _ => return usage(),
                }
            }
            if paths.is_empty() || (window.is_some() && !stream) {
                return usage();
            }

            /// One trace's verdict, rendered inside its pool job.
            enum CheckOut {
                Certified(String),
                Violation(String),
                /// Unreadable / unparseable input: stderr line, exit 2,
                /// later paths are not reported (matching the serial
                /// early-return).
                Fatal(String),
            }

            fn fatal_read(origin: &str, e: std::io::Error) -> CheckOut {
                CheckOut::Fatal(format!("bulksc-analyze: cannot read {origin}: {e}"))
            }

            /// Windowed certification of one trace (file or stdin),
            /// never holding more than the frontier in memory. The pool
            /// width parallelizes *within* each window seal.
            fn stream_one(path: &str, cfg: StreamConfig, model: MemoryModel) -> CheckOut {
                let origin = source::origin_of(path);
                let result = match source::open(path) {
                    Ok((Format::Btf, input)) => check_btf_reader(input, origin, cfg),
                    Ok((Format::Jsonl, input)) => check_jsonl_reader(input, origin, cfg),
                    Err(e) => return fatal_read(origin, e),
                };
                match result {
                    Ok(cert) if cert.accesses == 0 => CheckOut::Fatal(format!(
                        "bulksc-analyze: {origin}: no value events — was the run \
                         recorded with value tracing on?"
                    )),
                    Ok(cert) => CheckOut::Certified(format!("{origin}: {}", cert.summary())),
                    Err(StreamError::Input(m)) => CheckOut::Fatal(format!("bulksc-analyze: {m}")),
                    Err(StreamError::Check(CheckError::Violation(v))) => CheckOut::Violation(
                        format!("{origin}: {} VIOLATION\n{}", model.name(), v.report),
                    ),
                    Err(StreamError::Check(CheckError::Malformed(m))) => {
                        CheckOut::Fatal(format!("bulksc-analyze: {origin}: malformed trace: {m}"))
                    }
                }
            }

            /// Batch certification of one trace: full witness in memory,
            /// but the input is still consumed incrementally.
            fn batch_one(path: &str, model: MemoryModel) -> CheckOut {
                let origin = source::origin_of(path);
                let parsed = match source::open(path) {
                    Ok((Format::Btf, input)) => ValueTrace::from_btf_reader(input, origin),
                    Ok((Format::Jsonl, input)) => ValueTrace::from_jsonl_reader(input, origin),
                    Err(e) => return fatal_read(origin, e),
                };
                let trace = match parsed {
                    Ok(t) => t,
                    Err(e) => return CheckOut::Fatal(format!("bulksc-analyze: {e}")),
                };
                if trace.accesses.is_empty() {
                    return CheckOut::Fatal(format!(
                        "bulksc-analyze: {origin}: no value events — was the run \
                         recorded with value tracing on?"
                    ));
                }
                match trace.verify_model(model) {
                    Ok(cert) => CheckOut::Certified(format!("{origin}: {}", cert.summary())),
                    Err(CheckError::Violation(v)) => CheckOut::Violation(format!(
                        "{origin}: {} VIOLATION\n{}",
                        model.name(),
                        v.report
                    )),
                    Err(CheckError::Malformed(m)) => {
                        CheckOut::Fatal(format!("bulksc-analyze: {origin}: malformed trace: {m}"))
                    }
                }
            }

            let heartbeat = bulksc_bench::heartbeat::Heartbeat::maybe_start("check");
            let width = jobs.unwrap_or_else(pool::default_width);
            let results: Vec<CheckOut> = if stream {
                // Streaming mode: traces run one after another in bounded
                // memory; the pool accelerates each window seal instead.
                let cfg = StreamConfig::windowed(window.unwrap_or(1 << 20))
                    .with_jobs(width)
                    .with_model(model);
                paths
                    .iter()
                    .map(|path| stream_one(path, cfg.clone(), model))
                    .collect()
            } else {
                pool::run_all(
                    width,
                    paths
                        .iter()
                        .map(|path| {
                            let path = path.as_str();
                            Job::new(format!("check {path}"), move || batch_one(path, model))
                        })
                        .collect(),
                )
            };
            if let Some(hb) = heartbeat {
                hb.finish();
            }

            let mut worst = ExitCode::SUCCESS;
            for result in results {
                match result {
                    CheckOut::Certified(line) => println!("{line}"),
                    CheckOut::Violation(text) => {
                        print!("{text}");
                        worst = ExitCode::from(1);
                    }
                    CheckOut::Fatal(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Some(bound) = max_rss_mb {
                match bulksc_bench::peak_rss_kb() {
                    Some(kb) => {
                        println!(
                            "peak RSS: {:.1} MiB (bound {bound} MiB)",
                            kb as f64 / 1024.0
                        );
                        if kb > bound * 1024 {
                            eprintln!(
                                "bulksc-analyze: peak RSS {:.1} MiB exceeds --max-rss-mb {bound}",
                                kb as f64 / 1024.0
                            );
                            worst = ExitCode::from(1);
                        }
                    }
                    None => eprintln!(
                        "bulksc-analyze: warning: /proc/self/status unavailable; \
                         cannot enforce --max-rss-mb"
                    ),
                }
            }
            worst
        }
        ("query", rest) if !rest.is_empty() => {
            use bulksc_bench::analyze::{CountBy, QueryFilter};
            use bulksc_trace::Event;

            let path = &rest[0];
            let mut filter = QueryFilter {
                core: None,
                kinds: Vec::new(),
                cycles: None,
                line: None,
            };
            let mut count_by: Option<CountBy> = None;
            let mut limit: usize = 20;
            let mut stats = false;
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                if flag == "--stats" {
                    stats = true;
                    continue;
                }
                let Some(v) = it.next() else { return usage() };
                match flag.as_str() {
                    "--core" => match v.parse::<u32>() {
                        Ok(c) => filter.core = Some(c),
                        Err(_) => return usage(),
                    },
                    "--kind" => match Event::kind_id_of(v) {
                        Some(k) => filter.kinds.push(k),
                        None => {
                            eprintln!(
                                "bulksc-analyze: unknown event kind {v:?} (known: {})",
                                Event::KIND_NAMES.join(", ")
                            );
                            return ExitCode::from(2);
                        }
                    },
                    "--cycles" => {
                        let Some((lo, hi)) = v.split_once("..") else {
                            return usage();
                        };
                        match (lo.parse::<u64>(), hi.parse::<u64>()) {
                            (Ok(lo), Ok(hi)) if lo <= hi => filter.cycles = Some((lo, hi)),
                            _ => return usage(),
                        }
                    }
                    "--line" => match parse_addr(v) {
                        Some(a) => filter.line = Some(a),
                        None => return usage(),
                    },
                    "--count-by" => match CountBy::parse(v) {
                        Some(b) => count_by = Some(b),
                        None => return usage(),
                    },
                    "--limit" => match v.parse::<usize>() {
                        Ok(n) => limit = n,
                        Err(_) => return usage(),
                    },
                    _ => return usage(),
                }
            }

            // BTF input is read through its block index, so blocks the
            // filter cannot match are skipped without decoding.
            let result = match std::fs::File::open(path) {
                Ok(f) => analyze::query(
                    std::io::BufReader::with_capacity(1 << 16, f),
                    path,
                    &filter,
                    count_by,
                    limit,
                ),
                Err(e) => {
                    eprintln!("bulksc-analyze: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match result {
                Ok(report) => {
                    print!("{}", report.render(path, stats));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("bulksc-analyze: {e}");
                    ExitCode::from(2)
                }
            }
        }
        ("convert", rest) if rest.len() == 2 => {
            use bulksc_trace::source::TranscodeError;

            let (inp, outp) = (&rest[0], &rest[1]);
            // Output is written while input is read: never onto itself.
            let canonical = |p: &str| std::fs::canonicalize(p).ok();
            if canonical(inp).is_some() && canonical(inp) == canonical(outp) {
                eprintln!("bulksc-analyze: convert: {inp} and {outp} are the same file");
                return ExitCode::from(2);
            }
            let events = match open_events(inp) {
                Ok(events) => events,
                Err(code) => return code,
            };
            let out = match std::fs::File::create(outp) {
                Ok(f) => std::io::BufWriter::with_capacity(1 << 16, f),
                Err(e) => {
                    eprintln!("bulksc-analyze: cannot write {outp}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Stream in the direction the sniffed input format implies.
            let (direction, written) = match events.format() {
                Format::Btf => ("btf -> jsonl", events.write_jsonl(out)),
                Format::Jsonl => ("jsonl -> btf", events.write_btf(out)),
            };
            match written {
                Ok(bytes) => {
                    println!("{inp} -> {outp} ({direction}, {bytes} bytes)");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    // Leave no partial artifact behind.
                    let _ = std::fs::remove_file(outp);
                    match e {
                        TranscodeError::Input(e) => eprintln!("bulksc-analyze: {e}"),
                        TranscodeError::Output(e) => {
                            eprintln!("bulksc-analyze: cannot write {outp}: {e}")
                        }
                    }
                    ExitCode::from(2)
                }
            }
        }
        ("synth-trace", rest) if !rest.is_empty() => {
            use bulksc_trace::Event;
            use std::collections::HashMap;
            use std::io::Write;

            let Ok(n) = rest[0].parse::<u64>() else {
                return usage();
            };
            let mut cores: u32 = 8;
            let mut words: u64 = 64;
            let mut btf = false;
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                match (flag.as_str(), it.next()) {
                    ("--cores", Some(v)) => match v.parse::<u64>() {
                        Ok(c) if c >= 1 => cores = c as u32,
                        _ => return usage(),
                    },
                    ("--words", Some(v)) => match v.parse::<u64>() {
                        Ok(w) if w >= 1 => words = w,
                        _ => return usage(),
                    },
                    ("--format", Some(v)) => match v.as_str() {
                        "jsonl" => btf = false,
                        "btf" => btf = true,
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            // Million-soak access pattern, generated with per-word state
            // only, so a 100M-access trace can be piped straight into
            // `check - --stream` without ever touching disk — in either
            // format (the BTF writer needs no seeking).
            let stdout = std::io::stdout().lock();
            let mut mem: HashMap<u64, u64> = HashMap::new();
            let mut po = vec![0u64; cores as usize];
            let mut synth_event = move |i: u64| -> Event {
                let core = (i % cores as u64) as u32;
                let seq = i / 1000;
                let addr = i.wrapping_mul(0x9e37_79b9) % words * 8;
                let ev = if i % 35 == 4 {
                    let old = mem.get(&addr).copied().unwrap_or(0);
                    mem.insert(addr, i + 1);
                    Event::ValRmw {
                        core,
                        seq,
                        po: po[core as usize],
                        addr,
                        old,
                        new: i + 1,
                        retired_at: 10 + i,
                    }
                } else if i % 5 < 2 {
                    mem.insert(addr, i + 1);
                    Event::ValStore {
                        core,
                        seq,
                        po: po[core as usize],
                        addr,
                        value: i + 1,
                        retired_at: 10 + i,
                    }
                } else {
                    Event::ValLoad {
                        core,
                        seq,
                        po: po[core as usize],
                        addr,
                        value: mem.get(&addr).copied().unwrap_or(0),
                        retired_at: 10 + i,
                    }
                };
                po[core as usize] += 1;
                ev
            };
            let run = move || -> Result<(), std::io::Error> {
                let mut out = std::io::BufWriter::with_capacity(1 << 20, stdout);
                if btf {
                    let mut w = bulksc_trace::BtfWriter::new(out)?;
                    for i in 0..n {
                        w.push(20 + i, &synth_event(i))?;
                    }
                    w.finish()?.flush()
                } else {
                    let emit = |out: &mut dyn Write, line: String| -> Result<(), std::io::Error> {
                        out.write_all(line.as_bytes())?;
                        out.write_all(b"\n")
                    };
                    emit(&mut out, bulksc_trace::jsonl_header())?;
                    for i in 0..n {
                        emit(&mut out, synth_event(i).jsonl(20 + i))?;
                    }
                    out.flush()
                }
            };
            match run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("bulksc-analyze: cannot write trace: {e}");
                    ExitCode::from(2)
                }
            }
        }
        ("prof", rest) if !rest.is_empty() => {
            let path = &rest[0];
            let mut chrome_out: Option<String> = None;
            let mut max_overhead: Option<f64> = None;
            let mut max_xray_overhead: Option<f64> = None;
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                match (flag.as_str(), it.next()) {
                    ("--chrome", Some(p)) => chrome_out = Some(p.clone()),
                    ("--max-trace-overhead", Some(v)) => match v.parse::<f64>() {
                        Ok(x) if x > 0.0 => max_overhead = Some(x),
                        _ => return usage(),
                    },
                    ("--max-xray-overhead", Some(v)) => match v.parse::<f64>() {
                        Ok(x) if x > 0.0 => max_xray_overhead = Some(x),
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let text = match read(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            match perf::prof_report_text(&text, path) {
                Ok(out) => print!("{out}"),
                Err(e) => {
                    eprintln!("bulksc-analyze: {e}");
                    return ExitCode::from(2);
                }
            }
            if let Some(out) = chrome_out {
                let chrome = match perf::prof_chrome(&text, path) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("bulksc-analyze: {e}");
                        return ExitCode::from(2);
                    }
                };
                if let Err(e) = std::fs::write(&out, chrome) {
                    eprintln!("bulksc-analyze: cannot write {out}: {e}");
                    return ExitCode::from(2);
                }
                println!("wrote {out}");
            }
            if let Some(bound) = max_overhead {
                match perf::trace_overhead(&text, path) {
                    Ok(ratio) => {
                        println!(
                            "tracing overhead (bsc8 / bsc8_trace): {ratio:.2}x (bound {bound:.2}x)"
                        );
                        if ratio > bound {
                            eprintln!(
                                "bulksc-analyze: tracing overhead {ratio:.2}x exceeds bound {bound:.2}x"
                            );
                            return ExitCode::from(1);
                        }
                    }
                    Err(e) => {
                        eprintln!("bulksc-analyze: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Some(bound) = max_xray_overhead {
                match perf::xray_overhead(&text, path) {
                    Ok(ratio) => {
                        println!(
                            "xray overhead (bsc8_trace / bsc8_xray): {ratio:.2}x (bound {bound:.2}x)"
                        );
                        if ratio > bound {
                            eprintln!(
                                "bulksc-analyze: xray overhead {ratio:.2}x exceeds bound {bound:.2}x"
                            );
                            return ExitCode::from(1);
                        }
                    }
                    Err(e) => {
                        eprintln!("bulksc-analyze: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        ("metrics", paths) if !paths.is_empty() => {
            for path in paths {
                let text = match read(path) {
                    Ok(t) => t,
                    Err(code) => return code,
                };
                match analyze::metrics_report(&text, path) {
                    Ok(out) => print!("{out}"),
                    Err(e) => {
                        eprintln!("bulksc-analyze: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        ("trend", paths) if !paths.is_empty() => {
            for path in paths {
                let text = match read(path) {
                    Ok(t) => t,
                    Err(code) => return code,
                };
                match analyze::trend_report(&text, path) {
                    Ok(out) => print!("{out}"),
                    Err(e) => {
                        eprintln!("bulksc-analyze: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        ("xray", rest) if !rest.is_empty() => {
            let path = &rest[0];
            let mut dot_out: Option<String> = None;
            let mut top_n: usize = 10;
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                match (flag.as_str(), it.next()) {
                    ("--dot", Some(p)) => dot_out = Some(p.clone()),
                    ("--top", Some(v)) => match v.parse::<usize>() {
                        Ok(n) if n >= 1 => top_n = n,
                        _ => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let events = match open_events(path) {
                Ok(events) => events,
                Err(code) => return code,
            };
            match analyze::xray(events, top_n) {
                Ok(x) => {
                    print!("{}", x.text);
                    if let Some(out) = dot_out {
                        if let Err(e) = std::fs::write(&out, &x.dot) {
                            eprintln!("bulksc-analyze: cannot write {out}: {e}");
                            return ExitCode::from(2);
                        }
                        println!("wrote {out}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("bulksc-analyze: {e}");
                    ExitCode::from(2)
                }
            }
        }
        ("perf-diff", rest) if rest.len() >= 2 => {
            let threshold = match rest[2..] {
                [] => 10.0,
                [ref flag, ref v] if flag == "--threshold" => match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => t,
                    _ => return usage(),
                },
                _ => return usage(),
            };
            let (a, b) = match (read(&rest[0]), read(&rest[1])) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            match perf::perf_diff(&a, &b, &rest[0], &rest[1], threshold) {
                Ok(d) => {
                    print!("{}", d.render(threshold));
                    if d.clean() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("bulksc-analyze: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
