//! Post-processing for run artifacts: the logic behind `bulksc-analyze`.
//!
//! Artifact operations take text; trace operations take a streaming
//! [`EventSource`] (either encoding, one block or line in memory at a
//! time). Neither touches the filesystem, so both unit-test in memory
//! (the `bulksc-analyze` binary is a thin argv wrapper):
//!
//! * [`report`] — summarize a `results/*.json` RunLog: per-phase commit
//!   latency percentiles, per-core cycle-loss attribution (validated to
//!   sum to the run's cycle count), and the signature false-positive rate;
//! * [`timeline`] — reconstruct per-chunk spans from an event stream,
//!   emit a Chrome trace of them, and flag every `chunk_start` that never
//!   reached a commit, squash, or abandon;
//! * [`diff`] — compare two RunLog artifacts metric-by-metric with a
//!   relative-delta threshold, for regression gating in CI;
//! * [`xray`] — conflict forensics over an attributed (`--xray`) event
//!   stream: per-site squash/deny counts, the core-pair conflict matrix,
//!   hot conflict lines with the alias / true-sharing split, cascade
//!   depths, and a Graphviz causality graph;
//! * [`query`] — filter and count events, skipping BTF blocks by index.
//!
//! Every entry point first checks the artifact's `schema`/`version` pair
//! (for traces, the [`EventSource`] does) against
//! [`bulksc_trace::SCHEMA_VERSION`] and refuses anything it does not
//! understand, so stale artifacts fail loudly instead of mis-parsing.
//! Entry points take an `origin` string (the file path, or `<stdin>`) —
//! or an [`EventSource`] that carries one — purely for error messages: a
//! schema mismatch names the offending file and both versions, so the fix
//! is obvious from the message alone.

use std::collections::BTreeMap;
use std::io::{BufRead, Seek};

use bulksc_stats::{Histogram, Table};
use bulksc_trace::{BlockMeta, Event, EventSource, Json, SquashCause, SCHEMA_VERSION};

/// The latency phases a run artifact carries, in lifecycle order.
const PHASES: [&str; 5] = [
    "execute",
    "arbitration",
    "dir_update",
    "commit_visible",
    "l1_miss",
];

/// Parse an artifact document and check its schema stamp. `origin` is the
/// file the text came from; every error names it.
fn load_runlog(text: &str, origin: &str) -> Result<Json, String> {
    let doc = Json::parse(text).ok_or_else(|| format!("{origin}: artifact is not valid JSON"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "bulksc-runlog" {
        return Err(format!(
            "{origin}: not a bulksc-runlog artifact (schema {schema:?}, expected \
             \"bulksc-runlog\"); regenerate it with a current binary"
        ));
    }
    let version = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
    if !bulksc_trace::schema_supported(version) {
        return Err(format!(
            "{origin}: artifact schema version {version} outside supported range \
             {}..={SCHEMA_VERSION}; regenerate it with a current binary",
            bulksc_trace::MIN_SCHEMA_VERSION
        ));
    }
    Ok(doc)
}

/// Rebuild a [`Histogram`] from the sparse JSON form `SimReport` emits.
fn hist_from_json(j: &Json) -> Option<Histogram> {
    let count = j.get("count")?.as_u64()?;
    let sum = j.get("sum")?.as_u64()?;
    let min = j.get("min")?.as_u64()?;
    let max = j.get("max")?.as_u64()?;
    let mut pairs = Vec::new();
    for pair in j.get("buckets")?.as_arr()? {
        let p = pair.as_arr()?;
        pairs.push((p.first()?.as_u64()? as usize, p.get(1)?.as_u64()?));
    }
    Histogram::from_parts(&pairs, count, sum, min, max)
}

/// Summarize one RunLog artifact (the text of a `results/*.json` file).
///
/// For every recorded run: a per-phase latency table (count, p50, p90,
/// p99, max, mean), the per-core cycle-loss attribution with its
/// sums-to-cycles invariant checked, and the squash false-positive rate.
pub fn report(text: &str, origin: &str) -> Result<String, String> {
    let doc = load_runlog(text, origin)?;
    let experiment = doc.get("experiment").and_then(Json::as_str).unwrap_or("?");
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "artifact has no runs array".to_string())?;
    let mut out = format!("experiment {experiment}: {} runs\n", runs.len());
    for run in runs {
        let app = run.get("app").and_then(Json::as_str).unwrap_or("?");
        let config = run.get("config").and_then(Json::as_str).unwrap_or("?");
        let rep = run
            .get("report")
            .ok_or_else(|| format!("run {app}/{config} has no report"))?;
        out.push_str(&format!("\n== {app} / {config} ==\n"));
        out.push_str(&run_report(app, config, rep)?);
    }
    Ok(out)
}

/// The report body for a single run.
fn run_report(app: &str, config: &str, rep: &Json) -> Result<String, String> {
    let cycles = rep
        .get("cycles")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("run {app}/{config}: no cycles field"))?;
    let mut out = String::new();

    // Phase latency percentiles (bulk configs only: baselines have no
    // chunk lifecycle, their phase histograms are empty).
    let latency = rep.get("latency");
    let mut t = Table::new(
        ["phase latency", "count", "p50", "p90", "p99", "max", "mean"]
            .map(str::to_string)
            .to_vec(),
    );
    let mut any = false;
    for phase in PHASES {
        let Some(h) = latency.and_then(|l| l.get(phase)).and_then(hist_from_json) else {
            continue;
        };
        if h.is_empty() {
            continue;
        }
        any = true;
        t.row(vec![
            phase.to_string(),
            h.count().to_string(),
            h.percentile(50.0).to_string(),
            h.percentile(90.0).to_string(),
            h.percentile(99.0).to_string(),
            h.max().to_string(),
            format!("{:.1}", h.mean()),
        ]);
    }
    if any {
        out.push_str(&t.to_string());
    } else {
        out.push_str("no phase latency samples (baseline model)\n");
    }

    // Cycle-loss attribution: one column per core, totals checked.
    if let Some(losses) = rep.get("cycle_loss").and_then(Json::as_arr) {
        if !losses.is_empty() {
            out.push_str(&cycle_loss_table(app, config, cycles, losses)?);
        }
    }

    // Squash-cause attribution and the signature false-positive rate
    // (aliasing squashes over all conflict squashes, Table 3's contrast).
    let alias = rep
        .get("alias_squashes")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let true_sharing = rep
        .get("true_squashes")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let conflicts = alias + true_sharing;
    if conflicts > 0.0 {
        out.push_str(&format!(
            "squashes/1k-instr: alias {alias:.3}, true-sharing {true_sharing:.3} \
             (signature false-positive rate {:.1}%)\n",
            100.0 * alias / conflicts
        ));
    }
    Ok(out)
}

/// Render the per-core cycle-loss table, validating each core's total.
fn cycle_loss_table(
    app: &str,
    config: &str,
    cycles: u64,
    losses: &[Json],
) -> Result<String, String> {
    // Collect the label set across cores, preserving core-0 order.
    let mut labels: Vec<String> = Vec::new();
    for loss in losses {
        for (k, _) in loss.as_obj().unwrap_or(&[]) {
            if k != "total" && !labels.contains(k) {
                labels.push(k.clone());
            }
        }
    }
    let mut header = vec!["cycle loss".to_string()];
    header.extend((0..losses.len()).map(|c| format!("core{c}")));
    let mut t = Table::new(header);
    for label in &labels {
        let mut row = vec![label.clone()];
        for loss in losses {
            row.push(
                loss.get(label)
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    .to_string(),
            );
        }
        t.row(row);
    }
    let mut total_row = vec!["total".to_string()];
    for (core, loss) in losses.iter().enumerate() {
        let total = loss.get("total").and_then(Json::as_u64).unwrap_or(0);
        if total != cycles {
            return Err(format!(
                "run {app}/{config}: core {core} cycle-loss total {total} != run cycles {cycles}"
            ));
        }
        total_row.push(total.to_string());
    }
    t.row(total_row);
    Ok(t.to_string())
}

/// The outcome of reconstructing chunk spans from an event stream.
#[derive(Debug)]
pub struct Timeline {
    /// Chrome trace (duration events, one per completed chunk span).
    pub chrome_trace: String,
    /// Spans ending in a commit.
    pub commits: u64,
    /// Spans ending in a squash.
    pub squashes: u64,
    /// Spans ending in an end-of-program abandon.
    pub abandons: u64,
    /// Commits/abandons whose `chunk_start` predates the trace (chunks
    /// already open when the tracer attached — e.g. each core's first
    /// chunk, opened at construction time). No span is emitted for them.
    pub orphan_ends: u64,
    /// `chunk_start`s that never terminated (should be empty for a
    /// complete trace of a finished run).
    pub unmatched: Vec<String>,
    /// Events read after the header. A header-only stream is valid
    /// (a run with tracing attached but nothing emitted) — callers that
    /// expected events should warn when this is zero, not fail.
    pub events: u64,
}

impl Timeline {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} spans ({} commits, {} squashes, {} abandons), {} pre-trace ends, {} unmatched",
            self.commits + self.squashes + self.abandons,
            self.commits,
            self.squashes,
            self.abandons,
            self.orphan_ends,
            self.unmatched.len()
        )
    }
}

/// Reconstruct per-chunk spans from an event stream (either encoding).
///
/// A span opens at `chunk_start` and closes at the matching
/// `chunk_commit` or `chunk_abandon`; a `squash` at `(core, seq)` closes
/// every open span on that core with sequence ≥ `seq` (the core discards
/// its whole speculative suffix). Spans become Chrome-trace duration
/// events (`"ph":"X"`) laned per core; unmatched starts are collected for
/// the caller to fail on.
pub fn timeline(events: EventSource<'_>) -> Result<Timeline, String> {
    let origin = events.origin().to_string();
    // (core, seq) -> start cycle; BTreeMap for deterministic iteration.
    let mut open: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut spans: Vec<String> = Vec::new();
    let (mut commits, mut squashes, mut abandons) = (0u64, 0u64, 0u64);
    let mut orphan_ends = 0u64;
    let mut span = |core: u32, seq: u64, start: u64, end: u64, reason: &str| {
        let entry = Json::obj([
            ("name", format!("chunk {seq} ({reason})").into()),
            ("cat", "chunk".into()),
            ("ph", "X".into()),
            ("ts", start.into()),
            ("dur", end.wrapping_sub(start).into()),
            ("pid", Json::U64(0)),
            ("tid", format!("core{core}").into()),
            (
                "args",
                Json::obj([("seq", seq.into()), ("end", reason.into())]),
            ),
        ]);
        spans.push(entry.to_string());
    };

    let mut count = 0u64;
    for item in events {
        let (t, ev) = item.map_err(|e| e.to_string())?;
        count += 1;
        match ev {
            Event::ChunkStart { core, seq } => {
                let restarted = open.insert((core, seq), t).is_some();
                if restarted {
                    return Err(format!(
                        "{origin}: chunk core{core}#{seq} started twice without \
                         terminating (again at cycle {t})"
                    ));
                }
            }
            Event::ChunkCommit { core, seq, .. } | Event::ChunkAbandon { core, seq } => {
                if let Some(start) = open.remove(&(core, seq)) {
                    let reason = if matches!(ev, Event::ChunkCommit { .. }) {
                        commits += 1;
                        "commit"
                    } else {
                        abandons += 1;
                        "abandon"
                    };
                    span(core, seq, start, t, reason);
                } else {
                    // The chunk was already open when tracing attached
                    // (every core's first chunk): terminated, but no span.
                    orphan_ends += 1;
                }
            }
            Event::Squash { core, seq, .. } => {
                // The squash discards the chunk and every younger one on
                // the same core.
                while let Some((&key, &start)) = open.range((core, seq)..(core, u64::MAX)).next() {
                    open.remove(&key);
                    squashes += 1;
                    span(key.0, key.1, start, t, "squash");
                }
            }
            _ => {} // other events carry no span boundaries
        }
    }

    let unmatched: Vec<String> = open
        .iter()
        .map(|(&(core, seq), &start)| format!("core{core}#{seq} started at cycle {start}"))
        .collect();

    let mut chrome = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            chrome.push(',');
        }
        chrome.push('\n');
        chrome.push_str(s);
    }
    chrome.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");

    Ok(Timeline {
        chrome_trace: chrome,
        commits,
        squashes,
        abandons,
        orphan_ends,
        unmatched,
        events: count,
    })
}

/// One metric delta between two artifacts.
#[derive(Debug)]
pub struct Delta {
    /// `app/config · dotted.metric.path`.
    pub path: String,
    /// Value in the first artifact.
    pub a: f64,
    /// Value in the second artifact.
    pub b: f64,
    /// Relative delta in percent (100 when appearing/disappearing).
    pub rel_pct: f64,
}

/// The outcome of comparing two RunLog artifacts.
#[derive(Debug)]
pub struct Diff {
    /// Numeric leaves compared.
    pub compared: u64,
    /// Deltas whose relative change exceeds the threshold, largest first.
    pub breaches: Vec<Delta>,
    /// Runs present in one artifact but not the other.
    pub unpaired: Vec<String>,
}

impl Diff {
    /// True if the two artifacts agree within the threshold everywhere.
    pub fn clean(&self) -> bool {
        self.breaches.is_empty() && self.unpaired.is_empty()
    }

    /// Human-readable comparison report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} metrics compared, {} over threshold, {} unpaired runs\n",
            self.compared,
            self.breaches.len(),
            self.unpaired.len()
        );
        for u in &self.unpaired {
            out.push_str(&format!("  unpaired: {u}\n"));
        }
        if !self.breaches.is_empty() {
            let mut t = Table::new(["metric", "a", "b", "delta%"].map(str::to_string).to_vec());
            for d in self.breaches.iter().take(25) {
                t.row(vec![
                    d.path.clone(),
                    format!("{:.4}", d.a),
                    format!("{:.4}", d.b),
                    format!("{:+.2}", d.rel_pct),
                ]);
            }
            out.push_str(&t.to_string());
            if self.breaches.len() > 25 {
                out.push_str(&format!("  ... and {} more\n", self.breaches.len() - 25));
            }
        }
        out
    }
}

/// Compare two RunLog artifacts; report every numeric leaf whose relative
/// delta exceeds `threshold_pct`.
///
/// Runs are matched by `(app, config)`. Histogram bucket arrays are
/// skipped (summary fields and percentiles cover them at far less noise);
/// every other numeric leaf of each run's report participates.
pub fn diff(
    a_text: &str,
    b_text: &str,
    a_origin: &str,
    b_origin: &str,
    threshold_pct: f64,
) -> Result<Diff, String> {
    let a = load_runlog(a_text, a_origin)?;
    let b = load_runlog(b_text, b_origin)?;
    let index = |doc: &Json| -> Result<BTreeMap<(String, String), Json>, String> {
        let mut map = BTreeMap::new();
        for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            let app = run.get("app").and_then(Json::as_str).unwrap_or("?");
            let config = run.get("config").and_then(Json::as_str).unwrap_or("?");
            let rep = run
                .get("report")
                .ok_or_else(|| format!("run {app}/{config} has no report"))?;
            map.insert((app.to_string(), config.to_string()), rep.clone());
        }
        Ok(map)
    };
    let runs_a = index(&a)?;
    let runs_b = index(&b)?;

    let mut compared = 0u64;
    let mut breaches: Vec<Delta> = Vec::new();
    let mut unpaired: Vec<String> = Vec::new();
    for key in runs_b.keys() {
        if !runs_a.contains_key(key) {
            unpaired.push(format!("{}/{} (second only)", key.0, key.1));
        }
    }
    for ((app, config), rep_a) in &runs_a {
        let Some(rep_b) = runs_b.get(&(app.clone(), config.clone())) else {
            unpaired.push(format!("{app}/{config} (first only)"));
            continue;
        };
        let mut leaves_a = Vec::new();
        let mut leaves_b = Vec::new();
        numeric_leaves(rep_a, String::new(), &mut leaves_a);
        numeric_leaves(rep_b, String::new(), &mut leaves_b);
        let map_b: BTreeMap<&str, f64> = leaves_b.iter().map(|(p, v)| (p.as_str(), *v)).collect();
        for (path, va) in &leaves_a {
            let Some(&vb) = map_b.get(path.as_str()) else {
                continue; // structural difference: covered by count below
            };
            compared += 1;
            let rel = relative_delta_pct(*va, vb);
            if rel > threshold_pct {
                breaches.push(Delta {
                    path: format!("{app}/{config} · {path}"),
                    a: *va,
                    b: vb,
                    rel_pct: if vb >= *va { rel } else { -rel },
                });
            }
        }
    }
    breaches.sort_by(|x, y| {
        y.rel_pct
            .abs()
            .partial_cmp(&x.rel_pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.path.cmp(&y.path))
    });
    Ok(Diff {
        compared,
        breaches,
        unpaired,
    })
}

/// Relative delta in percent, symmetric-safe for zeros.
fn relative_delta_pct(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 || b == 0.0 {
        100.0
    } else {
        100.0 * (b - a).abs() / a.abs()
    }
}

/// Collect every numeric leaf of `j` as `(dotted.path, value)`. Histogram
/// bucket arrays are skipped: their summary fields already participate.
fn numeric_leaves(j: &Json, path: String, out: &mut Vec<(String, f64)>) {
    let join = |path: &str, key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match j {
        Json::U64(_) | Json::I64(_) | Json::F64(_) => {
            if let Some(v) = j.as_f64() {
                out.push((path, v));
            }
        }
        Json::Obj(fields) => {
            for (k, v) in fields {
                if k == "buckets" {
                    continue;
                }
                numeric_leaves(v, join(&path, k), out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                numeric_leaves(v, join(&path, &i.to_string()), out);
            }
        }
        _ => {}
    }
}

/// One parsed snapshot row of a `*.metrics.jsonl` heartbeat stream.
struct MetricsSnapRow {
    wall_ns: u64,
    done: u64,
    total: u64,
    in_flight: u64,
    queue_depth: u64,
    queue_peak: u64,
    panicked: u64,
    eta_s: f64,
    is_final: bool,
}

/// Summarize a `results/<name>.metrics.jsonl` heartbeat stream: one table
/// row per snapshot plus the per-interval completion rate (jobs/s between
/// consecutive snapshots, from the monotonic `wall_ns` stamps).
pub fn metrics_report(text: &str, origin: &str) -> Result<String, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines
        .next()
        .ok_or_else(|| format!("{origin}: empty metrics stream"))?;
    let h =
        Json::parse(header).ok_or_else(|| format!("{origin}: metrics header is not valid JSON"))?;
    let schema = h.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "bulksc-metrics" {
        return Err(format!(
            "{origin}: not a bulksc-metrics stream (schema {schema:?}, expected \
             \"bulksc-metrics\"); record one with --metrics"
        ));
    }
    let version = h.get("version").and_then(Json::as_u64).unwrap_or(0);
    if !bulksc_trace::schema_supported(version) {
        return Err(format!(
            "{origin}: metrics schema version {version} outside supported range \
             {}..={SCHEMA_VERSION}",
            bulksc_trace::MIN_SCHEMA_VERSION
        ));
    }
    let name = h.get("name").and_then(Json::as_str).unwrap_or("?");
    let every_ms = h.get("every_ms").and_then(Json::as_u64).unwrap_or(0);

    let mut snaps: Vec<MetricsSnapRow> = Vec::new();
    for (lineno, line) in lines {
        let j = Json::parse(line)
            .ok_or_else(|| format!("{origin}:{}: snapshot is not valid JSON", lineno + 1))?;
        let u = |key: &str| j.get(key).and_then(Json::as_u64).unwrap_or(0);
        snaps.push(MetricsSnapRow {
            wall_ns: u("wall_ns"),
            done: u("done"),
            total: u("total"),
            in_flight: u("in_flight"),
            queue_depth: u("queue_depth"),
            queue_peak: u("queue_peak"),
            panicked: u("panicked"),
            eta_s: j.get("eta_s").and_then(Json::as_f64).unwrap_or(0.0),
            is_final: j.get("final").and_then(Json::as_bool).unwrap_or(false),
        });
    }

    let mut out = format!(
        "metrics stream {name:?} ({origin}): {} snapshots, every {every_ms} ms\n",
        snaps.len()
    );
    if snaps.is_empty() {
        out.push_str("  (no snapshots — the sweep finished inside the first interval)\n");
        return Ok(out);
    }
    let mut t = Table::new(
        [
            "t +s",
            "done",
            "total",
            "in flight",
            "queue",
            "peak",
            "panicked",
            "eta s",
            "jobs/s",
        ]
        .map(str::to_string)
        .to_vec(),
    );
    let t0 = snaps[0].wall_ns;
    let mut prev: Option<&MetricsSnapRow> = None;
    for s in &snaps {
        // Per-interval completion rate against the previous snapshot.
        let rate = match prev {
            Some(p) if s.wall_ns > p.wall_ns => {
                let dt = (s.wall_ns - p.wall_ns) as f64 / 1e9;
                format!("{:.1}", s.done.saturating_sub(p.done) as f64 / dt)
            }
            _ => "-".to_string(),
        };
        t.row(vec![
            format!(
                "{:.2}{}",
                s.wall_ns.saturating_sub(t0) as f64 / 1e9,
                if s.is_final { " (final)" } else { "" }
            ),
            s.done.to_string(),
            s.total.to_string(),
            s.in_flight.to_string(),
            s.queue_depth.to_string(),
            s.queue_peak.to_string(),
            s.panicked.to_string(),
            format!("{:.1}", s.eta_s),
            rate,
        ]);
        prev = Some(s);
    }
    out.push_str(&t.to_string());
    let last = snaps.last().unwrap();
    out.push_str(&format!(
        "{}/{} jobs done, peak queue {}, {} panicked\n",
        last.done, last.total, last.queue_peak, last.panicked
    ));
    Ok(out)
}

/// The outcome of a conflict-forensics pass over an attributed (`--xray`)
/// event stream.
#[derive(Debug)]
pub struct Xray {
    /// Human-readable forensics report.
    pub text: String,
    /// Graphviz causality graph: aggressor core → victim core, edge
    /// weight = attributed conflicts.
    pub dot: String,
    /// Squash events seen.
    pub squashes: u64,
    /// Commit-deny events seen.
    pub denies: u64,
    /// Events carrying attribution fields (0 means the run was captured
    /// without `--xray`).
    pub attributed: u64,
}

/// Summarize an attributed event stream (either encoding): per-site
/// squash/deny counts, the core-pair conflict matrix, the top-`top_n` hot
/// lines with the alias / true-sharing split, the squash-cascade depth
/// histogram, and the per-core aggressor/victim balance.
///
/// Cascade depth is derived from victim→aggressor chains: a squash whose
/// aggressor core was itself squashed since its last commit extends that
/// core's chain by one; a commit resets the core's chain. Depth 1 is an
/// isolated squash, depth ≥2 is a cascade.
///
/// All output is deterministic (BTreeMap ordering throughout), so the
/// report is byte-identical for event-identical streams.
pub fn xray(events: EventSource<'_>, top_n: usize) -> Result<Xray, String> {
    let origin = events.origin().to_string();
    let (mut squashes, mut denies, mut attributed) = (0u64, 0u64, 0u64);
    // Squash counts by cause label.
    let mut by_cause: BTreeMap<&str, u64> = BTreeMap::new();
    // site -> (squashes, denies).
    let mut sites: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    // (victim core, aggressor core) -> attributed conflicts.
    let mut matrix: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    // line -> (true-sharing, alias, deny) witness counts.
    let mut hot: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    // core -> (times victim of a squash, times denied, times aggressor).
    let mut balance: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    // Cascade chains: core -> depth of its last squash since its last
    // commit; depth -> squash count histogram.
    let mut chain: BTreeMap<u32, u64> = BTreeMap::new();
    let mut cascade: BTreeMap<u64, u64> = BTreeMap::new();

    for item in events {
        let (_, ev) = item.map_err(|e| e.to_string())?;
        // `cause` is `None` for a commit denial.
        let (victim, cause, xray) = match ev {
            Event::ChunkCommit { core, .. } => {
                chain.insert(core, 0);
                continue;
            }
            Event::Squash {
                core, cause, xray, ..
            } => {
                squashes += 1;
                *by_cause.entry(cause.label()).or_default() += 1;
                balance.entry(core).or_default().0 += 1;
                (core, Some(cause), xray)
            }
            Event::CommitDeny { core, xray, .. } => {
                denies += 1;
                balance.entry(core).or_default().1 += 1;
                (core, None, xray)
            }
            _ => continue,
        };
        let Some(attr) = xray else { continue };
        attributed += 1;
        let site = sites.entry(attr.site).or_default();
        match cause {
            Some(_) => site.0 += 1,
            None => site.1 += 1,
        }
        for &l in &attr.witnesses {
            let slot = hot.entry(l).or_default();
            match cause {
                Some(SquashCause::TrueSharing) => slot.0 += 1,
                Some(_) => slot.1 += 1,
                None => slot.2 += 1,
            }
        }
        if let Some(a) = attr.agg_core {
            *matrix.entry((victim, a)).or_default() += 1;
            balance.entry(a).or_default().2 += 1;
        }
        if cause.is_some() {
            let depth = 1 + attr
                .agg_core
                .and_then(|a| chain.get(&a))
                .copied()
                .unwrap_or(0);
            chain.insert(victim, depth);
            *cascade.entry(depth).or_default() += 1;
        }
    }

    let cause_of = |label: &str| by_cause.get(label).copied().unwrap_or(0);
    let mut text = format!(
        "xray {origin}: {squashes} squashes ({} true-sharing, {} alias, {} overflow), \
         {denies} denies, {attributed} attributed events\n",
        cause_of("true-sharing"),
        cause_of("alias"),
        cause_of("overflow"),
    );
    if attributed == 0 {
        text.push_str(
            "no attribution fields in this stream — capture it with --xray to get \
             aggressor, witness, and site forensics\n",
        );
    }

    if !sites.is_empty() {
        let mut t = Table::new(
            ["conflict site", "squashes", "denies"]
                .map(str::to_string)
                .to_vec(),
        );
        for (site, (s, d)) in &sites {
            t.row(vec![site.to_string(), s.to_string(), d.to_string()]);
        }
        text.push_str(&t.to_string());
    }

    if !matrix.is_empty() {
        let cores: std::collections::BTreeSet<u32> =
            matrix.keys().flat_map(|&(v, a)| [v, a]).collect();
        let mut header = vec!["victim \\ aggressor".to_string()];
        header.extend(cores.iter().map(|c| format!("c{c}")));
        let mut t = Table::new(header);
        for &v in &cores {
            let mut row = vec![format!("c{v}")];
            for &a in &cores {
                row.push(match matrix.get(&(v, a)) {
                    Some(n) => n.to_string(),
                    None => "-".to_string(),
                });
            }
            t.row(row);
        }
        text.push_str(&t.to_string());
    }

    if !hot.is_empty() {
        // Hottest lines first; ties broken by address for determinism.
        let mut lines: Vec<(u64, (u64, u64, u64))> = hot.into_iter().collect();
        lines.sort_by_key(|&(l, (t, a, d))| (std::cmp::Reverse(t + a + d), l));
        let mut t = Table::new(
            ["hot line", "conflicts", "true", "alias", "deny"]
                .map(str::to_string)
                .to_vec(),
        );
        for &(l, (tr, al, de)) in lines.iter().take(top_n) {
            t.row(vec![
                format!("{l:#x}"),
                (tr + al + de).to_string(),
                tr.to_string(),
                al.to_string(),
                de.to_string(),
            ]);
        }
        text.push_str(&t.to_string());
        if lines.len() > top_n {
            text.push_str(&format!("  ... and {} more lines\n", lines.len() - top_n));
        }
    }

    if !cascade.is_empty() {
        let mut t = Table::new(["cascade depth", "squashes"].map(str::to_string).to_vec());
        for (depth, n) in &cascade {
            t.row(vec![depth.to_string(), n.to_string()]);
        }
        text.push_str(&t.to_string());
    }

    if !balance.is_empty() {
        let mut t = Table::new(
            ["core", "squashed", "denied", "aggressor"]
                .map(str::to_string)
                .to_vec(),
        );
        for (core, (sq, de, ag)) in &balance {
            t.row(vec![
                format!("c{core}"),
                sq.to_string(),
                de.to_string(),
                ag.to_string(),
            ]);
        }
        text.push_str(&t.to_string());
    }

    // Causality graph: aggressor → victim, weighted by conflict count.
    let mut dot = String::from("digraph xray {\n  rankdir=LR;\n");
    for (&(v, a), &n) in &matrix {
        dot.push_str(&format!("  c{a} -> c{v} [label=\"{n}\"];\n"));
    }
    dot.push_str("}\n");

    Ok(Xray {
        text,
        dot,
        squashes,
        denies,
        attributed,
    })
}

/// A `bulksc-analyze query` predicate. Every populated dimension must
/// match; an empty filter matches everything.
#[derive(Clone, Debug, Default)]
pub struct QueryFilter {
    /// Only events issued by this core ([`Event::core_id`]).
    pub core: Option<u32>,
    /// Only these event kinds ([`Event::kind_id`]); empty = all kinds.
    pub kinds: Vec<u8>,
    /// Only events with `lo <= t <= hi`.
    pub cycles: Option<(u64, u64)>,
    /// Only events touching this line/word address ([`Event::line_addr`]).
    pub line: Option<u64>,
}

impl QueryFilter {
    /// Could a block with this index row contain a match? Conservative:
    /// never a false negative, so skipping on `false` is sound.
    pub fn block_may_match(&self, m: &BlockMeta) -> bool {
        if let Some(core) = self.core {
            if !m.may_contain_core(core) {
                return false;
            }
        }
        if !self.kinds.is_empty() && !self.kinds.iter().any(|&k| m.may_contain_kind(k)) {
            return false;
        }
        if let Some((lo, hi)) = self.cycles {
            if !m.overlaps_cycles(lo, hi) {
                return false;
            }
        }
        if let Some(addr) = self.line {
            if !m.may_contain_addr(addr) {
                return false;
            }
        }
        true
    }

    /// Does this concrete event match?
    pub fn event_matches(&self, cycle: u64, ev: &Event) -> bool {
        if let Some(core) = self.core {
            if ev.core_id() != Some(core) {
                return false;
            }
        }
        if !self.kinds.is_empty() && !self.kinds.contains(&ev.kind_id()) {
            return false;
        }
        if let Some((lo, hi)) = self.cycles {
            if cycle < lo || cycle > hi {
                return false;
            }
        }
        if let Some(addr) = self.line {
            if ev.line_addr() != Some(addr) {
                return false;
            }
        }
        true
    }

    /// Human rendering of the populated dimensions, for the report header.
    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(c) = self.core {
            parts.push(format!("core={c}"));
        }
        if !self.kinds.is_empty() {
            let names: Vec<&str> = self
                .kinds
                .iter()
                .map(|&k| Event::KIND_NAMES[k as usize])
                .collect();
            parts.push(format!("kind={}", names.join(",")));
        }
        if let Some((lo, hi)) = self.cycles {
            parts.push(format!("cycles={lo}..{hi}"));
        }
        if let Some(a) = self.line {
            parts.push(format!("line=0x{a:x}"));
        }
        if parts.is_empty() {
            "(match all)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// The aggregation axis of `query --count-by`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountBy {
    /// Event kind name.
    Kind,
    /// Issuing core (`core=N`; events without one under `(none)`).
    Core,
    /// Squash cause label (non-squash matches under `(none)`).
    Cause,
    /// Xray conflict site (unattributed matches under `(none)`).
    Site,
}

impl CountBy {
    /// Parse the `--count-by` argument.
    pub fn parse(s: &str) -> Option<CountBy> {
        Some(match s {
            "kind" => CountBy::Kind,
            "core" => CountBy::Core,
            "cause" => CountBy::Cause,
            "site" => CountBy::Site,
            _ => return None,
        })
    }

    fn key(self, ev: &Event) -> String {
        let none = || "(none)".to_string();
        match self {
            CountBy::Kind => ev.name().to_string(),
            CountBy::Core => ev.core_id().map_or_else(none, |c| format!("core={c}")),
            CountBy::Cause => ev
                .squash_cause()
                .map_or_else(none, |c| c.label().to_string()),
            CountBy::Site => ev.xray_site().map_or_else(none, str::to_string),
        }
    }

    fn label(self) -> &'static str {
        match self {
            CountBy::Kind => "kind",
            CountBy::Core => "core",
            CountBy::Cause => "cause",
            CountBy::Site => "site",
        }
    }
}

/// The result of one query: matched lines (JSONL-rendered, capped at the
/// limit), the aggregation, and — for indexed input — proof of how much
/// work the index saved.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// How the filter rendered (for the report header).
    pub filter: String,
    /// Matching events re-rendered as JSONL, up to the caller's limit.
    pub lines: Vec<String>,
    /// Total matching events (may exceed `lines.len()`).
    pub matched: u64,
    /// Events actually decoded and tested.
    pub scanned: u64,
    /// Blocks in the artifact (0 for JSONL full scans).
    pub blocks_total: usize,
    /// Blocks the index let the query decode.
    pub blocks_decoded: usize,
    /// Blocks skipped without decoding.
    pub blocks_skipped: usize,
    /// `--count-by` table, sorted by descending count then key.
    pub agg: Option<(CountBy, Vec<(String, u64)>)>,
}

impl QueryReport {
    /// Render the report. `stats` adds the block-skip line (the proof the
    /// index worked); omit it for format-agnostic output.
    pub fn render(&self, origin: &str, stats: bool) -> String {
        let mut out = format!("# query {origin}\nfilter: {}\n", self.filter);
        if stats {
            out.push_str(&format!(
                "blocks: {} total, {} decoded, {} skipped by index\n",
                self.blocks_total, self.blocks_decoded, self.blocks_skipped
            ));
        }
        out.push_str(&format!(
            "matched {} of {} scanned events\n",
            self.matched, self.scanned
        ));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let shown = self.lines.len() as u64;
        if self.matched > shown {
            out.push_str(&format!(
                "... ({} more; raise --limit to see them)\n",
                self.matched - shown
            ));
        }
        if let Some((by, rows)) = &self.agg {
            out.push_str(&format!("count by {}:\n", by.label()));
            let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (key, n) in rows {
                out.push_str(&format!("  {key:<width$}  {n}\n"));
            }
        }
        out
    }
}

/// Run a query over a trace in either encoding. On BTF input, blocks
/// whose index row cannot match the filter are **never decoded** —
/// `blocks_skipped` counts them, and the skip-proof test pins that
/// behaviour; JSONL input is scanned in full with identical results.
/// `limit` caps rendered lines (0 = unlimited); counting is never capped.
pub fn query<'a, R: BufRead + Seek + 'a>(
    input: R,
    origin: &str,
    filter: &'a QueryFilter,
    count_by: Option<CountBy>,
    limit: usize,
) -> Result<QueryReport, String> {
    let mut events = EventSource::indexed(input, origin, |m| filter.block_may_match(m))
        .map_err(|e| e.to_string())?;
    let (mut lines, mut matched, mut scanned) = (Vec::new(), 0u64, 0u64);
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for item in &mut events {
        let (cycle, ev) = item.map_err(|e| e.to_string())?;
        scanned += 1;
        if !filter.event_matches(cycle, &ev) {
            continue;
        }
        matched += 1;
        if limit == 0 || lines.len() < limit {
            lines.push(ev.jsonl(cycle));
        }
        if let Some(by) = count_by {
            *counts.entry(by.key(&ev)).or_insert(0) += 1;
        }
    }
    let agg = count_by.map(|by| {
        let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        (by, rows)
    });
    let blocks = events.blocks();
    Ok(QueryReport {
        filter: filter.describe(),
        lines,
        matched,
        scanned,
        blocks_total: blocks.total,
        blocks_decoded: blocks.decoded,
        blocks_skipped: blocks.skipped,
        agg,
    })
}

/// Render a BTF artifact's observability footprint: format, size, and
/// block/index statistics. This is what `report` prints for a `.btf`
/// companion.
pub fn btf_stats<R: std::io::Read + std::io::Seek>(
    btf: &bulksc_trace::IndexedBtf<R>,
    origin: &str,
) -> String {
    let metas = btf.index();
    let events: u64 = metas.iter().map(|m| m.count as u64).sum();
    let payload: u64 = metas.iter().map(|m| m.len as u64).sum();
    let mut kind_mask = 0u32;
    let mut core_mask = 0u64;
    let (mut min_cycle, mut max_cycle) = (u64::MAX, 0u64);
    for m in metas {
        kind_mask |= m.kind_mask;
        core_mask |= m.core_mask;
        if m.count > 0 {
            min_cycle = min_cycle.min(m.min_cycle);
            max_cycle = max_cycle.max(m.max_cycle);
        }
    }
    let kinds: Vec<&str> = Event::KIND_NAMES
        .iter()
        .enumerate()
        .filter(|(i, _)| kind_mask & (1 << i) != 0)
        .map(|(_, &n)| n)
        .collect();
    let mut out = format!(
        "# trace {origin}\nformat: btf (schema v{}), {} bytes\n",
        btf.version(),
        btf.file_len()
    );
    out.push_str(&format!(
        "blocks: {} ({} payload bytes, {} index bytes)\n",
        metas.len(),
        payload,
        metas.len() * 64 + 4
    ));
    if events == 0 {
        out.push_str("events: 0\n");
        return out;
    }
    out.push_str(&format!(
        "events: {events} ({:.1} bytes/event), cycles {min_cycle}..{max_cycle}\n",
        btf.file_len() as f64 / events as f64,
    ));
    out.push_str(&format!(
        "kinds: {}\ncores (bitmap): {}\n",
        kinds.join(","),
        core_mask.count_ones()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::RunLog;
    use crate::run_app;
    use bulksc::{BulkConfig, Model};

    fn xray_of(text: &str, origin: &str, top_n: usize) -> Result<Xray, String> {
        let events = EventSource::new(text.as_bytes(), origin).map_err(|e| e.to_string())?;
        xray(events, top_n)
    }

    fn timeline_of(text: &str, origin: &str) -> Result<Timeline, String> {
        timeline(EventSource::new(text.as_bytes(), origin).map_err(|e| e.to_string())?)
    }

    #[test]
    fn xray_report_attributes_conflicts() {
        let header = bulksc_trace::jsonl_header();
        let trace = format!(
            "{header}\n\
             {{\"t\":1,\"ev\":\"commit_deny\",\"core\":1,\"seq\":4,\"agg_core\":0,\"agg_seq\":2,\"site\":\"arb\",\"witness\":[16]}}\n\
             {{\"t\":5,\"ev\":\"squash\",\"core\":1,\"seq\":4,\"cause\":\"true-sharing\",\"squashed_instrs\":100,\"agg_core\":0,\"agg_seq\":2,\"site\":\"wsig\",\"witness\":[16,17]}}\n\
             {{\"t\":9,\"ev\":\"squash\",\"core\":2,\"seq\":7,\"cause\":\"alias\",\"squashed_instrs\":50,\"agg_core\":1,\"agg_seq\":4,\"site\":\"wsig\",\"witness\":[]}}\n\
             {{\"t\":12,\"ev\":\"chunk_commit\",\"core\":1,\"seq\":5,\"read_lines\":1,\"write_lines\":1,\"priv_lines\":0}}\n\
             {{\"t\":15,\"ev\":\"squash\",\"core\":3,\"seq\":1,\"cause\":\"overflow\",\"squashed_instrs\":10,\"site\":\"overflow\",\"witness\":[]}}\n"
        );
        let x = xray_of(&trace, "mem", 10).unwrap();
        assert_eq!(x.squashes, 3);
        assert_eq!(x.denies, 1);
        assert_eq!(x.attributed, 4);
        assert!(
            x.text.contains("1 true-sharing, 1 alias, 1 overflow"),
            "{}",
            x.text
        );
        // Hot line 0x10 appears as both a deny and a true-sharing witness.
        assert!(x.text.contains("0x10"), "{}", x.text);
        assert!(x.text.contains("0x11"), "{}", x.text);
        // Core 2's squash was aggressed by core 1, whose own squash is
        // still live: a depth-2 cascade.
        assert!(x.text.contains("cascade depth"), "{}", x.text);
        let cascade_rows: Vec<&str> = x
            .text
            .lines()
            .skip_while(|l| !l.contains("cascade depth"))
            .take(4)
            .collect();
        assert!(
            cascade_rows.iter().any(|l| l.trim_start().starts_with('2')),
            "depth-2 row present: {cascade_rows:?}"
        );
        // Causality edges run aggressor → victim.
        assert!(x.dot.contains("c0 -> c1"), "{}", x.dot);
        assert!(x.dot.contains("c1 -> c2"), "{}", x.dot);
        // Deterministic: same stream, same bytes.
        let again = xray_of(&trace, "mem", 10).unwrap();
        assert_eq!(x.text, again.text);
        assert_eq!(x.dot, again.dot);
    }

    #[test]
    fn xray_flags_unattributed_streams_and_bad_headers() {
        let header = bulksc_trace::jsonl_header();
        let trace = format!(
            "{header}\n{{\"t\":5,\"ev\":\"squash\",\"core\":1,\"seq\":4,\
             \"cause\":\"alias\",\"squashed_instrs\":7}}\n"
        );
        let x = xray_of(&trace, "mem", 10).unwrap();
        assert_eq!(x.squashes, 1);
        assert_eq!(x.attributed, 0);
        assert!(x.text.contains("--xray"), "{}", x.text);
        assert!(xray_of("", "mem", 10).is_err());
        assert!(xray_of("{\"schema\":\"other\"}\n", "mem", 10).is_err());
        assert!(xray_of("{\"schema\":\"bulksc-trace\",\"version\":999}\n", "mem", 10).is_err());
    }

    #[test]
    fn xray_capture_round_trips_through_the_analyzer() {
        let stream = crate::xray::capture_stream(2_000);
        let x = xray_of(&stream, "mem", 10).unwrap();
        assert!(
            x.attributed > 0,
            "pinned capture must contain attributed events"
        );
        assert!(x.text.contains("conflict site"), "{}", x.text);
        // And the capture itself is deterministic.
        assert_eq!(stream, crate::xray::capture_stream(2_000));
    }

    #[test]
    fn metrics_report_renders_snapshots_and_rates() {
        let stream = "\
{\"schema\":\"bulksc-metrics\",\"version\":4,\"name\":\"fig9\",\"every_ms\":100}
{\"wall_ns\":1000000000,\"done\":2,\"total\":13,\"in_flight\":2,\"queue_depth\":9,\"queue_peak\":13,\"panicked\":0,\"eta_s\":5.5,\"final\":false}
{\"wall_ns\":2000000000,\"done\":6,\"total\":13,\"in_flight\":2,\"queue_depth\":5,\"queue_peak\":13,\"panicked\":0,\"eta_s\":2.3,\"final\":false}
{\"wall_ns\":3000000000,\"done\":13,\"total\":13,\"in_flight\":0,\"queue_depth\":0,\"queue_peak\":13,\"panicked\":0,\"eta_s\":0.0,\"final\":true}
";
        let out = metrics_report(stream, "results/fig9.metrics.jsonl").unwrap();
        assert!(out.contains("\"fig9\""), "{out}");
        assert!(out.contains("3 snapshots"), "{out}");
        // Interval rates: (6-2)/1s = 4.0 and (13-6)/1s = 7.0 jobs/s.
        assert!(out.contains("4.0"), "{out}");
        assert!(out.contains("7.0"), "{out}");
        assert!(out.contains("(final)"), "{out}");
        assert!(out.contains("13/13 jobs done, peak queue 13"), "{out}");

        // Header-only stream (sweep beat the first interval) still renders.
        let empty =
            "{\"schema\":\"bulksc-metrics\",\"version\":4,\"name\":\"t\",\"every_ms\":100}\n";
        let out = metrics_report(empty, "x").unwrap();
        assert!(out.contains("0 snapshots"), "{out}");

        // Wrong schema / unsupported version are refused with names.
        let e = metrics_report("{\"schema\":\"nope\"}", "bad.jsonl").unwrap_err();
        assert!(
            e.contains("bad.jsonl") && e.contains("bulksc-metrics"),
            "{e}"
        );
        let e = metrics_report("{\"schema\":\"bulksc-metrics\",\"version\":1}", "old.jsonl")
            .unwrap_err();
        assert!(e.contains("version 1"), "{e}");
    }

    #[test]
    fn metrics_report_tolerates_older_snapshots_and_empty_streams() {
        // A v3-era snapshot row without wall_ns: the rate column degrades
        // to a computed value against stamp 0, no panic, and the v3
        // header is still accepted (additive schema history).
        let stream = "\
{\"schema\":\"bulksc-metrics\",\"version\":3,\"name\":\"old\",\"every_ms\":100}
{\"done\":2,\"total\":4,\"in_flight\":1,\"queue_depth\":1,\"queue_peak\":4,\"panicked\":0,\"eta_s\":1.0,\"final\":false}
{\"wall_ns\":2000000000,\"done\":4,\"total\":4,\"in_flight\":0,\"queue_depth\":0,\"queue_peak\":4,\"panicked\":0,\"eta_s\":0.0,\"final\":true}
";
        let out = metrics_report(stream, "old.metrics.jsonl").unwrap();
        assert!(out.contains("2 snapshots"), "{out}");
        assert!(out.contains("4/4 jobs done"), "{out}");

        // A fully empty file is a named error, not a panic.
        let e = metrics_report("", "empty.metrics.jsonl").unwrap_err();
        assert!(e.contains("empty.metrics.jsonl"), "{e}");
    }

    fn sample_runlog() -> String {
        let app = bulksc_workloads::by_name("lu").unwrap();
        let r = run_app(Model::Bulk(BulkConfig::bsc_dypvt()), &app, 1_500);
        let mut log = RunLog::new("analyze-test", 1_500);
        log.record("lu", "BSCdypvt", &r);
        let mut text = log.to_json().to_string();
        text.push('\n');
        text
    }

    #[test]
    fn report_summarizes_a_runlog() {
        let text = sample_runlog();
        let out = report(&text, "results/analyze-test.json").expect("report succeeds");
        assert!(out.contains("analyze-test"));
        assert!(out.contains("lu / BSCdypvt"));
        assert!(out.contains("arbitration"), "phase table present: {out}");
        assert!(out.contains("committed"), "cycle-loss table present");
        assert!(out.contains("total"));
    }

    #[test]
    fn report_rejects_wrong_schema() {
        assert!(report("{\"schema\":\"nope\"}", "x.json").is_err());
        assert!(report("{\"schema\":\"bulksc-runlog\",\"version\":1}", "x.json").is_err());
        assert!(report("not json", "x.json").is_err());
    }

    #[test]
    fn schema_errors_name_the_file_and_both_versions() {
        // Wrong schema string: the message carries the path and what was
        // found vs expected.
        let e = report("{\"schema\":\"nope\"}", "results/old.json").unwrap_err();
        assert!(e.contains("results/old.json"), "{e}");
        assert!(e.contains("nope") && e.contains("bulksc-runlog"), "{e}");
        // Stale version: the message carries both version numbers.
        let e = report(
            "{\"schema\":\"bulksc-runlog\",\"version\":1}",
            "results/stale.json",
        )
        .unwrap_err();
        assert!(e.contains("results/stale.json"), "{e}");
        assert!(
            e.contains("version 1") && e.contains(&SCHEMA_VERSION.to_string()),
            "{e}"
        );
        // Invalid JSON: still names the file.
        let e = report("not json", "results/garbage.json").unwrap_err();
        assert!(e.contains("results/garbage.json"), "{e}");
        // Trace loader: same contract.
        let e = timeline_of(
            "{\"schema\":\"bulksc-trace\",\"version\":999}\n",
            "run.trace.jsonl",
        )
        .unwrap_err();
        assert!(e.contains("run.trace.jsonl"), "{e}");
        assert!(
            e.contains("999") && e.contains(&SCHEMA_VERSION.to_string()),
            "{e}"
        );
        // Diff names whichever side is broken.
        let good = sample_runlog();
        let e = diff(&good, "not json", "a.json", "b.json", 0.0).unwrap_err();
        assert!(e.contains("b.json") && !e.contains("a.json"), "{e}");
    }

    #[test]
    fn diff_of_identical_artifacts_is_clean() {
        let text = sample_runlog();
        let d = diff(&text, &text, "a.json", "b.json", 0.0).expect("diff succeeds");
        assert!(d.clean(), "self-diff must be clean: {}", d.render());
        assert!(d.compared > 30, "compares many metrics: {}", d.compared);
    }

    #[test]
    fn diff_detects_arbiter_config_change_at_one_percent() {
        // The acceptance gate: two runs that differ only in the arbiter
        // organization (1 range arbiter vs 4 + G-arbiter) disagree on
        // commit-latency and denial metrics well past a 1% threshold.
        use bulksc::{SimReport, System, SystemConfig};
        use bulksc_workloads::{SyntheticApp, ThreadProgram};
        let app = bulksc_workloads::by_name("ocean").unwrap();
        let artifact = |config: BulkConfig, dirs: u32| {
            let mut cfg = SystemConfig::cmp8(Model::Bulk(config));
            cfg.dirs = dirs;
            cfg.budget = 1_500;
            let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
                .map(|t| {
                    Box::new(SyntheticApp::new(app, t, cfg.cores, crate::SEED))
                        as Box<dyn ThreadProgram>
                })
                .collect();
            let mut sys = System::new(cfg, programs);
            assert!(sys.run(u64::MAX / 4));
            let r = SimReport::collect(&sys);
            let mut log = RunLog::new("arb-compare", 1_500);
            // Same config label on both sides so the runs pair up.
            log.record("ocean", "arb", &r);
            let mut text = log.to_json().to_string();
            text.push('\n');
            text
        };
        let one = artifact(BulkConfig::bsc_base(), 1);
        let four = artifact(BulkConfig::bsc_base().with_arbiters(4), 4);
        let d = diff(&one, &four, "one.json", "four.json", 1.0).expect("diff succeeds");
        assert!(
            !d.clean(),
            "different arbiter configs must breach a 1% threshold"
        );
        // And the same artifact against itself stays clean at 0%.
        assert!(diff(&one, &one, "one.json", "one.json", 0.0)
            .unwrap()
            .clean());
    }

    #[test]
    fn diff_flags_changed_metrics() {
        let text = sample_runlog();
        let bumped = text.replace("\"cycles\":", "\"cycles\":9");
        let d = diff(&text, &bumped, "a.json", "b.json", 1.0).expect("diff succeeds");
        assert!(!d.clean());
        assert!(d.breaches.iter().any(|b| b.path.contains("cycles")));
        let rendered = d.render();
        assert!(rendered.contains("cycles"));
    }

    #[test]
    fn timeline_matches_every_chunk_start() {
        let header = bulksc_trace::jsonl_header();
        let trace = format!(
            "{header}\n\
             {{\"t\":0,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}}\n\
             {{\"t\":5,\"ev\":\"chunk_start\",\"core\":0,\"seq\":1}}\n\
             {{\"t\":9,\"ev\":\"chunk_commit\",\"core\":0,\"seq\":0,\"read_lines\":1,\"write_lines\":1,\"priv_lines\":0}}\n\
             {{\"t\":12,\"ev\":\"chunk_start\",\"core\":0,\"seq\":2}}\n\
             {{\"t\":15,\"ev\":\"squash\",\"core\":0,\"seq\":1,\"cause\":\"alias\",\"squashed_instrs\":4}}\n\
             {{\"t\":20,\"ev\":\"chunk_start\",\"core\":0,\"seq\":1}}\n\
             {{\"t\":25,\"ev\":\"chunk_abandon\",\"core\":0,\"seq\":1}}\n"
        );
        let tl = timeline_of(&trace, "mem").expect("timeline succeeds");
        assert_eq!(tl.commits, 1);
        assert_eq!(tl.squashes, 2, "squash closes seq 1 and the younger 2");
        assert_eq!(tl.abandons, 1);
        assert!(tl.unmatched.is_empty(), "unmatched: {:?}", tl.unmatched);
        assert_eq!(tl.orphan_ends, 0);
        assert!(bulksc_trace::json::is_valid(&tl.chrome_trace));
        assert!(tl.summary().contains("4 spans"));
    }

    #[test]
    fn timeline_reports_unterminated_chunks() {
        let header = bulksc_trace::jsonl_header();
        let trace = format!("{header}\n{{\"t\":0,\"ev\":\"chunk_start\",\"core\":2,\"seq\":7}}\n");
        let tl = timeline_of(&trace, "mem").expect("parse succeeds");
        assert_eq!(tl.unmatched, vec!["core2#7 started at cycle 0"]);
    }

    #[test]
    fn timeline_rejects_bad_headers() {
        assert!(timeline_of("", "mem").is_err());
        assert!(timeline_of("{\"schema\":\"bulksc-trace\",\"version\":999}\n", "mem").is_err());
        assert!(timeline_of("{\"schema\":\"other\"}\n", "mem").is_err());
    }

    #[test]
    fn timeline_accepts_header_only_trace() {
        // A valid stream with zero events (tracer attached, nothing
        // emitted) is not an error: zero spans, zero events, and a chrome
        // trace that still parses.
        let header = bulksc_trace::jsonl_header();
        for text in [header.clone(), format!("{header}\n")] {
            let tl = timeline_of(&text, "empty.trace.jsonl").expect("header-only trace is valid");
            assert_eq!(tl.events, 0);
            assert_eq!(tl.commits + tl.squashes + tl.abandons, 0);
            assert!(tl.unmatched.is_empty());
            assert!(bulksc_trace::json::is_valid(&tl.chrome_trace));
        }
    }

    /// Satellite check for every Chrome trace we emit: parses with the
    /// in-repo reader, has a traceEvents array, and each lane's `ts`
    /// values are monotonically non-decreasing with sane `dur`.
    fn assert_chrome_sane(text: &str) {
        let doc = Json::parse(text).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let mut last_ts: BTreeMap<String, u64> = BTreeMap::new();
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            let ts = ev.get("ts").and_then(Json::as_u64).expect("ts is u64");
            let _dur = ev.get("dur").and_then(Json::as_u64).expect("dur is u64");
            let tid = ev
                .get("tid")
                .and_then(Json::as_str)
                .expect("tid labels the lane")
                .to_string();
            if let Some(prev) = last_ts.get(&tid) {
                assert!(ts >= *prev, "lane {tid}: ts {ts} < previous {prev}");
            }
            last_ts.insert(tid, ts);
        }
    }

    #[test]
    fn chrome_traces_are_valid_and_monotonic() {
        // Timeline chrome trace from a real traced run.
        use bulksc::{BulkConfig, Model, System, SystemConfig};
        use bulksc_trace::{JsonlTracer, TraceHandle};
        use bulksc_workloads::{SyntheticApp, ThreadProgram};
        let app = bulksc_workloads::by_name("lu").unwrap();
        let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
        cfg.budget = 1_000;
        let programs: Vec<Box<dyn ThreadProgram>> = (0..cfg.cores)
            .map(|t| {
                Box::new(SyntheticApp::new(app, t, cfg.cores, crate::SEED))
                    as Box<dyn ThreadProgram>
            })
            .collect();
        let mut sys = System::new(cfg, programs);
        let sink = JsonlTracer::shared();
        let mut handle = TraceHandle::off();
        handle.attach(sink.clone());
        sys.set_tracer(handle);
        assert!(sys.run(u64::MAX / 4));
        let jsonl = sink.borrow().contents().to_string();
        let tl = timeline_of(&jsonl, "mem").expect("timeline succeeds");
        assert!(tl.events > 0, "traced run emits events");
        assert_chrome_sane(&tl.chrome_trace);

        // Profiler chrome trace from a real perf scenario.
        let cell = crate::perf::matrix()
            .into_iter()
            .find(|s| s.name == "bsc8")
            .unwrap();
        let r = crate::perf::run_scenario(&cell, 800, 0, 1);
        let doc = crate::perf::perf_json(&[r], &[], "chrome-test", 800, 0, 1).to_string();
        let chrome = crate::perf::prof_chrome(&doc, "mem").expect("prof chrome renders");
        assert_chrome_sane(&chrome);
    }
}
