//! `compare A B`: two sets of result files, metric by metric.
//!
//! For each (workload, metric) both sets hold, it prints each side's
//! median and quartiles and the change of the medians. An end-to-end
//! metric whose median got worse by more than its bound in
//! `BENCHMARK.json` is a regression; one whose own spread (quartile
//! distance over median, on either side) exceeds the bound is
//! "unresolved" unless every run of B beats every run of A. Per-layer
//! metrics have no bound and are printed for information.

use std::collections::BTreeMap;
use std::path::Path;

use bulksc_stats::Table;
use bulksc_trace::Json;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Read every result file at `path` (one file, or every `*.json` in a
/// directory) into (workload, metric) → values.
fn load(path: &Path, into: &mut Samples) -> Result<(), String> {
    let files: Vec<_> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let doc = Json::parse(&text).ok_or_else(|| format!("{}: not JSON", file.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(crate::RESULT_SCHEMA) {
            return Err(format!("{}: not a benchmark result file", file.display()));
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", file.display()))?;
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                into.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(())
}

/// Each end-to-end metric's (`better`, `bound`) from `BENCHMARK.json`.
fn bounds(manifest: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let doc = Json::parse(&text).ok_or_else(|| format!("{}: not JSON", manifest.display()))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err(format!(
                "{}: malformed end_to_end entry",
                manifest.display()
            ));
        };
        out.insert(name.to_string(), (better == "lower", bound));
    }
    Ok(out)
}

fn cell(v: &[f64]) -> String {
    let [q1, med, q3] = quartiles(v);
    format!("{med:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
}

/// Compare result sets `a` and `b`; returns the process exit code (1 if
/// any end-to-end metric regressed past its bound).
pub fn main(a: &Path, b: &Path, manifest: &Path) -> Result<i32, String> {
    let (mut sa, mut sb) = (Samples::new(), Samples::new());
    load(a, &mut sa)?;
    load(b, &mut sb)?;
    let bounds = bounds(manifest)?;
    let order: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    let mut keys: Vec<&(String, String)> = sa.keys().filter(|k| sb.contains_key(*k)).collect();
    keys.sort_by_key(|k| (k.0.clone(), order.iter().position(|n| *n == k.1)));
    if keys.is_empty() {
        return Err("the two sets share no (workload, metric) pair".to_string());
    }

    let mut table = Table::new(
        [
            "workload",
            "metric",
            "A median [p25, p75]",
            "B median [p25, p75]",
            "change",
            "bound",
            "verdict",
        ]
        .map(str::to_string)
        .to_vec(),
    );
    let mut regressed = 0;
    for key in keys {
        let (workload, metric) = key;
        let (va, vb) = (&sa[key], &sb[key]);
        let ([a1, am, a3], [b1, bm, b3]) = (quartiles(va), quartiles(vb));
        let change = if am == 0.0 { 0.0 } else { (bm - am) / am };
        let (bound, verdict) = match bounds.get(metric.as_str()) {
            None => (
                String::new(),
                if am == bm { "same" } else { "-" }.to_string(),
            ),
            Some(&(lower_better, bound)) => {
                let worse = if lower_better { change } else { -change };
                let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m };
                let spread = spread(a1, am, a3).max(spread(b1, bm, b3));
                let beats = |x: f64, y: f64| if lower_better { x < y } else { x > y };
                let b_wins_all = vb.iter().all(|&y| va.iter().all(|&x| beats(y, x)));
                let verdict = if b_wins_all && worse < 0.0 {
                    "better"
                } else if spread > bound {
                    "unresolved"
                } else if worse > bound {
                    regressed += 1;
                    "REGRESSED"
                } else if -worse > bound {
                    "better"
                } else {
                    "ok"
                };
                (format!("{:.1}%", 100.0 * bound), verdict.to_string())
            }
        };
        table.row(vec![
            workload.clone(),
            metric.clone(),
            cell(va),
            cell(vb),
            format!("{:+.2}%", 100.0 * change),
            bound,
            verdict,
        ]);
    }
    print!("{table}");
    println!(
        "{regressed} end-to-end regression(s) past their bounds (A = {}, B = {})",
        a.display(),
        b.display()
    );
    Ok(i32::from(regressed > 0))
}
