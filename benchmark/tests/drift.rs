//! `BENCHMARK.json` and the code must name the same metrics with the same
//! units: every workload, traced and untraced, is run at smoke size
//! through `run.sh`, and both what it prints and its JSON result line
//! must list exactly the metrics of the matching table.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use bulksc_trace::Json;

const WORKLOADS: [&str; 4] = ["paper_sweep", "fuzz", "trace_capture", "trace_analyze"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// name → unit of one table of `BENCHMARK.json`.
fn table(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let root = manifest_dir()
        .parent()
        .expect("benchmark/ sits in the repository");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        listed, WORKLOADS,
        "BENCHMARK.json lists the workloads the code runs"
    );
    let out = manifest_dir().join(format!("out/drift-{}", std::process::id()));

    for trace in ["0", "1"] {
        let expected = table(
            &doc,
            if trace == "1" {
                "per_layer"
            } else {
                "end_to_end"
            },
        );
        for workload in WORKLOADS {
            let run = Command::new("bash")
                .arg(manifest_dir().join("run.sh"))
                .args(["--workload", workload, "--seed", "11", "--seconds", "0.5"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(&out)
                .output()
                .expect("run.sh starts");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );

            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let in_json: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name} has a value"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                in_json, expected,
                "{workload} --trace {trace}: JSON result line"
            );

            let printed: BTreeMap<String, String> = stdout
                .lines()
                .filter_map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f.len() >= 4 && f[0] == workload).then(|| (f[1].to_string(), f[3].to_string()))
                })
                .collect();
            assert_eq!(
                printed, expected,
                "{workload} --trace {trace}: printed lines"
            );
            if trace == "0" {
                for (name, value) in result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                {
                    let v = value.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} reads {v}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}
