//! Library implementations of the paper's figure/table experiments.
//!
//! Each function here is the whole program behind one `src/bin/` binary
//! (`fig9`, `fig10`, `fig11`, `table3`, `table4`, `ablations`): it runs
//! the experiment's app×config matrix on the [`crate::pool`] worker pool
//! and returns the rendered text plus the populated
//! [`RunLog`](crate::artifact::RunLog) artifact. The binaries are thin
//! argument-parsing wrappers; the golden-figure and parallel-determinism
//! tests call these functions directly.
//!
//! Determinism: one pool job per application row. Every job is a pure
//! function of `(app, budget)` — it builds its own `System` per run, with
//! the workspace-wide pinned [`SEED`](crate::SEED) — and the table/artifact
//! assembly below walks the results in catalog order. The returned text
//! and the artifact JSON are therefore byte-identical at any job count;
//! only the interleaving of per-app progress lines on *stderr* varies.

use crate::artifact::RunLog;
use crate::pool::{self, Job};
use crate::{geomean, run_app, run_custom};
use bulksc::{BulkConfig, Model, SimReport, SystemConfig};
use bulksc_cpu::BaselineModel;
use bulksc_net::TrafficClass;
use bulksc_sig::SignatureConfig;
use bulksc_stats::Table;
use bulksc_trace::Json;
use bulksc_workloads::{by_name, catalog};
use std::fmt::Write as _;

/// The rendered stdout text and the `--json` artifact of one experiment.
pub struct FigureOutput {
    /// Exactly what the binary prints to stdout.
    pub text: String,
    /// The populated run log (written as `results/<name>.json` on
    /// `--json`).
    pub log: RunLog,
}

fn is_rc(m: &Model) -> bool {
    matches!(m, Model::Baseline(BaselineModel::Rc))
}

/// Figure 9: speedup over RC for 8 configs × 13 apps (the paper's 7
/// plus a TSO baseline column — FIFO store buffer between SC and RC,
/// the natural midpoint BulkSC is compared against).
pub fn fig9(budget: u64, jobs: usize) -> FigureOutput {
    let mut log = RunLog::new("fig9", budget);
    let configs: Vec<Model> = vec![
        Model::Baseline(BaselineModel::Sc),
        Model::Baseline(BaselineModel::Rc),
        Model::Baseline(BaselineModel::Tso),
        Model::Baseline(BaselineModel::Scpp),
        Model::Bulk(BulkConfig::bsc_base()),
        Model::Bulk(BulkConfig::bsc_dypvt()),
        Model::Bulk(BulkConfig::bsc_exact()),
        Model::Bulk(BulkConfig::bsc_stpvt()),
    ];
    let apps = catalog();

    // One job per app: RC once, reused for the RC column (and as the
    // speedup denominator), exactly like the serial loop did.
    let per_app: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|app| {
                let app = *app;
                let configs = &configs;
                Job::new(format!("fig9 {}", app.name), move || {
                    let rc = run_app(Model::Baseline(BaselineModel::Rc), &app, budget);
                    let out: Vec<SimReport> = configs
                        .iter()
                        .map(|m| {
                            if is_rc(m) {
                                rc.clone()
                            } else {
                                run_app(m.clone(), &app, budget)
                            }
                        })
                        .collect();
                    eprintln!("  {} done", app.name);
                    out
                })
            })
            .collect(),
    );

    let mut text = format!("Figure 9 — Speedup over RC ({budget} instructions/core, 8 cores)\n\n");
    let mut headers = vec!["App".to_string()];
    headers.extend(configs.iter().map(|m| m.name()));
    let mut table = Table::new(headers);
    let mut splash_speedups: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];

    for (app, reports) in apps.iter().zip(&per_app) {
        let rc_cycles = reports[1].cycles; // configs[1] is RC
        let mut cells = vec![app.name.to_string()];
        for (i, (m, r)) in configs.iter().zip(reports).enumerate() {
            let speedup = rc_cycles as f64 / r.cycles as f64;
            if app.name != "sjbb2k" && app.name != "sweb2005" {
                splash_speedups[i].push(speedup);
            }
            cells.push(format!("{speedup:.3}"));
            log.record(app.name, &m.name(), r);
        }
        table.row(cells);
    }

    let mut gm = vec!["SP2-G.M.".to_string()];
    let mut gm_json = Json::obj([]);
    for (i, s) in splash_speedups.iter().enumerate() {
        gm.push(format!("{:.3}", geomean(s)));
        gm_json.push(configs[i].name(), geomean(s).into());
    }
    table.row(gm);
    writeln!(text, "{table}").unwrap();
    text.push_str(
        "Paper shape: BSCdypvt ≈ RC ≈ SC++; SC below; radix the BSCdypvt outlier (aliasing).\n",
    );
    log.extra("splash2_geomean_speedup_over_rc", gm_json);
    FigureOutput { text, log }
}

/// Figure 10: BSCdypvt chunk-size sweep, speedup over RC.
pub fn fig10(budget: u64, jobs: usize) -> FigureOutput {
    let mut log = RunLog::new("fig10", budget);
    let configs: Vec<(String, Model)> = vec![
        (
            "1000".into(),
            Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(1000)),
        ),
        (
            "2000".into(),
            Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(2000)),
        ),
        (
            "4000".into(),
            Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(4000)),
        ),
        (
            "4000-exact".into(),
            Model::Bulk(BulkConfig::bsc_exact().with_chunk_size(4000)),
        ),
    ];
    let apps = catalog();

    // One job per app: element 0 is the RC baseline, then one report per
    // chunk-size config.
    let per_app: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|app| {
                let app = *app;
                let configs = &configs;
                Job::new(format!("fig10 {}", app.name), move || {
                    let mut out = vec![run_app(Model::Baseline(BaselineModel::Rc), &app, budget)];
                    out.extend(
                        configs
                            .iter()
                            .map(|(_, m)| run_app(m.clone(), &app, budget)),
                    );
                    eprintln!("  {} done", app.name);
                    out
                })
            })
            .collect(),
    );

    let mut text = format!(
        "Figure 10 — BSCdypvt chunk-size sweep, speedup over RC ({budget} instructions/core)\n\n"
    );
    let mut headers = vec!["App".to_string(), "RC".to_string()];
    headers.extend(configs.iter().map(|(n, _)| n.clone()));
    let mut table = Table::new(headers);
    let mut splash: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];

    for (app, reports) in apps.iter().zip(&per_app) {
        let rc = &reports[0];
        log.record(app.name, "RC", rc);
        let mut cells = vec![app.name.to_string(), "1.000".to_string()];
        for (i, ((label, _), r)) in configs.iter().zip(&reports[1..]).enumerate() {
            let speedup = rc.cycles as f64 / r.cycles as f64;
            if app.name != "sjbb2k" && app.name != "sweb2005" {
                splash[i].push(speedup);
            }
            cells.push(format!("{speedup:.3}"));
            log.record(app.name, label, r);
        }
        table.row(cells);
    }
    let mut gm = vec!["SP2-G.M.".to_string(), "1.000".to_string()];
    let mut gm_json = Json::obj([]);
    for (i, s) in splash.iter().enumerate() {
        gm.push(format!("{:.3}", geomean(s)));
        gm_json.push(&configs[i].0, geomean(s).into());
    }
    table.row(gm);
    writeln!(text, "{table}").unwrap();
    log.extra("splash2_geomean_speedup_over_rc", gm_json);
    text.push_str("Paper shape: larger chunks degrade slightly; 4000-exact recovers most of it,\n");
    text.push_str("showing the degradation is signature aliasing, not real sharing.\n");
    FigureOutput { text, log }
}

fn traffic_breakdown(r: &SimReport, rc_total: u64) -> Vec<String> {
    let mut cells: Vec<String> = TrafficClass::ALL
        .iter()
        .map(|&c| format!("{:.3}", r.traffic.bytes(c) as f64 / rc_total as f64))
        .collect();
    cells.push(format!("{:.3}", r.traffic.total() as f64 / rc_total as f64));
    cells
}

/// Figure 11: traffic normalized to RC, broken down by category.
pub fn fig11(budget: u64, jobs: usize) -> FigureOutput {
    let mut log = RunLog::new("fig11", budget);
    let configs: Vec<(&str, Model)> = vec![
        ("R", Model::Baseline(BaselineModel::Rc)),
        ("E", Model::Bulk(BulkConfig::bsc_exact())),
        ("N", Model::Bulk(BulkConfig::bsc_dypvt().without_rsig())),
        ("B", Model::Bulk(BulkConfig::bsc_dypvt())),
    ];
    let apps = catalog();

    let per_app: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|app| {
                let app = *app;
                let configs = &configs;
                Job::new(format!("fig11 {}", app.name), move || {
                    let rc = run_app(Model::Baseline(BaselineModel::Rc), &app, budget);
                    let out: Vec<SimReport> = configs
                        .iter()
                        .map(|(bar, m)| {
                            if *bar == "R" {
                                rc.clone()
                            } else {
                                run_app(m.clone(), &app, budget)
                            }
                        })
                        .collect();
                    eprintln!("  {} done", app.name);
                    out
                })
            })
            .collect(),
    );

    let mut text = format!("Figure 11 — Traffic normalized to RC ({budget} instructions/core)\n");
    text.push_str("Bars: R=RC  E=BSCexact  N=BSCdypvt w/o RSig opt  B=BSCdypvt\n\n");
    let mut headers = vec!["App/Bar".to_string()];
    headers.extend(TrafficClass::ALL.iter().map(|c| c.label().to_string()));
    headers.push("Total".to_string());
    let mut table = Table::new(headers);

    let mut dypvt_overheads = Vec::new();
    for (app, reports) in apps.iter().zip(&per_app) {
        let rc_total = reports[0].traffic.total().max(1);
        for ((bar, _), r) in configs.iter().zip(reports) {
            let mut cells = vec![format!("{} {bar}", app.name)];
            cells.extend(traffic_breakdown(r, rc_total));
            if *bar == "B" {
                dypvt_overheads.push(r.traffic.total() as f64 / rc_total as f64 - 1.0);
            }
            log.record(app.name, bar, r);
            table.row(cells);
        }
    }
    writeln!(text, "{table}").unwrap();
    let avg = dypvt_overheads.iter().sum::<f64>() / dypvt_overheads.len() as f64;
    writeln!(
        text,
        "BSCdypvt average traffic overhead over RC: {:.1}% (paper: 5–13%)",
        avg * 100.0
    )
    .unwrap();
    text.push_str("Paper shape: RdSig nearly vanishes from B vs N (the RSig optimization).\n");
    log.extra("dypvt_avg_traffic_overhead_over_rc", avg.into());
    FigureOutput { text, log }
}

/// Table 3: characterization of BulkSC.
pub fn table3(budget: u64, jobs: usize) -> FigureOutput {
    let mut log = RunLog::new("table3", budget);
    let apps = catalog();

    // One job per app: [BSCexact, BSCdypvt, BSCbase].
    let per_app: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|app| {
                let app = *app;
                Job::new(format!("table3 {}", app.name), move || {
                    let out = vec![
                        run_app(Model::Bulk(BulkConfig::bsc_exact()), &app, budget),
                        run_app(Model::Bulk(BulkConfig::bsc_dypvt()), &app, budget),
                        run_app(Model::Bulk(BulkConfig::bsc_base()), &app, budget),
                    ];
                    eprintln!("  {} done", app.name);
                    out
                })
            })
            .collect(),
    );

    let mut text = format!("Table 3 — Characterization of BulkSC ({budget} instructions/core)\n");
    text.push_str("(unless marked, data is for BSCdypvt, as in the paper)\n\n");
    let mut table = Table::new(vec![
        "App".into(),
        "Sq%exact".into(),
        "Sq%dypvt".into(),
        "Sq%base".into(),
        "Read".into(),
        "Write".into(),
        "PrivW".into(),
        "RdDisp/100k".into(),
        "PrivBuf/1k".into(),
        "ExtraInv/1k".into(),
    ]);

    for (app, reports) in apps.iter().zip(&per_app) {
        let [exact, dypvt, base] = &reports[..] else {
            unreachable!("table3 job returns three reports");
        };
        log.record(app.name, "BSCexact", exact);
        log.record(app.name, "BSCdypvt", dypvt);
        log.record(app.name, "BSCbase", base);
        table.row(vec![
            app.name.to_string(),
            format!("{:.2}", exact.squashed_pct),
            format!("{:.2}", dypvt.squashed_pct),
            format!("{:.2}", base.squashed_pct),
            format!("{:.1}", dypvt.read_set),
            format!("{:.1}", dypvt.write_set),
            format!("{:.1}", dypvt.priv_write_set),
            format!("{:.1}", dypvt.read_displacements_per_100k),
            format!("{:.1}", dypvt.priv_supplies_per_1k),
            format!("{:.1}", dypvt.extra_invs_per_1k),
        ]);
    }
    writeln!(text, "{table}").unwrap();
    text.push_str("Paper shape: Sq%base >> Sq%dypvt ≈ Sq%exact (aliasing dominates BSCbase);\n");
    text.push_str("PrivW >> Write; read-set displacements are harmless (no squashes).\n");
    FigureOutput { text, log }
}

/// Table 4: commit process and coherence operations in BSCdypvt.
pub fn table4(budget: u64, jobs: usize) -> FigureOutput {
    let mut log = RunLog::new("table4", budget);
    let apps = catalog();

    let per_app: Vec<SimReport> = pool::run_all(
        jobs,
        apps.iter()
            .map(|app| {
                let app = *app;
                Job::new(format!("table4 {}", app.name), move || {
                    let r = run_app(Model::Bulk(BulkConfig::bsc_dypvt()), &app, budget);
                    eprintln!("  {} done", app.name);
                    r
                })
            })
            .collect(),
    );

    let mut text = String::from("Table 4 — Commit process and coherence operations in BSCdypvt\n");
    writeln!(text, "({budget} instructions/core)\n").unwrap();
    let mut table = Table::new(vec![
        "App".into(),
        "Lookups/Commit".into(),
        "UnnecLkup%".into(),
        "UnnecUpd%".into(),
        "Nodes/WSig".into(),
        "PendWSigs".into(),
        "NonEmptyW%".into(),
        "RSigReq%".into(),
        "EmptyW%".into(),
    ]);

    for (app, r) in apps.iter().zip(&per_app) {
        log.record(app.name, "BSCdypvt", r);
        table.row(vec![
            app.name.to_string(),
            format!("{:.1}", r.lookups_per_commit),
            format!("{:.1}", r.unnecessary_lookups_pct),
            format!("{:.1}", r.unnecessary_updates_pct),
            format!("{:.2}", r.nodes_per_wsig),
            format!("{:.2}", r.pending_w_sigs),
            format!("{:.1}", r.nonempty_w_pct),
            format!("{:.1}", r.rsig_required_pct),
            format!("{:.1}", r.empty_w_pct),
        ]);
    }
    writeln!(text, "{table}").unwrap();
    text.push_str("Paper shape: few lookups per commit; unnecessary updates ≈ 0; the arbiter\n");
    text.push_str("is mostly idle; most SPLASH commits have an empty W; RSig rarely needed.\n");
    FigureOutput { text, log }
}

/// Design-choice ablations: signature size, Private Buffer capacity,
/// chunk slots per core, distributed arbitration.
pub fn ablations(budget: u64, jobs: usize) -> FigureOutput {
    let mut log = RunLog::new("ablations", budget);
    let apps = ["ocean", "radix", "raytrace"];
    let mut text = String::new();

    // ------------------------------------------------------------------
    text.push_str(
        "Ablation 1 — signature size (BSCdypvt, radix is the aliasing-sensitive app)\n\n",
    );
    let sig_results: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|&app| {
                Job::new(format!("ablation sig-size {app}"), move || {
                    let mut out = Vec::new();
                    for bits in [512u32, 1024, 2048, 4096] {
                        let mut b = BulkConfig::bsc_dypvt();
                        b.sig = SignatureConfig::with_total_bits(bits);
                        out.push(run_app(Model::Bulk(b), &by_name(app).unwrap(), budget));
                    }
                    out.push(run_app(
                        Model::Bulk(BulkConfig::bsc_exact()),
                        &by_name(app).unwrap(),
                        budget,
                    ));
                    eprintln!("  sig-size {app} done");
                    out
                })
            })
            .collect(),
    );
    let mut t = Table::new(vec![
        "App".into(),
        "512b Sq%".into(),
        "1Kb Sq%".into(),
        "2Kb Sq%".into(),
        "4Kb Sq%".into(),
        "exact Sq%".into(),
    ]);
    for (app, reports) in apps.iter().zip(&sig_results) {
        let mut cells = vec![app.to_string()];
        for (bits, r) in [512u32, 1024, 2048, 4096].iter().zip(reports) {
            cells.push(format!("{:.2}", r.squashed_pct));
            log.record(app, &format!("sig-{bits}b"), r);
        }
        let exact = &reports[4];
        cells.push(format!("{:.2}", exact.squashed_pct));
        log.record(app, "sig-exact", exact);
        t.row(cells);
    }
    writeln!(text, "{t}").unwrap();

    // ------------------------------------------------------------------
    text.push_str("Ablation 2 — Private Buffer capacity (BSCdypvt)\n\n");
    let buf_results: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|&app| {
                Job::new(format!("ablation priv-buffer {app}"), move || {
                    let out: Vec<SimReport> = [4u32, 12, 24, 48]
                        .iter()
                        .map(|&cap| {
                            let mut b = BulkConfig::bsc_dypvt();
                            b.private_buffer = cap;
                            run_app(Model::Bulk(b), &by_name(app).unwrap(), budget)
                        })
                        .collect();
                    eprintln!("  priv-buffer {app} done");
                    out
                })
            })
            .collect(),
    );
    let mut t = Table::new(vec![
        "App".into(),
        "cap4 W-set".into(),
        "cap12 W-set".into(),
        "cap24 W-set".into(),
        "cap48 W-set".into(),
    ]);
    for (app, reports) in apps.iter().zip(&buf_results) {
        let mut cells = vec![app.to_string()];
        for (cap, r) in [4u32, 12, 24, 48].iter().zip(reports) {
            cells.push(format!("{:.2}", r.write_set));
            log.record(app, &format!("privbuf-{cap}"), r);
        }
        t.row(cells);
    }
    writeln!(text, "{t}").unwrap();
    text.push_str("(A too-small buffer overflows into W: the write set grows back.)\n\n");

    // ------------------------------------------------------------------
    text.push_str("Ablation 3 — chunk slots per core (BSCdypvt; 1 disables chunk overlap)\n\n");
    let slot_results: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|&app| {
                Job::new(format!("ablation chunk-slots {app}"), move || {
                    let out: Vec<SimReport> = [1u32, 2, 4]
                        .iter()
                        .map(|&slots| {
                            let mut b = BulkConfig::bsc_dypvt();
                            b.chunks_per_core = slots;
                            run_app(Model::Bulk(b), &by_name(app).unwrap(), budget)
                        })
                        .collect();
                    eprintln!("  chunk-slots {app} done");
                    out
                })
            })
            .collect(),
    );
    let mut t = Table::new(vec![
        "App".into(),
        "1 slot".into(),
        "2 slots".into(),
        "4 slots".into(),
    ]);
    for (app, reports) in apps.iter().zip(&slot_results) {
        let mut cells = vec![app.to_string()];
        let base_cycles = reports[0].cycles;
        for (slots, r) in [1u32, 2, 4].iter().zip(reports) {
            cells.push(format!("{:.3}", base_cycles as f64 / r.cycles as f64));
            log.record(app, &format!("slots-{slots}"), r);
        }
        t.row(cells);
    }
    writeln!(text, "{t}").unwrap();
    text.push_str(
        "(Speedup over the 1-slot machine: overlapping execution with commit helps.)\n\n",
    );

    // ------------------------------------------------------------------
    text.push_str(
        "Ablation 4 — distributed arbiter (§4.2.3): 1 arbiter vs 4 arbiters + G-arbiter\n\n",
    );
    let arb_results: Vec<Vec<SimReport>> = pool::run_all(
        jobs,
        apps.iter()
            .map(|&app| {
                Job::new(format!("ablation arbiters {app}"), move || {
                    let params = by_name(app).expect("catalog app");
                    let single = run_app(Model::Bulk(BulkConfig::bsc_dypvt()), &params, budget);
                    let mut cfg =
                        SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt().with_arbiters(4)));
                    cfg.dirs = 4;
                    let multi = run_custom(cfg, &params, budget);
                    eprintln!("  arbiters {app} done");
                    vec![single, multi]
                })
            })
            .collect(),
    );
    let mut t = Table::new(vec![
        "App".into(),
        "1-arb cycles".into(),
        "4-arb cycles".into(),
        "ratio".into(),
    ]);
    for (app, reports) in apps.iter().zip(&arb_results) {
        let (single, multi) = (&reports[0], &reports[1]);
        log.record(app, "arb-1", single);
        log.record(app, "arb-4", multi);
        t.row(vec![
            app.to_string(),
            single.cycles.to_string(),
            multi.cycles.to_string(),
            format!("{:.3}", single.cycles as f64 / multi.cycles as f64),
        ]);
    }
    writeln!(text, "{t}").unwrap();
    text.push_str(
        "(On an 8-core CMP the single arbiter is not a bottleneck — the paper's claim;\n",
    );
    text.push_str(" the distributed design exists for larger machines.)\n");
    FigureOutput { text, log }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_output_has_all_apps_and_the_geomean_row() {
        let out = fig9(600, 2);
        for app in catalog() {
            assert!(out.text.contains(app.name), "missing {}", app.name);
        }
        assert!(out.text.contains("SP2-G.M."));
        let doc = out.log.to_json();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), catalog().len() * 8);
        assert!(out.text.contains("TSO"), "fig9 carries the TSO column");
    }

    #[test]
    fn table4_runs_one_config_per_app() {
        let out = table4(600, 3);
        let doc = out.log.to_json();
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), catalog().len());
        assert!(out.text.contains("Table 4"));
    }
}
