//! `paper_sweep`: the Figure 9 matrix, untraced — what a user waits on
//! to regenerate the paper's figures. Slice `k` runs every catalog app
//! under all eight configurations at one program seed.

use bulksc::{BulkConfig, Model, SimReport};
use bulksc_bench::pool::Job;
use bulksc_cpu::BaselineModel;
use bulksc_trace::{Json, TraceHandle};
use bulksc_workloads::{by_name, catalog, AppParams};

use crate::harness::{drain, timed, workers, Fail, Fnv, Slice, Workload};
use crate::sim::{check_report, digest_report, family, input_seed, sim_counts, simulate};

const NAME: &str = "paper_sweep";

pub struct PaperSweep {
    seed: u64,
    apps: Vec<AppParams>,
    configs: Vec<Model>,
    budget: u64,
}

impl PaperSweep {
    pub fn new(seed: u64, smoke: bool) -> PaperSweep {
        let apps = if smoke {
            ["lu", "radix"]
                .iter()
                .map(|n| by_name(n).expect("catalog app"))
                .collect()
        } else {
            catalog()
        };
        PaperSweep {
            seed,
            apps,
            // Figure 9's columns, in its order.
            configs: vec![
                Model::Baseline(BaselineModel::Sc),
                Model::Baseline(BaselineModel::Rc),
                Model::Baseline(BaselineModel::Tso),
                Model::Baseline(BaselineModel::Scpp),
                Model::Bulk(BulkConfig::bsc_base()),
                Model::Bulk(BulkConfig::bsc_dypvt()),
                Model::Bulk(BulkConfig::bsc_exact()),
                Model::Bulk(BulkConfig::bsc_stpvt()),
            ],
            budget: if smoke { 1_000 } else { 10_000 },
        }
    }
}

impl Workload for PaperSweep {
    fn sizes(&self) -> Json {
        Json::obj([
            ("apps", self.apps.len().into()),
            ("configs", self.configs.len().into()),
            ("cores", 8u64.into()),
            ("workers", workers().into()),
            ("budget_per_core", self.budget.into()),
        ])
    }

    /// Nothing to build; one app under every configuration warms code and
    /// allocator.
    fn setup(&mut self) -> Result<(), String> {
        let app = by_name("radix").expect("catalog app");
        let seed = input_seed(self.seed, "paper_sweep/warm-up", 0);
        let budget = self.budget;
        let jobs = self
            .configs
            .iter()
            .map(|model| {
                Job::new(model.name(), move || {
                    timed(family(model), false, || {
                        simulate(model.clone(), &app, budget, seed, TraceHandle::off())
                    })
                    .1
                })
            })
            .collect();
        let (_, runs) = drain(workers(), jobs);
        for (model, run) in self.configs.iter().zip(runs) {
            let what = format!("warm-up under {}", model.name());
            match run {
                Some((r, true)) => check_report(&r, 8, budget, &what)?,
                Some((_, false)) => return Err(format!("{what} hit its cycle cap")),
                None => return Err(format!("{what} panicked")),
            }
        }
        Ok(())
    }

    fn slice(&mut self, k: usize, traced: bool) -> Result<Slice, String> {
        let seed = input_seed(self.seed, NAME, k as u64);
        let budget = self.budget;
        let mut jobs = Vec::new();
        for app in &self.apps {
            for model in &self.configs {
                let name = format!("{} {}", app.name, model.name());
                jobs.push(Job::new(name, move || {
                    timed(family(model), traced, || {
                        simulate(model.clone(), app, budget, seed, TraceHandle::off())
                    })
                }));
            }
        }
        let (wall, results) = drain(workers(), jobs);

        let mut slice = Slice::new(wall, workers());
        let mut digest = Fnv::default();
        let mut reports: Vec<Option<SimReport>> = Vec::new();
        for (mut op, out) in results {
            let report = match out {
                Some((r, true)) => Some(r),
                Some((_, false)) => {
                    op.fail = Some(Fail::CapHit);
                    None
                }
                None => None,
            };
            digest.add(report.is_some() as u64);
            if let Some(r) = &report {
                digest_report(&mut digest, r);
            }
            reports.push(report);
            slice.ops.push(op);
        }
        let cells = self
            .apps
            .iter()
            .flat_map(|a| self.configs.iter().map(move |m| (a, m)));
        let mut done = Vec::new();
        for ((app, model), report) in cells.zip(&reports) {
            if let Some(r) = report {
                check_report(
                    r,
                    8,
                    budget,
                    &format!("{} under {}", app.name, model.name()),
                )?;
                done.push((r, 8));
            }
        }
        let instrs: u64 = done.iter().map(|(r, _)| r.retired).sum();
        slice
            .values
            .push(("rate.sim_kips", instrs as f64 / 1e3 / wall));
        slice.counts = sim_counts(done.iter().copied());
        slice
            .counts
            .push(("sim.bsc_rc_cycle_ratio", self.bsc_rc_ratio(&reports)));
        slice.digest = digest.0;
        Ok(slice)
    }
}

impl PaperSweep {
    /// Geometric mean over apps of BSCdypvt cycles / RC cycles: the
    /// paper's headline (BulkSC within a few percent of RC). Apps where
    /// either run hit its cap are left out.
    fn bsc_rc_ratio(&self, reports: &[Option<SimReport>]) -> f64 {
        let col = |name: &str| {
            self.configs
                .iter()
                .position(|m| m.name() == name)
                .expect("fig9 column")
        };
        let (rc, bsc) = (col("RC"), col("BSCdypvt"));
        let ratios: Vec<f64> = reports
            .chunks(self.configs.len())
            .filter_map(|row| match (&row[rc], &row[bsc]) {
                (Some(rc), Some(bsc)) => Some(bsc.cycles as f64 / rc.cycles as f64),
                _ => None,
            })
            .collect();
        bulksc_stats::geomean(&ratios)
    }
}
