//! `fuzz`: thousands of tiny traced systems, each certified end to end by
//! `bulksc_bench::fuzz::certify_case` — the SC sweep plus the TSO sweep.
//! It uses the oracle, `System::new` and the signature unit far more per
//! simulated instruction than `paper_sweep` does.
//!
//! Set-up screens every (entry, program) case: an untraced run capped at
//! [`LIVE_CAP`] cycles, then one certification. Cases that hang or fail
//! their verdict are counted and kept out of the timed list, so the timed
//! work never hangs and never fails; any timed case whose verdict differs
//! from its screen is an output error.

use bulksc::{SimReport, System, SystemConfig};
use bulksc_bench::fuzz::{certify_case, sweep_for, SweepEntry};
use bulksc_bench::pool::Job;
use bulksc_check::MemoryModel;
use bulksc_trace::Json;
use bulksc_workloads::{fuzz_programs, FuzzSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::harness::{drain, timed, workers, Fnv, Slice, Workload};
use crate::sim::{digest_report, family, input_seed, sim_counts};

const NAME: &str = "fuzz";

/// Cycle cap of the liveness screen. Finishing cases of the default
/// program shape take under 7,000 cycles.
pub const LIVE_CAP: u64 = 200_000;

/// A case that passed the screen.
struct Case {
    seed: u64,
    entry: usize,
    /// The screen's untraced run (tracing never changes a simulation).
    report: SimReport,
}

pub struct Fuzz {
    spec: FuzzSpec,
    entries: Vec<SweepEntry>,
    /// Program seeds; every slice certifies all of their screened cases,
    /// so slices are equal and their spread is the host's alone.
    seeds: Vec<u64>,
    /// Screened cases, one list per program seed.
    cases: Vec<Vec<Case>>,
    hung: u64,
    verdicts: u64,
    panics: u64,
}

impl Fuzz {
    pub fn new(seed: u64, smoke: bool) -> Fuzz {
        let programs = if smoke { 1 } else { 24 };
        let mut entries = sweep_for(MemoryModel::Sc);
        entries.extend(sweep_for(MemoryModel::Tso));
        Fuzz {
            spec: FuzzSpec::default(),
            entries,
            seeds: (0..programs).map(|i| input_seed(seed, NAME, i)).collect(),
            cases: Vec::new(),
            hung: 0,
            verdicts: 0,
            panics: 0,
        }
    }
}

/// What the screen made of one case.
enum Screen {
    Live(Box<SimReport>),
    Hung,
    Verdict,
    Panic,
}

fn screen(entry: &SweepEntry, spec: FuzzSpec, seed: u64) -> Screen {
    let screened = catch_unwind(AssertUnwindSafe(|| {
        // The system `certify_case` builds, without its tracer.
        let mut cfg = SystemConfig::cmp8(entry.model.clone());
        cfg.cores = spec.threads;
        cfg.dirs = entry.dirs;
        cfg.l1 = entry.l1;
        if let Some(sb) = entry.store_buffer {
            cfg.core.store_buffer = sb;
        }
        cfg.budget = u64::MAX;
        let mut sys = System::new(cfg, fuzz_programs(spec, seed));
        if !sys.run(LIVE_CAP) {
            return Screen::Hung;
        }
        match certify_case(entry, spec, seed, false) {
            Ok(_) => Screen::Live(Box::new(SimReport::collect(&sys))),
            Err(_) => Screen::Verdict,
        }
    }));
    screened.unwrap_or(Screen::Panic)
}

impl Workload for Fuzz {
    fn sizes(&self) -> Json {
        Json::obj([
            ("entries", self.entries.len().into()),
            ("programs", self.seeds.len().into()),
            ("cores", self.spec.threads.into()),
            ("workers", workers().into()),
            ("ops_per_thread", self.spec.ops_per_thread.into()),
        ])
    }

    fn setup(&mut self) -> Result<(), String> {
        let (spec, entries) = (self.spec, &self.entries);
        let jobs = self
            .seeds
            .iter()
            .map(|&seed| {
                Job::new(format!("screen seed {seed}"), move || {
                    entries
                        .iter()
                        .map(|e| screen(e, spec, seed))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let (_, screened) = drain(workers(), jobs);
        (self.hung, self.verdicts, self.panics) = (0, 0, 0);
        self.cases = Vec::new();
        for (&seed, verdicts) in self.seeds.iter().zip(screened) {
            let mut live = Vec::new();
            for (entry, verdict) in verdicts.into_iter().enumerate() {
                match verdict {
                    Screen::Live(report) => live.push(Case {
                        seed,
                        entry,
                        report: *report,
                    }),
                    Screen::Hung => self.hung += 1,
                    Screen::Verdict => self.verdicts += 1,
                    Screen::Panic => self.panics += 1,
                }
            }
            self.cases.push(live);
        }
        if self.cases.iter().all(Vec::is_empty) {
            return Err("no case passed the screen".to_string());
        }
        Ok(())
    }

    fn slice(&mut self, _k: usize, traced: bool) -> Result<Slice, String> {
        let programs = &self.cases;
        let (spec, entries) = (self.spec, &self.entries);
        let jobs = programs
            .iter()
            .map(|cases| {
                Job::new("certify", move || {
                    cases
                        .iter()
                        .map(|c| {
                            let entry = &entries[c.entry];
                            timed(family(&entry.model), traced, || {
                                certify_case(entry, spec, c.seed, false)
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let (wall, results) = drain(workers(), jobs);

        let mut slice = Slice::new(wall, workers());
        let mut digest = Fnv::default();
        let (mut accesses, mut ambiguous) = (0u64, 0u64);
        for (case, (op, out)) in programs.iter().flatten().zip(results.into_iter().flatten()) {
            let entry = &self.entries[case.entry];
            digest.add(case.seed);
            digest.add(case.entry as u64);
            digest_report(&mut digest, &case.report);
            match out {
                Some(Ok(stats)) => {
                    accesses += stats.accesses as u64;
                    ambiguous += stats.ambiguous as u64;
                    for word in [stats.accesses, stats.ambiguous, stats.lifecycle] {
                        digest.add(word as u64);
                    }
                }
                Some(Err(report)) => {
                    return Err(format!(
                        "{} seed {} passed the set-up screen but now fails:\n{report}",
                        entry.name, case.seed
                    ))
                }
                None => digest.add(u64::MAX),
            }
            slice.ops.push(op);
        }
        slice
            .values
            .push(("rate.fuzz_cases_per_s", slice.ops.len() as f64 / wall));
        slice.counts = sim_counts(
            programs
                .iter()
                .flatten()
                .map(|c| (&c.report, self.spec.threads as u64)),
        );
        slice.counts.push(("check.accesses", accesses as f64));
        slice.counts.push((
            "check.ambiguous_frac",
            ambiguous as f64 / accesses.max(1) as f64,
        ));
        slice.digest = digest.0;
        Ok(slice)
    }

    fn setup_counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fail.liveness", self.hung as f64),
            ("fail.verdict", self.verdicts as f64),
            ("fail.panics", self.panics as f64),
        ]
    }
}
