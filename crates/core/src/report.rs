//! Aggregated run metrics in the paper's units.
//!
//! [`SimReport::collect`] condenses a finished [`System`] into exactly the
//! quantities the paper's evaluation reports: Figure 9/10 speedups come
//! from `cycles`, Table 3's characterization and Table 4's commit/
//! coherence columns are precomputed here, and Figure 11 reads the traffic
//! breakdown.

use bulksc_metrics::Counter;
use bulksc_net::{TrafficClass, TrafficStats};
use bulksc_stats::{per_100k, per_1k, percent, CycleLoss, Histogram};
use bulksc_trace::Json;

use crate::system::System;

/// Everything one experiment run produces.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Configuration name (`SC`, `RC`, `SC++`, `BSCdypvt`, ...).
    pub model: String,
    /// Cycles the run took.
    pub cycles: u64,
    /// True if every core finished within the cycle bound.
    pub finished: bool,
    /// Useful (committed) dynamic instructions across all cores.
    pub retired: u64,
    /// Dynamic instructions wasted in squashes (BulkSC and SC++).
    pub squashed_instrs: u64,
    /// Squashed instructions as % of useful instructions (Table 3).
    pub squashed_pct: f64,

    // Table 3 — BulkSC characterization (zeroes for baselines).
    /// Chunks committed.
    pub chunks_committed: u64,
    /// Average read-set size (lines).
    pub read_set: f64,
    /// Average write-set size (lines).
    pub write_set: f64,
    /// Average private-write-set size (lines).
    pub priv_write_set: f64,
    /// Speculative read-set line displacements per 100k commits.
    pub read_displacements_per_100k: f64,
    /// Data served from the Private Buffer per 1k commits.
    pub priv_supplies_per_1k: f64,
    /// Aliasing-caused cache invalidations per 1k commits.
    pub extra_invs_per_1k: f64,
    /// Chunk squashes split by cause.
    pub alias_squashes: u64,
    /// True-sharing squashes.
    pub true_squashes: u64,

    // Table 4 — commit process and coherence operations.
    /// Directory entries looked up per commit during expansion.
    pub lookups_per_commit: f64,
    /// % of those lookups caused by aliasing.
    pub unnecessary_lookups_pct: f64,
    /// % of directory entry updates caused by aliasing.
    pub unnecessary_updates_pct: f64,
    /// Cores receiving the W signature, per commit.
    pub nodes_per_wsig: f64,
    /// Time-average number of W signatures pending in the arbiter.
    pub pending_w_sigs: f64,
    /// % of time the arbiter's W list is non-empty.
    pub nonempty_w_pct: f64,
    /// % of commits that had to supply the R signature.
    pub rsig_required_pct: f64,
    /// % of commits with an empty W signature.
    pub empty_w_pct: f64,
    /// Permission-to-commit requests received by the (G-)arbiters (each
    /// denial forces a later retry, so requests exceed commits under
    /// contention).
    pub arb_requests: u64,
    /// Requests denied (collisions plus pre-arbitration lockouts).
    pub arb_denials: u64,
    /// Average denied-and-retried arbitrations per committed chunk.
    pub denials_per_commit: f64,

    /// Interconnect bytes by Figure 11 category.
    pub traffic: TrafficStats,

    // Chunk-lifecycle latency distributions (merged across cores; empty
    // for baseline models).
    /// Chunk open to first commit request.
    pub lat_execute: Histogram,
    /// First commit request to grant (retries included).
    pub lat_arbitration: Histogram,
    /// Grant to last DirDone at the arbiter (W list residency).
    pub lat_dir_update: Histogram,
    /// Grant to CommitComplete as seen by the core.
    pub lat_commit_visible: Histogram,
    /// L1 miss request to fill, across all cores (bulk and baseline).
    pub lat_l1_miss: Histogram,
    /// Per-core cycle-loss attribution (bulk cores only). Each table ends
    /// with a "tail" entry so its total is exactly `cycles`.
    pub cycle_loss: Vec<CycleLoss>,
}

/// Canonical label order for cycle-loss JSON, so same-shape runs emit
/// byte-comparable objects regardless of first-charge order.
const LOSS_LABELS: [&str; 6] = [
    "committed",
    "arb_denial",
    "w_sig_conflict",
    "r_sig_conflict",
    "displacement_overflow",
    "tail",
];

/// JSON encoding of a histogram: exact summary fields, the standard
/// percentiles, and the sparse bucket list (enough to rebuild it with
/// [`Histogram::from_parts`]).
pub fn histogram_json(h: &Histogram) -> Json {
    Json::obj([
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("mean", h.mean().into()),
        ("p50", h.percentile(50.0).into()),
        ("p90", h.percentile(90.0).into()),
        ("p99", h.percentile(99.0).into()),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .map(|(i, c)| Json::Arr(vec![Json::U64(i as u64), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// JSON encoding of one core's cycle-loss table, canonical labels first.
pub fn cycle_loss_json(l: &CycleLoss) -> Json {
    let mut obj = Json::Obj(Vec::new());
    for label in LOSS_LABELS {
        obj.push(label, l.get(label).into());
    }
    for &(label, cycles) in l.entries() {
        if !LOSS_LABELS.contains(&label) {
            obj.push(label, cycles.into());
        }
    }
    obj.push("total", l.total().into());
    obj
}

impl SimReport {
    /// Collapse a run into its metrics: event counts from
    /// [`System::metrics`], means and distributions from the components.
    pub fn collect(sys: &System) -> SimReport {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Collect);
        let model = sys.config().model.name();
        let m = sys.metrics();
        let squashed = m.counter(Counter::InstrsSquashed);
        let chunks = m.counter(Counter::ChunksCommitted);
        let mut retired = 0u64;
        let mut read_disp = 0u64;
        let mut priv_supplies = 0u64;
        let (mut rs, mut ws, mut ps) = (
            bulksc_stats::RunningMean::new(),
            bulksc_stats::RunningMean::new(),
            bulksc_stats::RunningMean::new(),
        );
        let mut empty_w = 0u64;
        let mut lat_execute = Histogram::new();
        let mut lat_arbitration = Histogram::new();
        let mut lat_commit_visible = Histogram::new();
        let mut lat_l1_miss = Histogram::new();
        let mut cycle_loss: Vec<CycleLoss> = Vec::new();
        for n in sys.nodes() {
            if let Some(b) = n.bulk_stats() {
                retired += b.retired;
                read_disp += b.read_set_displacements;
                priv_supplies += b.priv_buffer_supplies;
                rs.merge(&b.read_set);
                ws.merge(&b.write_set);
                ps.merge(&b.priv_write_set);
                empty_w += b.empty_w_commits;
                lat_execute.merge(&b.lat_execute);
                lat_arbitration.merge(&b.lat_arbitration);
                lat_commit_visible.merge(&b.lat_commit_visible);
                lat_l1_miss.merge(&b.lat_miss);
                // Close each core's attribution: whatever follows the last
                // charged lifecycle event (end-of-run drain, post-finish
                // idle) is the tail, making the total exactly the run.
                let mut loss = b.loss.clone();
                loss.charge("tail", sys.cycles().saturating_sub(loss.total()));
                cycle_loss.push(loss);
            }
            if let Some(b) = n.baseline_stats() {
                retired += b.retired;
                lat_l1_miss.merge(&b.lat_miss);
            }
        }

        let lookups = m.counter(Counter::DirLookups);
        let updates = m.counter(Counter::DirUpdates);
        let inv_targets = m.counter(Counter::DirInvTargets);
        // Requests and denials at the G-arbiter count with the arbiters'.
        let requests = m.counter(Counter::ArbRequests) + m.counter(Counter::GarbRequests);
        let denials = m.counter(Counter::ArbDenials)
            + m.counter(Counter::GarbFastDenials)
            + m.counter(Counter::GarbDenials);

        let mut rsig_required = 0u64;
        let mut lat_dir_update = Histogram::new();
        let (mut pending_sum, mut nonempty_sum, mut arbs) = (0.0f64, 0.0f64, 0u32);
        for a in sys.arbiter_stats() {
            rsig_required += a.rsig_required;
            lat_dir_update.merge(&a.dir_update_latency);
            // The run may still be inside the stats window: finish a copy.
            let mut tw = a.pending_w;
            tw.finish(sys.cycles().max(1));
            pending_sum += tw.average();
            nonempty_sum += tw.nonzero_fraction();
            arbs += 1;
        }

        SimReport {
            model,
            cycles: sys.cycles(),
            finished: sys.finished(),
            retired,
            squashed_instrs: squashed,
            squashed_pct: percent(squashed, retired.max(1)),
            chunks_committed: chunks,
            read_set: rs.mean(),
            write_set: ws.mean(),
            priv_write_set: ps.mean(),
            read_displacements_per_100k: per_100k(read_disp, chunks),
            priv_supplies_per_1k: per_1k(priv_supplies, chunks),
            extra_invs_per_1k: per_1k(m.counter(Counter::SigFpExtraInvs), chunks),
            alias_squashes: m.counter(Counter::SquashesAlias)
                + m.counter(Counter::SquashesOverflow),
            true_squashes: m.counter(Counter::SquashesTrueSharing),
            lookups_per_commit: if chunks == 0 {
                0.0
            } else {
                lookups as f64 / chunks as f64
            },
            unnecessary_lookups_pct: percent(m.counter(Counter::DirLookupsUnnecessary), lookups),
            unnecessary_updates_pct: percent(m.counter(Counter::DirUpdatesUnnecessary), updates),
            nodes_per_wsig: if chunks == 0 {
                0.0
            } else {
                inv_targets as f64 / chunks as f64
            },
            pending_w_sigs: if arbs == 0 {
                0.0
            } else {
                pending_sum / arbs as f64
            },
            nonempty_w_pct: if arbs == 0 {
                0.0
            } else {
                100.0 * nonempty_sum / arbs as f64
            },
            rsig_required_pct: percent(rsig_required, m.counter(Counter::ArbGrants).max(1)),
            empty_w_pct: percent(empty_w, chunks),
            arb_requests: requests,
            arb_denials: denials,
            denials_per_commit: if chunks == 0 {
                0.0
            } else {
                denials as f64 / chunks as f64
            },
            traffic: *sys.traffic(),
            lat_execute,
            lat_arbitration,
            lat_dir_update,
            lat_commit_visible,
            lat_l1_miss,
            cycle_loss,
        }
    }

    /// Bytes in one Figure 11 traffic category.
    pub fn traffic_bytes(&self, class: TrafficClass) -> u64 {
        self.traffic.bytes(class)
    }

    /// The full report as a JSON object (the machine-readable run
    /// artifact behind `--json`).
    pub fn to_json(&self) -> Json {
        let mut traffic = Json::obj([]);
        for class in TrafficClass::ALL {
            traffic.push(class.label(), self.traffic.bytes(class).into());
        }
        traffic.push("total_bytes", self.traffic.total().into());
        traffic.push("messages", self.traffic.messages().into());
        Json::obj([
            ("model", self.model.as_str().into()),
            ("cycles", self.cycles.into()),
            ("finished", self.finished.into()),
            ("retired", self.retired.into()),
            ("squashed_instrs", self.squashed_instrs.into()),
            ("squashed_pct", self.squashed_pct.into()),
            ("chunks_committed", self.chunks_committed.into()),
            ("read_set", self.read_set.into()),
            ("write_set", self.write_set.into()),
            ("priv_write_set", self.priv_write_set.into()),
            (
                "read_displacements_per_100k",
                self.read_displacements_per_100k.into(),
            ),
            ("priv_supplies_per_1k", self.priv_supplies_per_1k.into()),
            ("extra_invs_per_1k", self.extra_invs_per_1k.into()),
            ("alias_squashes", self.alias_squashes.into()),
            ("true_squashes", self.true_squashes.into()),
            ("lookups_per_commit", self.lookups_per_commit.into()),
            (
                "unnecessary_lookups_pct",
                self.unnecessary_lookups_pct.into(),
            ),
            (
                "unnecessary_updates_pct",
                self.unnecessary_updates_pct.into(),
            ),
            ("nodes_per_wsig", self.nodes_per_wsig.into()),
            ("pending_w_sigs", self.pending_w_sigs.into()),
            ("nonempty_w_pct", self.nonempty_w_pct.into()),
            ("rsig_required_pct", self.rsig_required_pct.into()),
            ("empty_w_pct", self.empty_w_pct.into()),
            ("arb_requests", self.arb_requests.into()),
            ("arb_denials", self.arb_denials.into()),
            ("denials_per_commit", self.denials_per_commit.into()),
            ("traffic", traffic),
            (
                "latency",
                Json::obj([
                    ("execute", histogram_json(&self.lat_execute)),
                    ("arbitration", histogram_json(&self.lat_arbitration)),
                    ("dir_update", histogram_json(&self.lat_dir_update)),
                    ("commit_visible", histogram_json(&self.lat_commit_visible)),
                    ("l1_miss", histogram_json(&self.lat_l1_miss)),
                ]),
            ),
            (
                "cycle_loss",
                Json::Arr(self.cycle_loss.iter().map(cycle_loss_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Model, SystemConfig};
    use bulksc_sig::Addr;
    use bulksc_workloads::{Instr, ScriptOp, ScriptProgram, ThreadProgram};

    fn contended_run() -> System {
        // Two cores hammering the same line force arbiter denials.
        let prog = |v: u64| -> Box<dyn ThreadProgram> {
            let ops = (0..200)
                .map(|i| {
                    ScriptOp::Op(Instr::Store {
                        addr: Addr(0x100_0000),
                        value: v + i,
                    })
                })
                .collect();
            Box::new(ScriptProgram::new(ops))
        };
        let mut cfg = SystemConfig::cmp8(Model::Bulk(crate::config::BulkConfig::bsc_base()));
        cfg.cores = 2;
        cfg.budget = u64::MAX;
        let mut sys = System::new(cfg, vec![prog(1), prog(1000)]);
        assert!(sys.run(5_000_000), "contended run must finish");
        sys
    }

    #[test]
    fn cycle_loss_sums_to_run_cycles_per_core() {
        let sys = contended_run();
        let r = SimReport::collect(&sys);
        assert_eq!(r.cycle_loss.len(), 2, "one table per bulk core");
        for (core, loss) in r.cycle_loss.iter().enumerate() {
            assert_eq!(
                loss.total(),
                r.cycles,
                "core {core} attribution must partition the run: {loss:?}"
            );
            assert!(loss.get("committed") > 0, "core {core} did useful work");
        }
        // Contention costs cycles somewhere: conflict squashes or denials.
        let lost: u64 = r
            .cycle_loss
            .iter()
            .map(|l| l.get("arb_denial") + l.get("w_sig_conflict") + l.get("r_sig_conflict"))
            .sum();
        assert!(lost > 0, "contended run must lose cycles to contention");
    }

    #[test]
    fn latency_histograms_cover_every_commit() {
        let sys = contended_run();
        let r = SimReport::collect(&sys);
        // Arbitration and visibility latencies are recorded once per grant.
        assert_eq!(r.lat_arbitration.count(), r.chunks_committed);
        assert_eq!(r.lat_commit_visible.count(), r.chunks_committed);
        // Execute latency is recorded at the first commit request; squashed
        // chunks may re-request, so it at least covers every commit.
        assert!(r.lat_execute.count() >= r.chunks_committed);
        // Retries happen between first request and grant, so arbitration
        // latency on a contended run has a non-trivial tail.
        assert!(r.lat_arbitration.max() >= r.lat_arbitration.percentile(50.0));
        // Store-heavy chunks all carry W signatures through the directory.
        assert!(r.lat_dir_update.count() > 0);
        assert!(r.lat_dir_update.count() <= r.chunks_committed);
    }

    #[test]
    fn arbiter_requests_and_denials_are_reported() {
        let sys = contended_run();
        let r = SimReport::collect(&sys);
        assert!(r.chunks_committed >= 2);
        assert!(
            r.arb_requests >= r.chunks_committed,
            "every commit needed at least one request: {} < {}",
            r.arb_requests,
            r.chunks_committed
        );
        // Requests not granted were denied; the retry metric reflects them.
        assert_eq!(r.arb_denials, r.arb_requests - r.chunks_committed);
        let expected = r.arb_denials as f64 / r.chunks_committed as f64;
        assert!((r.denials_per_commit - expected).abs() < 1e-9);
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let sys = contended_run();
        let r = SimReport::collect(&sys);
        let json = r.to_json().to_string();
        assert!(bulksc_trace::json::is_valid(&json), "invalid JSON: {json}");
        for key in [
            "\"model\":",
            "\"cycles\":",
            "\"arb_denials\":",
            "\"traffic\":",
            "\"Rd/Wr\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
