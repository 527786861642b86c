//! Unified metrics registry for the whole workspace: what did the
//! simulator — and the sweep driving it — do in total, and how far along
//! is the sweep right now?
//!
//! `SimReport` aggregates one run in the paper's units; `bulksc-prof`
//! attributes host time; this crate is the third leg: a closed set of
//! named counters, high-water gauges, and histograms, merged into one
//! process-wide [`MetricsSnapshot`] for live heartbeats and a
//! Prometheus-style text exposition.
//!
//! # Design constraints
//!
//! * **Counted once, by the components.** The simulator's components
//!   keep their own `*Stats`; `System::metrics` reads them out into a
//!   [`MetricsSnapshot`] once per run, and this crate owns no per-event
//!   hook. Under a live heartbeat ([`live::is_active`]) `System::run`
//!   [`publish`]es that view as it returns; nothing else in the simulator
//!   touches this crate, so `--metrics` cannot change or slow a simulated
//!   cycle.
//! * **Merged deterministically.** Counters merge by summation, gauges by
//!   maximum, histograms by bucket-wise addition — all commutative — so
//!   the accumulated snapshot is identical at any worker width and any
//!   completion order.
//! * **Deterministic and host-time surfaces are separate.** Counters,
//!   gauges, and simulated-quantity histograms are pure functions of the
//!   simulated work and therefore byte-stable across runs and widths
//!   ([`MetricsSnapshot::deterministic_text`]). Host-time histograms
//!   (per-job wall nanoseconds) are real measurements and inherently
//!   noisy; they appear in the full exposition
//!   ([`MetricsSnapshot::to_text_exposition`]) but never in the
//!   deterministic surface.
//!
//! The [`live`] module holds the sweep's progress: a handful of
//! process-global relaxed atomics (jobs done / total / in flight, queue
//! depth and its peak) that the heartbeat thread reads while workers are
//! still running, plus the accumulator's squash counters.

use std::sync::Mutex;

use bulksc_stats::Histogram;

/// The static registry of workspace counters (monotonic event totals).
///
/// Fixed IDs so an increment is an array index, not a hash lookup; the
/// names below are the stable strings the text exposition carries
/// (prefixed `bulksc_`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// Chunks committed across all cores.
    ChunksCommitted,
    /// Instructions inside committed chunks.
    InstrsCommitted,
    /// Squashes caused by true sharing.
    SquashesTrueSharing,
    /// Squashes caused by signature aliasing (false positives).
    SquashesAlias,
    /// Squashes caused by speculative-state overflow.
    SquashesOverflow,
    /// Instructions discarded by squashes.
    InstrsSquashed,
    /// Extra cache-line invalidations caused by signature aliasing.
    SigFpExtraInvs,
    /// Commit requests received by the (central or distributed) arbiters.
    ArbRequests,
    /// Commit requests denied by the arbiters.
    ArbDenials,
    /// Commit requests granted by the arbiters.
    ArbGrants,
    /// Proposals received by the G-arbiter (distributed mode).
    GarbRequests,
    /// G-arbiter fast-path denials (conflict known without a vote).
    GarbFastDenials,
    /// G-arbiter full denials after a vote.
    GarbDenials,
    /// W signatures received by the directories for expansion.
    DirWsigsReceived,
    /// Directory tag lookups driven by signature expansion.
    DirLookups,
    /// Lookups that hit no real line (signature false positives).
    DirLookupsUnnecessary,
    /// Directory state updates driven by signature expansion.
    DirUpdates,
    /// Updates to lines the chunk never wrote (false positives).
    DirUpdatesUnnecessary,
    /// Sharer cores targeted by commit invalidations.
    DirInvTargets,
    /// Messages sent on the interconnect (hops).
    FabricMessages,
    /// Bytes moved on the interconnect.
    FabricBytes,
    /// Simulated runs driven to completion.
    RunsCompleted,
    /// Pool jobs completed.
    PoolJobsCompleted,
    /// Pool jobs that panicked.
    PoolJobsPanicked,
}

/// Number of registered counters.
pub const COUNTER_COUNT: usize = 24;

impl Counter {
    /// Every counter, in registry order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::ChunksCommitted,
        Counter::InstrsCommitted,
        Counter::SquashesTrueSharing,
        Counter::SquashesAlias,
        Counter::SquashesOverflow,
        Counter::InstrsSquashed,
        Counter::SigFpExtraInvs,
        Counter::ArbRequests,
        Counter::ArbDenials,
        Counter::ArbGrants,
        Counter::GarbRequests,
        Counter::GarbFastDenials,
        Counter::GarbDenials,
        Counter::DirWsigsReceived,
        Counter::DirLookups,
        Counter::DirLookupsUnnecessary,
        Counter::DirUpdates,
        Counter::DirUpdatesUnnecessary,
        Counter::DirInvTargets,
        Counter::FabricMessages,
        Counter::FabricBytes,
        Counter::RunsCompleted,
        Counter::PoolJobsCompleted,
        Counter::PoolJobsPanicked,
    ];

    /// The stable name the exposition carries (without the `bulksc_`
    /// prefix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ChunksCommitted => "sim_chunks_committed",
            Counter::InstrsCommitted => "sim_instrs_committed",
            Counter::SquashesTrueSharing => "sim_squashes_true_sharing",
            Counter::SquashesAlias => "sim_squashes_alias",
            Counter::SquashesOverflow => "sim_squashes_overflow",
            Counter::InstrsSquashed => "sim_instrs_squashed",
            Counter::SigFpExtraInvs => "sim_sig_fp_extra_invs",
            Counter::ArbRequests => "sim_arb_requests",
            Counter::ArbDenials => "sim_arb_denials",
            Counter::ArbGrants => "sim_arb_grants",
            Counter::GarbRequests => "sim_garb_requests",
            Counter::GarbFastDenials => "sim_garb_fast_denials",
            Counter::GarbDenials => "sim_garb_denials",
            Counter::DirWsigsReceived => "sim_dir_wsigs_received",
            Counter::DirLookups => "sim_dir_lookups",
            Counter::DirLookupsUnnecessary => "sim_dir_lookups_unnecessary",
            Counter::DirUpdates => "sim_dir_updates",
            Counter::DirUpdatesUnnecessary => "sim_dir_updates_unnecessary",
            Counter::DirInvTargets => "sim_dir_inv_targets",
            Counter::FabricMessages => "sim_fabric_messages",
            Counter::FabricBytes => "sim_fabric_bytes",
            Counter::RunsCompleted => "sim_runs_completed",
            Counter::PoolJobsCompleted => "pool_jobs_completed",
            Counter::PoolJobsPanicked => "pool_jobs_panicked",
        }
    }

    /// The counter that tallies squashes of `cause`. This is the single
    /// source of truth binding the trace vocabulary to the metrics
    /// registry: the heartbeat reads its per-cause squash rates through
    /// this mapping, and a test below pins each mapped counter's
    /// exposition name to the cause's trace label so the two surfaces can
    /// never drift.
    pub fn for_squash_cause(cause: bulksc_trace::SquashCause) -> Counter {
        use bulksc_trace::SquashCause;
        match cause {
            SquashCause::TrueSharing => Counter::SquashesTrueSharing,
            SquashCause::Alias => Counter::SquashesAlias,
            SquashCause::Overflow => Counter::SquashesOverflow,
        }
    }
}

/// Registered gauges. Gauges here are *high-water marks*:
/// [`MetricsSnapshot::peak`] keeps the maximum observed value, and
/// snapshots merge by maximum — the only gauge semantic whose merge is
/// order- and width-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Gauge {
    /// Peak messages simultaneously in flight in one fabric.
    FabricDepthPeak,
    /// Peak W signatures simultaneously held by one arbiter.
    ArbPendingWPeak,
    /// Peak depth of the pool's pending-job queue.
    PoolQueueDepthPeak,
}

/// Number of registered gauges.
pub const GAUGE_COUNT: usize = 3;

impl Gauge {
    /// Every gauge, in registry order.
    pub const ALL: [Gauge; GAUGE_COUNT] = [
        Gauge::FabricDepthPeak,
        Gauge::ArbPendingWPeak,
        Gauge::PoolQueueDepthPeak,
    ];

    /// The stable exposition name (without the `bulksc_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::FabricDepthPeak => "sim_fabric_depth_peak",
            Gauge::ArbPendingWPeak => "sim_arb_pending_w_peak",
            Gauge::PoolQueueDepthPeak => "pool_queue_depth_peak",
        }
    }

    /// True if the gauge tracks host-side state (excluded from the
    /// deterministic surface: it depends on wall-clock scheduling).
    pub fn host_side(self) -> bool {
        matches!(self, Gauge::PoolQueueDepthPeak)
    }
}

/// Registered histograms (backed by [`bulksc_stats::Histogram`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Hist {
    /// Instructions per committed chunk (simulated; deterministic).
    ChunkInstrs,
    /// Wall nanoseconds per completed pool job (host time; noisy).
    JobWallNs,
}

/// Number of registered histograms.
pub const HIST_COUNT: usize = 2;

impl Hist {
    /// Every histogram, in registry order.
    pub const ALL: [Hist; HIST_COUNT] = [Hist::ChunkInstrs, Hist::JobWallNs];

    /// The stable exposition name (without the `bulksc_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Hist::ChunkInstrs => "sim_chunk_instrs",
            Hist::JobWallNs => "pool_job_wall_ns",
        }
    }

    /// True if the histogram measures host time (excluded from the
    /// deterministic surface).
    pub fn host_time(self) -> bool {
        matches!(self, Hist::JobWallNs)
    }
}

/// One run's view of the registry, or the merge of many.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    counters: [u64; COUNTER_COUNT],
    gauges: [u64; GAUGE_COUNT],
    hists: [Histogram; HIST_COUNT],
}

impl MetricsSnapshot {
    /// Add `n` to counter `c`.
    pub fn count(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Raise gauge `g` to `v` if `v` exceeds its high-water mark.
    pub fn peak(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g as usize];
        *slot = (*slot).max(v);
    }

    /// One histogram, to record or merge into.
    pub fn hist_mut(&mut self, h: Hist) -> &mut Histogram {
        &mut self.hists[h as usize]
    }

    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The high-water mark of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// One histogram.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(Histogram::is_empty)
    }

    /// Merge another snapshot into this one. Counters sum, gauges take
    /// the maximum, histograms merge bucket-wise — every operation is
    /// commutative and associative, so any merge order over any set of
    /// runs yields the identical snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// The deterministic surface: counters, simulated gauges, and
    /// simulated histograms, one `name value` line each in registry
    /// order. Byte-identical across runs, hosts, and pool widths for the
    /// same simulated work; host-time metrics are excluded.
    pub fn deterministic_text(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!("{} {}\n", c.name(), self.counter(c)));
        }
        for g in Gauge::ALL {
            if g.host_side() {
                continue;
            }
            out.push_str(&format!("{} {}\n", g.name(), self.gauge(g)));
        }
        for h in Hist::ALL {
            if h.host_time() {
                continue;
            }
            let hist = self.hist(h);
            out.push_str(&format!(
                "{} count={} sum={} min={} max={}\n",
                h.name(),
                hist.count(),
                hist.sum(),
                hist.min(),
                hist.max()
            ));
        }
        out
    }

    /// Prometheus-style text exposition of the full snapshot (counters,
    /// gauges, and histograms rendered as summaries), every family
    /// prefixed `bulksc_`. This is the format a future `bulksc-serve`
    /// scrape endpoint would return verbatim.
    pub fn to_text_exposition(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!("# TYPE bulksc_{} counter\n", c.name()));
            out.push_str(&format!("bulksc_{} {}\n", c.name(), self.counter(c)));
        }
        for g in Gauge::ALL {
            out.push_str(&format!("# TYPE bulksc_{} gauge\n", g.name()));
            out.push_str(&format!("bulksc_{} {}\n", g.name(), self.gauge(g)));
        }
        for h in Hist::ALL {
            let hist = self.hist(h);
            out.push_str(&format!("# TYPE bulksc_{} summary\n", h.name()));
            for (q, p) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
                out.push_str(&format!(
                    "bulksc_{}{{quantile=\"{q}\"}} {}\n",
                    h.name(),
                    hist.percentile(p)
                ));
            }
            out.push_str(&format!("bulksc_{}_sum {}\n", h.name(), hist.sum()));
            out.push_str(&format!("bulksc_{}_count {}\n", h.name(), hist.count()));
        }
        out
    }
}

static GLOBAL: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);

/// Merge a snapshot into the process-global accumulator: each run's view
/// from `System::run` and each pool job's wall time, while a heartbeat is
/// live.
pub fn publish(snap: MetricsSnapshot) {
    let mut global = GLOBAL.lock().unwrap();
    match global.as_mut() {
        Some(g) => g.merge(&snap),
        None => *global = Some(snap),
    }
}

/// Take (and clear) the process-global accumulator, with the pool's job
/// and queue totals filled in from the [`live`] progress state.
pub fn take_global() -> MetricsSnapshot {
    let mut snap = GLOBAL
        .lock()
        .expect("no merge panics while holding the accumulator")
        .take()
        .unwrap_or_default();
    let live = live::snapshot();
    snap.counters[Counter::PoolJobsCompleted as usize] = live.done;
    snap.counters[Counter::PoolJobsPanicked as usize] = live.panicked;
    snap.gauges[Gauge::PoolQueueDepthPeak as usize] = live.queue_peak;
    snap
}

/// Clear the process-global accumulator (start of a metered sweep).
pub fn reset_global() {
    *GLOBAL.lock().unwrap() = None;
}

pub mod live {
    //! Process-global live progress for sweep heartbeats.
    //!
    //! These are relaxed atomics a heartbeat thread can read while pool
    //! workers are mid-job: job counts and queue depth. Activation is
    //! process-wide: the pool only spends atomic operations on live state,
    //! and `System::run` only publishes its view, when a `--metrics` sweep
    //! turned it on. The per-cause squash tallies in a [`LiveSnapshot`]
    //! are read from the accumulator, so they move as runs finish.

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use bulksc_trace::SquashCause;

    use super::{Counter, GLOBAL};

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static TOTAL: AtomicU64 = AtomicU64::new(0);
    static DONE: AtomicU64 = AtomicU64::new(0);
    static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
    static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
    static QUEUE_PEAK: AtomicU64 = AtomicU64::new(0);
    static PANICKED: AtomicU64 = AtomicU64::new(0);

    /// Turn live collection on and zero all progress state.
    pub fn activate() {
        reset();
        ACTIVE.store(true, Ordering::SeqCst);
    }

    /// Turn live collection off (progress state keeps its last values so
    /// a final snapshot can still be taken).
    pub fn deactivate() {
        ACTIVE.store(false, Ordering::SeqCst);
    }

    /// True while a `--metrics` sweep is running.
    #[inline]
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Zero all progress state.
    pub fn reset() {
        for a in [
            &TOTAL,
            &DONE,
            &IN_FLIGHT,
            &QUEUE_DEPTH,
            &QUEUE_PEAK,
            &PANICKED,
        ] {
            a.store(0, Ordering::SeqCst);
        }
    }

    /// A sweep enqueued `n` more jobs.
    pub fn add_total(n: u64) {
        TOTAL.fetch_add(n, Ordering::Relaxed);
        let depth = QUEUE_DEPTH.fetch_add(n, Ordering::Relaxed) + n;
        QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
    }

    /// A worker pulled a job off the queue.
    pub fn job_started() {
        QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
    }

    /// A job ran to completion.
    pub fn job_finished() {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        DONE.fetch_add(1, Ordering::Relaxed);
    }

    /// A job panicked.
    pub fn job_panicked() {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        PANICKED.fetch_add(1, Ordering::Relaxed);
    }

    /// One coherent-enough view of the progress state (fields are read
    /// independently; a heartbeat tolerates a job moving between reads).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LiveSnapshot {
        /// Jobs enqueued so far.
        pub total: u64,
        /// Jobs completed.
        pub done: u64,
        /// Jobs currently executing.
        pub in_flight: u64,
        /// Jobs waiting in the queue.
        pub queue_depth: u64,
        /// Highest queue depth observed.
        pub queue_peak: u64,
        /// Jobs that panicked.
        pub panicked: u64,
        /// Squashes caused by true sharing, in the runs finished so far.
        pub squashes_true: u64,
        /// Squashes caused by signature aliasing.
        pub squashes_alias: u64,
        /// Squashes caused by speculative-state overflow.
        pub squashes_overflow: u64,
    }

    /// Read the current progress state.
    pub fn snapshot() -> LiveSnapshot {
        let squashes = {
            let acc = GLOBAL
                .lock()
                .expect("no merge panics while holding the accumulator");
            SquashCause::ALL.map(|cause| {
                acc.as_ref()
                    .map_or(0, |s| s.counter(Counter::for_squash_cause(cause)))
            })
        };
        let [squashes_alias, squashes_true, squashes_overflow] = squashes;
        LiveSnapshot {
            total: TOTAL.load(Ordering::Relaxed),
            done: DONE.load(Ordering::Relaxed),
            in_flight: IN_FLIGHT.load(Ordering::Relaxed),
            queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
            queue_peak: QUEUE_PEAK.load(Ordering::Relaxed),
            panicked: PANICKED.load(Ordering::Relaxed),
            squashes_true,
            squashes_alias,
            squashes_overflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_consistent() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        assert_eq!(Gauge::ALL.len(), GAUGE_COUNT);
        assert_eq!(Hist::ALL.len(), HIST_COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "counter order matches discriminants");
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
        // Names are unique across all three families (they key the
        // exposition).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn squash_cause_names_cannot_drift_from_trace_labels() {
        // One source of truth: for every trace-level squash cause, the
        // mapped counter's exposition name must be exactly
        // `sim_squashes_<label>` with the label's dashes folded to
        // underscores. Renaming either side breaks this test.
        for cause in bulksc_trace::SquashCause::ALL {
            let expected = format!("sim_squashes_{}", cause.label().replace('-', "_"));
            assert_eq!(
                Counter::for_squash_cause(cause).name(),
                expected,
                "metric name drifted from trace label for {:?}",
                cause
            );
        }
        // The mapping is injective: three causes, three distinct counters.
        let mut mapped: Vec<Counter> = bulksc_trace::SquashCause::ALL
            .iter()
            .map(|&c| Counter::for_squash_cause(c))
            .collect();
        mapped.dedup();
        assert_eq!(mapped.len(), 3);
    }

    /// Serializes tests that touch the process-global accumulator or the
    /// live atomics (the cargo harness runs `#[test]`s concurrently).
    static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_SLOT.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn live_squash_tallies_read_the_accumulator() {
        let _g = lock();
        reset_global();
        assert_eq!(live::snapshot().squashes_alias, 0, "empty accumulator");
        let mut run = MetricsSnapshot::default();
        run.count(Counter::SquashesTrueSharing, 1);
        run.count(Counter::SquashesAlias, 2);
        run.count(Counter::SquashesOverflow, 3);
        publish(run.clone());
        publish(run);
        let s = live::snapshot();
        assert_eq!(s.squashes_true, 2);
        assert_eq!(s.squashes_alias, 4);
        assert_eq!(s.squashes_overflow, 6);
        reset_global();
        assert_eq!(live::snapshot().squashes_alias, 0);
    }

    fn run_view(n: u64, peak: u64, chunk: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.count(Counter::ArbRequests, n);
        s.peak(Gauge::FabricDepthPeak, peak);
        s.peak(Gauge::FabricDepthPeak, peak / 2); // below peak: ignored
        s.hist_mut(Hist::ChunkInstrs).record(chunk);
        s
    }

    #[test]
    fn merge_is_commutative() {
        let a = run_view(10, 4, 100);
        let b = run_view(3, 9, 200);
        let c = run_view(7, 1, 50);
        assert_eq!(a.counter(Counter::ArbRequests), 10);
        assert_eq!(a.gauge(Gauge::FabricDepthPeak), 4);
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc.deterministic_text(), cba.deterministic_text());
        assert_eq!(abc.counter(Counter::ArbRequests), 20);
        assert_eq!(abc.gauge(Gauge::FabricDepthPeak), 9);
        assert_eq!(abc.hist(Hist::ChunkInstrs).count(), 3);
        assert!(MetricsSnapshot::default().is_empty());
        assert!(!abc.is_empty());
    }

    #[test]
    fn exposition_is_prometheus_shaped() {
        let mut snap = MetricsSnapshot::default();
        snap.count(Counter::FabricMessages, 1);
        snap.count(Counter::FabricBytes, 64);
        snap.hist_mut(Hist::JobWallNs).record(1_000_000);
        let text = snap.to_text_exposition();
        assert!(text.contains("# TYPE bulksc_sim_fabric_messages counter"));
        assert!(text.contains("bulksc_sim_fabric_bytes 64"));
        assert!(text.contains("bulksc_pool_job_wall_ns_count 1"));
        assert!(text.contains("quantile=\"0.5\""));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            assert!(name.starts_with("bulksc_"), "{line}");
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "{line}");
            assert!(parts.next().is_none(), "{line}");
        }
        // Host-time metrics stay out of the deterministic surface.
        let det = snap.deterministic_text();
        assert!(!det.contains("pool_job_wall_ns"), "{det}");
        assert!(det.contains("sim_fabric_bytes 64"), "{det}");
    }

    #[test]
    fn publish_accumulates_into_the_global() {
        let _g = lock();
        live::reset();
        reset_global();
        let mut run = MetricsSnapshot::default();
        run.count(Counter::RunsCompleted, 1);
        publish(run.clone());
        run.count(Counter::RunsCompleted, 1);
        publish(run);
        let merged = take_global();
        assert_eq!(merged.counter(Counter::RunsCompleted), 3);
        // take_global drains.
        assert!(take_global().is_empty());
    }

    #[test]
    fn live_progress_tracks_jobs() {
        let _g = lock();
        live::activate();
        assert!(live::is_active());
        live::add_total(4);
        live::job_started();
        live::job_started();
        live::job_finished();
        live::job_panicked();
        let s = live::snapshot();
        assert_eq!(s.total, 4);
        assert_eq!(s.done, 1);
        assert_eq!(s.panicked, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_peak, 4);
        live::deactivate();
        assert!(!live::is_active());
        // The accumulator reports the pool's totals from live state.
        reset_global();
        let snap = take_global();
        assert_eq!(snap.counter(Counter::PoolJobsCompleted), 1);
        assert_eq!(snap.counter(Counter::PoolJobsPanicked), 1);
        assert_eq!(snap.gauge(Gauge::PoolQueueDepthPeak), 4);
        live::reset();
        assert_eq!(live::snapshot().total, 0);
    }
}
