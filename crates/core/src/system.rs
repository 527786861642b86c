//! The complete simulated machine (Figure 5 of the paper): cores with
//! their L1s and BDMs, directory modules, arbiter(s), the optional
//! G-arbiter, and the interconnect — advanced cycle by cycle,
//! deterministically.

use bulksc_cpu::{BaselineNode, CoreStats, PortStats, ValueStore};
use bulksc_metrics::{Counter, Gauge, Hist, MetricsSnapshot};
use bulksc_net::{Cycle, Envelope, Fabric, NodeId};
use bulksc_trace::{Event, IntervalSeries, TraceHandle};
use bulksc_workloads::{AddressMap, ThreadProgram};

use bulksc_mem::Directory;

use crate::arbiter::{ArbStats, Arbiter};
use crate::config::{Model, SystemConfig};
use crate::garbiter::GArbiter;
use crate::node::{BulkNode, BulkStats};

/// One core endpoint: a baseline core or a BulkSC core.
///
/// (Both variants are hundreds of bytes and there are only `cores` of
/// them, heap-allocated once per run — boxing would buy nothing.)
#[allow(clippy::large_enum_variant)]
pub enum CoreNode {
    /// SC / TSO / RC / SC++ (from `bulksc-cpu`).
    Baseline(BaselineNode),
    /// The BulkSC checkpointed core.
    Bulk(BulkNode),
}

impl CoreNode {
    /// Tick the core; returns the cycle it must tick at next unless a
    /// message reaches it first.
    fn tick(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) -> Cycle {
        match self {
            CoreNode::Baseline(n) => n.tick(now, fab, values),
            CoreNode::Bulk(n) => n.tick(now, fab, values),
        }
    }

    fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric, values: &mut ValueStore) {
        match self {
            CoreNode::Baseline(n) => n.handle(now, env, fab, values),
            CoreNode::Bulk(n) => n.handle(now, env, fab, values),
        }
    }

    fn finished(&self) -> bool {
        match self {
            CoreNode::Baseline(n) => n.finished(),
            CoreNode::Bulk(n) => n.finished(),
        }
    }

    /// The thread program, for reading observations after a run.
    pub fn program(&self) -> &dyn ThreadProgram {
        match self {
            CoreNode::Baseline(n) => n.program(),
            CoreNode::Bulk(n) => n.program(),
        }
    }

    /// BulkSC statistics, if this is a BulkSC core.
    pub fn bulk_stats(&self) -> Option<&BulkStats> {
        match self {
            CoreNode::Bulk(n) => Some(n.stats()),
            CoreNode::Baseline(_) => None,
        }
    }

    /// Baseline statistics, if this is a baseline core.
    pub fn baseline_stats(&self) -> Option<&CoreStats> {
        match self {
            CoreNode::Baseline(n) => Some(n.stats()),
            CoreNode::Bulk(_) => None,
        }
    }

    /// L1 and miss counters, for either kind of core.
    pub fn port_stats(&self) -> &PortStats {
        match self {
            CoreNode::Baseline(n) => n.port_stats(),
            CoreNode::Bulk(n) => n.port_stats(),
        }
    }

    /// One-line diagnostic snapshot.
    pub fn debug_state(&self) -> String {
        match self {
            CoreNode::Baseline(n) => n.debug_state(),
            CoreNode::Bulk(n) => n.debug_state(),
        }
    }
}

/// The whole machine.
pub struct System {
    cfg: SystemConfig,
    nodes: Vec<CoreNode>,
    dirs: Vec<Directory>,
    arbiters: Vec<Arbiter>,
    garbiter: Option<GArbiter>,
    fabric: Fabric,
    values: ValueStore,
    now: Cycle,
    trace: TraceHandle,
    sampler: Option<IntervalSeries>,
    /// Per core, the cycle its last tick asked to run at next
    /// (`Cycle::MAX`: only a message wakes it). A delivery sets it to now.
    wake: Vec<Cycle>,
    /// The messages being delivered this cycle; empty between cycles, and
    /// kept so that delivering allocates nothing once it is warm.
    inbox: Vec<Envelope>,
}

impl System {
    /// Build the machine of `cfg` running one program per core.
    ///
    /// # Panics
    ///
    /// Panics if the program count does not match the core count, or if a
    /// distributed-arbiter configuration does not pair arbiters with
    /// directories one-to-one.
    pub fn new(cfg: SystemConfig, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Setup);
        assert_eq!(programs.len() as u32, cfg.cores, "one program per core");
        let map = AddressMap::new(cfg.cores);
        let num_dirs = cfg.dirs;
        assert!(num_dirs >= 1, "at least one directory");
        if matches!(cfg.model, Model::Baseline(_)) {
            assert_eq!(
                num_dirs, 1,
                "baseline models are wired for a single directory"
            );
        }

        let nodes: Vec<CoreNode> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| match &cfg.model {
                Model::Baseline(m) => CoreNode::Baseline(BaselineNode::new(
                    i as u32, *m, cfg.core, cfg.l1, p, cfg.budget, num_dirs,
                )),
                Model::Bulk(b) => CoreNode::Bulk(BulkNode::new(
                    i as u32,
                    cfg.core,
                    b.clone(),
                    cfg.l1,
                    p,
                    cfg.budget,
                    num_dirs,
                    map,
                )),
            })
            .collect();

        let dirs: Vec<Directory> = (0..num_dirs)
            .map(|i| Directory::new(NodeId::Dir(i), cfg.dir.clone()))
            .collect();

        let (arbiters, garbiter) = match &cfg.model {
            Model::Baseline(_) => (Vec::new(), None),
            Model::Bulk(b) => {
                let n = b.num_arbiters;
                let mut arbs: Vec<Arbiter> = if n == 1 {
                    vec![Arbiter::new(
                        NodeId::Arbiter(0),
                        b.arb_latency,
                        (0..num_dirs).collect(),
                        num_dirs,
                    )]
                } else {
                    assert_eq!(
                        n, num_dirs,
                        "distributed arbiters pair one-to-one with directories"
                    );
                    (0..n)
                        .map(|i| Arbiter::new(NodeId::Arbiter(i), b.arb_latency, vec![i], num_dirs))
                        .collect()
                };
                let mut g = (n > 1).then(|| GArbiter::new(b.arb_latency, n));
                if b.xray {
                    for a in &mut arbs {
                        a.set_xray(true);
                    }
                    if let Some(g) = &mut g {
                        g.set_xray(true);
                    }
                }
                (arbs, g)
            }
        };

        System {
            fabric: Fabric::new(cfg.fabric),
            wake: vec![0; nodes.len()],
            nodes,
            dirs,
            arbiters,
            garbiter,
            cfg,
            values: ValueStore::new(),
            now: 0,
            trace: TraceHandle::off(),
            sampler: None,
            inbox: Vec::new(),
        }
    }

    /// Route every component's events to `trace`'s sinks: the fabric's
    /// sends, the system's delivers, and the chunk-lifecycle events of the
    /// BulkSC cores, directories, and (G-)arbiters. Clones of the handle
    /// share the same sinks, so one attached sink sees the whole machine.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.fabric.set_tracer(trace.clone());
        for n in &mut self.nodes {
            match n {
                CoreNode::Bulk(b) => b.set_tracer(trace.clone()),
                CoreNode::Baseline(b) => b.set_tracer(trace.clone()),
            }
        }
        for d in &mut self.dirs {
            d.set_tracer(trace.clone());
        }
        for a in &mut self.arbiters {
            a.set_tracer(trace.clone());
        }
        if let Some(g) = &mut self.garbiter {
            g.set_tracer(trace.clone());
        }
        self.trace = trace;
    }

    /// Record an [`bulksc_trace::IntervalSample`] every `every` cycles
    /// (clamped to at least 1).
    ///
    /// The series is primed with the *current* cycle and counter totals,
    /// so enabling sampling mid-run yields a first sample covering only
    /// the window since now — not deltas diluted over the whole untraced
    /// prefix.
    pub fn enable_sampling(&mut self, every: Cycle) {
        let mut series = IntervalSeries::new(every);
        series.prime(self.now, &self.per_core_retired(), self.gauge_snapshot());
        self.sampler = Some(series);
    }

    /// The interval samples collected so far (empty slice if sampling was
    /// never enabled).
    pub fn samples(&self) -> &[bulksc_trace::IntervalSample] {
        self.sampler.as_ref().map(|s| s.samples()).unwrap_or(&[])
    }

    /// The interval series itself, for JSON export.
    pub fn interval_series(&self) -> Option<&IntervalSeries> {
        self.sampler.as_ref()
    }

    fn per_core_retired(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| match n {
                CoreNode::Baseline(b) => b.stats().retired,
                CoreNode::Bulk(b) => b.stats().retired,
            })
            .collect()
    }

    fn gauge_snapshot(&self) -> bulksc_trace::GaugeSnapshot {
        bulksc_trace::GaugeSnapshot {
            pending_w: self.arbiters.iter().map(|a| a.pending() as u64).sum(),
            arb_queue: self.arbiters.iter().map(|a| a.queue_depth() as u64).sum(),
            squashing_cores: self
                .nodes
                .iter()
                .filter(|n| matches!(n, CoreNode::Bulk(b) if b.squashing()))
                .count() as u64,
            fabric_depth: self.fabric.in_flight() as u64,
            traffic_bytes: self.fabric.traffic().total(),
            messages: self.fabric.traffic().messages(),
        }
    }

    fn drive_sampler(&mut self) {
        let Some(s) = &self.sampler else { return };
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Sampler);
        if !s.due(self.now) {
            return;
        }
        let retired = self.per_core_retired();
        let gauges = self.gauge_snapshot();
        let s = self.sampler.as_mut().expect("checked above");
        s.record(self.now, &retired, gauges);
    }

    /// Current simulation time.
    pub fn cycles(&self) -> Cycle {
        self.now
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Committed memory values.
    pub fn values(&self) -> &ValueStore {
        &self.values
    }

    /// Interconnect traffic so far.
    pub fn traffic(&self) -> &bulksc_net::TrafficStats {
        self.fabric.traffic()
    }

    /// The core endpoints (stats, programs, observations).
    pub fn nodes(&self) -> &[CoreNode] {
        &self.nodes
    }

    /// The arbiter modules (empty for baselines).
    pub fn arbiter_stats(&self) -> Vec<&ArbStats> {
        self.arbiters.iter().map(|a| a.stats()).collect()
    }

    /// Per-thread observation logs (litmus outcomes).
    pub fn observations(&self) -> Vec<Vec<u64>> {
        self.nodes
            .iter()
            .map(|n| n.program().observations())
            .collect()
    }

    /// True once every core has finished and the network has drained.
    pub fn finished(&self) -> bool {
        self.nodes.iter().all(|n| n.finished()) && self.fabric.is_idle()
    }

    /// Advance one cycle: deliver due messages, then tick each core that
    /// received one or whose wake cycle has come. A core whose last tick
    /// changed nothing waits only on its timers and its messages, so
    /// skipping it until then leaves every simulated byte as it was.
    pub fn step(&mut self) {
        self.advance(false);
    }

    /// [`System::step`], ticking every core whatever its wake cycle: the
    /// reference the wakeups are tested against.
    #[doc(hidden)]
    pub fn step_every_core(&mut self) {
        self.advance(true);
    }

    fn advance(&mut self, every_core: bool) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.fabric.deliver_due(self.now, &mut inbox);
        for env in inbox.drain(..) {
            self.trace.emit_net(self.now, || Event::NetDeliver {
                src: env.src.into(),
                dst: env.dst.into(),
                kind: env.msg.kind(),
            });
            match env.dst {
                NodeId::Core(c) => {
                    self.wake[c as usize] = self.now;
                    self.nodes[c as usize].handle(self.now, env, &mut self.fabric, &mut self.values)
                }
                NodeId::Dir(d) => {
                    self.dirs[d as usize].handle(self.now, env, &mut self.fabric, &self.values)
                }
                NodeId::Arbiter(a) => {
                    self.arbiters[a as usize].handle(self.now, env, &mut self.fabric)
                }
                NodeId::GArbiter => self
                    .garbiter
                    .as_mut()
                    .expect("G-arbiter configured")
                    .handle(self.now, env, &mut self.fabric),
            }
        }
        self.inbox = inbox;
        for (n, wake) in self.nodes.iter_mut().zip(&mut self.wake) {
            if every_core || *wake <= self.now {
                *wake = n.tick(self.now, &mut self.fabric, &mut self.values);
            }
        }
        self.drive_sampler();
        self.now += 1;
    }

    /// Run until every core finishes or `max_cycles` elapse, stepping
    /// every cycle. Returns true if the machine finished, and false at the
    /// cap or once a watchdog sees a stuck machine: no instruction retired
    /// and no message sent for 65,536 cycles. `debug_state` then still
    /// shows what it was waiting for.
    ///
    /// While a `--metrics` heartbeat is live, the run's [`System::metrics`]
    /// view is merged into the process-global accumulator on return.
    pub fn run(&mut self, max_cycles: Cycle) -> bool {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Run);
        let mut mark = (self.progress(), self.now);
        while self.now < max_cycles && !self.finished() {
            if self.now.is_multiple_of(STALL_CHECK_EVERY) {
                let progress = self.progress();
                if progress != mark.0 {
                    mark = (progress, self.now);
                } else if self.now - mark.1 >= STALL_WINDOW {
                    break;
                }
            }
            self.step();
        }
        if bulksc_metrics::live::is_active() {
            bulksc_metrics::publish(self.metrics());
        }
        self.finished()
    }

    /// This run's view of the metrics registry, read out of the
    /// components' own statistics: the one place the simulator sums its
    /// counters into registry families. `SimReport::collect` reads its
    /// counts from here.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        for n in &self.nodes {
            match n {
                CoreNode::Bulk(b) => {
                    let s = b.stats();
                    m.count(Counter::ChunksCommitted, s.chunks_committed);
                    m.count(Counter::SquashesTrueSharing, s.true_squashes);
                    m.count(Counter::SquashesAlias, s.alias_squashes);
                    m.count(Counter::SquashesOverflow, s.overflow_squashes);
                    m.count(Counter::InstrsSquashed, s.squashed_instrs);
                    m.count(Counter::SigFpExtraInvs, s.extra_cache_invs);
                    m.hist_mut(Hist::ChunkInstrs).merge(&s.chunk_instrs);
                }
                CoreNode::Baseline(b) => {
                    m.count(Counter::InstrsSquashed, b.stats().squashed_instrs)
                }
            }
        }
        // Committed work only: `retired` also holds the instructions of
        // chunks an unfinished run has not committed yet.
        let committed = m.hist(Hist::ChunkInstrs).sum();
        m.count(Counter::InstrsCommitted, committed);
        for a in &self.arbiters {
            let s = a.stats();
            m.count(Counter::ArbRequests, s.requests);
            m.count(Counter::ArbDenials, s.denials);
            m.count(Counter::ArbGrants, s.grants);
            m.peak(Gauge::ArbPendingWPeak, s.pending_w_peak);
        }
        if let Some(g) = &self.garbiter {
            let s = g.stats();
            m.count(Counter::GarbRequests, s.requests);
            m.count(Counter::GarbFastDenials, s.fast_denials);
            m.count(Counter::GarbDenials, s.denials);
        }
        for d in &self.dirs {
            let s = d.stats();
            m.count(Counter::DirWsigsReceived, s.wsigs_received);
            m.count(Counter::DirLookups, s.lookups);
            m.count(Counter::DirLookupsUnnecessary, s.unnecessary_lookups);
            m.count(Counter::DirUpdates, s.updates);
            m.count(Counter::DirUpdatesUnnecessary, s.unnecessary_updates);
            m.count(Counter::DirInvTargets, s.inv_targets);
        }
        let traffic = self.fabric.traffic();
        m.count(Counter::FabricMessages, traffic.messages());
        m.count(Counter::FabricBytes, traffic.total());
        m.peak(Gauge::FabricDepthPeak, self.fabric.peak_in_flight() as u64);
        m.count(Counter::RunsCompleted, self.finished() as u64);
        m
    }

    /// Instructions retired plus messages sent so far: the watchdog's
    /// measure of forward progress.
    fn progress(&self) -> u64 {
        self.per_core_retired().iter().sum::<u64>() + self.fabric.traffic().messages()
    }

    /// One-line diagnostic snapshot of the whole machine (for debugging
    /// stuck runs).
    pub fn debug_state(&self) -> String {
        let mut s = String::new();
        for (n, &wake) in self.nodes.iter().zip(&self.wake) {
            s.push_str(&n.debug_state());
            if wake == Cycle::MAX {
                s.push_str(" wake=message\n");
            } else {
                s.push_str(&format!(" wake={wake}\n"));
            }
        }
        for d in &self.dirs {
            s.push_str(&d.debug_state());
            s.push('\n');
        }
        for a in &self.arbiters {
            s.push_str(&format!("arbiter pending={}\n", a.pending()));
        }
        if let Some(g) = &self.garbiter {
            s.push_str(&g.debug_state());
            s.push('\n');
        }
        s.push_str(&format!(
            "fabric idle={} next={:?} now={}",
            self.fabric.is_idle(),
            self.fabric.next_delivery(),
            self.now
        ));
        if let Some(ring) = self.trace.ring_dump() {
            s.push('\n');
            s.push_str(&ring);
        }
        s
    }
}

/// The stuck-run watchdog: [`System::run`] looks at [`System::progress`]
/// every `STALL_CHECK_EVERY` cycles and gives up once it has not moved
/// for `STALL_WINDOW` cycles.
const STALL_CHECK_EVERY: Cycle = 1024;
const STALL_WINDOW: Cycle = 65_536;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BulkConfig;
    use bulksc_cpu::BaselineModel;
    use bulksc_workloads::{fuzz_programs, FuzzSpec};

    #[test]
    fn watchdog_gives_up_on_a_machine_that_lost_its_messages() {
        let spec = FuzzSpec::default();
        let sc = Model::Baseline(BaselineModel::Sc);
        for model in [sc, Model::Bulk(BulkConfig::bsc_dypvt())] {
            let name = model.name();
            let mut cfg = SystemConfig::cmp8(model);
            (cfg.cores, cfg.budget) = (spec.threads, u64::MAX);
            let mut sys = System::new(cfg, fuzz_programs(spec, 1));
            while sys.fabric.is_idle() {
                sys.step();
            }
            // Lose every in-flight message: the misses that sent them now
            // wait for replies that will never come.
            sys.fabric.deliver_due(Cycle::MAX, &mut sys.inbox);
            assert!(!std::mem::take(&mut sys.inbox).is_empty());
            let lost_at = sys.cycles();
            assert!(!sys.run(u64::MAX / 4), "{name}: a stuck machine finished");
            let gave_up = sys.cycles();
            let bound = lost_at + STALL_WINDOW + 2 * STALL_CHECK_EVERY;
            assert!(
                gave_up <= bound,
                "{name}: lost at {lost_at}, gave up at {gave_up}"
            );
            let dump = sys.debug_state();
            assert!(
                dump.contains("sent=true"),
                "{name}: no orphaned miss:\n{dump}"
            );
            assert!(
                dump.contains(" wake=message"),
                "{name}: no core waits only for a message:\n{dump}"
            );
        }
    }

    #[test]
    fn identical_machines_print_identical_dumps() {
        let spec = FuzzSpec::default();
        let sc = Model::Baseline(BaselineModel::Sc);
        let rc = Model::Baseline(BaselineModel::Rc);
        for model in [sc, rc, Model::Bulk(BulkConfig::bsc_dypvt())] {
            let name = model.name();
            for seed in 1..=4 {
                let build = || {
                    let mut cfg = SystemConfig::cmp8(model.clone());
                    (cfg.cores, cfg.budget) = (spec.threads, u64::MAX);
                    System::new(cfg, fuzz_programs(spec, seed))
                };
                let (mut a, mut b) = (build(), build());
                for until in [20, 50, 100, 200] {
                    while a.cycles() < until {
                        a.step();
                        b.step();
                    }
                    assert_eq!(
                        a.debug_state(),
                        b.debug_state(),
                        "{name}: seed {seed}, cycle {until}"
                    );
                }
            }
        }
    }
}
