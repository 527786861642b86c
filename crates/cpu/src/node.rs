//! The baseline core node: an out-of-order core model with its private L1,
//! implementing the three consistency baselines the paper compares BulkSC
//! against (§7.1), plus TSO:
//!
//! * **SC** — sequential consistency with the two classic optimizations of
//!   Gharachorloo et al.: hardware prefetching for reads (loads issue into
//!   the memory system as soon as they enter the window) and exclusive
//!   prefetching for writes (ownership is requested at fetch). Stores still
//!   *perform* strictly in order at the window head, and speculatively
//!   completed loads are revalidated R10000-style: an invalidation or
//!   displacement of the accessed line before retirement forces a re-issue.
//! * **RC** — release consistency with speculative execution across fences:
//!   loads retire as soon as they complete, stores retire into a store
//!   buffer that drains in order with overlapped exclusive prefetching, and
//!   fences impose no stall.
//! * **TSO** — total store order, the x86/SPARC middle ground: stores
//!   retire into the FIFO store buffer (so loads bypass older stores to
//!   other addresses), same-address loads forward from the newest buffered
//!   store, and fences and atomics drain the buffer before retiring. Loads
//!   keep R→R order via SC-style R10000 revalidation: an invalidation or
//!   displacement of a speculatively completed load's line forces a
//!   re-issue.
//! * **SC++** — the SC++ scheme of Gniady et al. modelled at epoch
//!   granularity: RC-like timing plus speculative-state tracking. The 2K-
//!   entry SHiQ is approximated by fixed-size epochs with program
//!   checkpoints; an external invalidation (or displacement) that hits an
//!   epoch's read/write set rolls the core back to that epoch's checkpoint
//!   and re-executes — the paper's "wasted work" cost.
//!
//! One node = one core + L1 + its protocol endpoint on the fabric.

use std::collections::VecDeque;

use bulksc_mem::{CacheConfig, InsertOutcome, LineState};
use bulksc_net::{Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::{Addr, LineAddr, LineData};
use bulksc_stats::IntSet;
use bulksc_trace::{Event, TraceHandle};
use bulksc_workloads::{Instr, ThreadProgram};

use crate::config::CoreConfig;
use crate::front::{Checkpoint, FrontEnd};
use crate::port::{Fetch, MemPort, PortStats};
use crate::window::{InstrWindow, SlotId, SlotState};
use bulksc_mem::ValueStore;

/// Which baseline consistency model this node enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineModel {
    /// Sequential consistency with read/exclusive prefetching.
    Sc,
    /// Release consistency with speculation across fences.
    Rc,
    /// SC++ (epoch-granularity model of the SHiQ).
    Scpp,
    /// Total store order: FIFO store buffer with forwarding, loads in
    /// order, fences/atomics drain.
    Tso,
}

/// Dynamic instructions per SC++ epoch (approximates the 2K-entry SHiQ).
const EPOCH_INSTRS: u64 = 1000;

/// Event counters for one core.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Dynamic instructions retired (committed).
    pub retired: u64,
    /// Dynamic instructions discarded by squashes (SC++).
    pub squashed_instrs: u64,
    /// Epoch squashes (SC++).
    pub squashes: u64,
    /// Cycle at which this core finished its program, if it has.
    pub finished_at: Option<Cycle>,
}

#[derive(Clone, Debug)]
struct SbEntry {
    addr: Addr,
    value: u64,
    epoch: u64,
    /// Program-order index assigned at retire (value tracing; the store's
    /// event is emitted later, when the buffer drains it to memory).
    po: u64,
    /// Cycle the store retired into the buffer (value tracing).
    retired_at: Cycle,
}

struct Epoch {
    id: u64,
    checkpoint: Checkpoint,
    reads: IntSet<LineAddr>,
    writes: IntSet<LineAddr>,
    /// Dynamic instructions retired within this epoch.
    retired: u64,
}

/// A baseline (SC / TSO / RC / SC++) core with its private L1.
pub struct BaselineNode {
    core: u32,
    model: BaselineModel,
    cfg: CoreConfig,

    front: FrontEnd,
    window: InstrWindow,
    /// What the last issue scan issued; empty between ticks.
    issued: Vec<(SlotId, Instr)>,
    port: MemPort,
    store_buffer: VecDeque<SbEntry>,

    /// SC: cycle the last memory operation retired (performs serialize).
    last_mem_retire: Cycle,

    /// Speculative epochs (SC++ only; for SC/RC it stays empty).
    epochs: VecDeque<Epoch>,
    current_epoch: u64,
    epoch_fetched: u64,
    /// Consecutive epoch squashes: shrinks the epoch so the core can
    /// reach a quiescent (safe) point under contention.
    epoch_squash_streak: u32,

    stats: CoreStats,
    trace: TraceHandle,
    /// Program-order index of the next value-traced access (only advanced
    /// while value tracing is active).
    po_next: u64,
}

impl BaselineNode {
    /// A core node for `core`, running `program` under `model`, stopping
    /// after `budget` retired dynamic instructions (or program end), on a
    /// machine with `num_dirs` directories.
    pub fn new(
        core: u32,
        model: BaselineModel,
        cfg: CoreConfig,
        l1: CacheConfig,
        program: Box<dyn ThreadProgram>,
        budget: u64,
        num_dirs: u32,
    ) -> Self {
        let mut node = BaselineNode {
            core,
            model,
            cfg,
            front: FrontEnd::new(program, budget),
            window: InstrWindow::new(cfg.window_size),
            issued: Vec::new(),
            port: MemPort::new(core, cfg, l1, num_dirs),
            store_buffer: VecDeque::new(),
            last_mem_retire: 0,
            epochs: VecDeque::new(),
            current_epoch: 0,
            epoch_fetched: 0,
            epoch_squash_streak: 0,
            stats: CoreStats::default(),
            trace: TraceHandle::off(),
            po_next: 0,
        };
        if model == BaselineModel::Scpp {
            node.open_epoch();
        }
        node
    }

    /// This node's network id.
    pub fn id(&self) -> NodeId {
        NodeId::Core(self.core)
    }

    /// Route this core's value-trace events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// True when retired accesses should be value-traced. SC++ is
    /// excluded: its epoch rollback retracts already-retired work, so a
    /// committed-value trace cannot be emitted at retire time.
    fn value_tracing(&self) -> bool {
        self.model != BaselineModel::Scpp && self.trace.enabled()
    }

    fn next_po(&mut self) -> u64 {
        let po = self.po_next;
        self.po_next += 1;
        po
    }

    /// The consistency model this node runs.
    pub fn model(&self) -> BaselineModel {
        self.model
    }

    /// Event counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// L1 and miss counters.
    pub fn port_stats(&self) -> &PortStats {
        self.port.stats()
    }

    /// The thread program (for reading observations after a run).
    pub fn program(&self) -> &dyn ThreadProgram {
        self.front.program()
    }

    /// True once the program has ended and all its effects have drained.
    pub fn finished(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    fn open_epoch(&mut self) {
        self.current_epoch += 1;
        self.epoch_fetched = 0;
        self.epochs.push_back(Epoch {
            id: self.current_epoch,
            checkpoint: self.front.checkpoint(),
            reads: IntSet::default(),
            writes: IntSet::default(),
            retired: 0,
        });
    }

    // ------------------------------------------------------------------
    // Per-cycle work.
    // ------------------------------------------------------------------

    /// Advance this core by one cycle. Returns the cycle it must tick at
    /// next unless a message reaches it first: the next cycle if this tick
    /// changed anything, else the earliest timer it waits on (see
    /// [`MemPort::next_timer`]), else `Cycle::MAX`.
    pub fn tick(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) -> Cycle {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        let before = self.activity(fab);
        // Protocol obligations outlive the program: a finished core must
        // still answer fetches deferred behind its last fills.
        for f in self.port.due_fetches(now) {
            self.surrender(now, f, fab);
        }
        if self.finished() {
            return self.port.next_fetch();
        }
        while let Some(slot) = self.port.next_completion(now) {
            self.complete_load(now, slot, |a| values.read(a));
        }
        self.retire(now, values);
        self.drain_store_buffer(now, values);
        self.issue(now);
        self.port.send_misses(now, fab);
        self.fetch();
        self.check_finished(now);
        if self.activity(fab) != before {
            return now + 1;
        }
        // SC's memory-perform gate (`may_perform_mem`).
        let gate = self.last_mem_retire + self.cfg.l1_latency;
        let sc_gate = if self.model == BaselineModel::Sc && gate > now {
            gate
        } else {
            Cycle::MAX
        };
        self.port.next_timer(now).min(sc_gate)
    }

    /// Everything a tick may change that a later tick reads: the change
    /// counts of the window, the port and the front end, the messages
    /// sent, and this node's own fields. `tick` compares it before and
    /// after; a field a tick writes lives in one of the three components
    /// or appears here.
    fn activity(&self, fab: &Fabric) -> impl PartialEq {
        (
            (
                self.window.changes(),
                self.port.changes(),
                self.front.changes(),
                fab.traffic().messages(),
            ),
            (
                self.stats.retired,
                self.stats.finished_at,
                self.store_buffer.len(),
                self.last_mem_retire,
                self.po_next,
            ),
            (
                self.epochs.len(),
                self.current_epoch,
                self.epoch_fetched,
                self.epoch_squash_streak,
            ),
        )
    }

    /// Complete the load at `slot`, forwarding from older stores in the
    /// window, then the store buffer, then `memory`.
    fn complete_load(&mut self, now: Cycle, slot: SlotId, memory: impl Fn(Addr) -> u64) {
        let sb = &self.store_buffer;
        let buffered = |a| sb.iter().rev().find(|e| e.addr == a).map(|e| e.value);
        self.port
            .complete_load(now, &mut self.window, slot, buffered, memory);
    }

    fn retire(&mut self, now: Cycle, values: &mut ValueStore) {
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            let Some(head) = self.window.oldest() else {
                break;
            };
            let (head_instr, head_state, head_value) = (head.instr, head.state, head.value);
            // The retiring slot's epoch (SC++; 0 for the other models).
            // Fetch may already have opened newer epochs, so the slot's
            // work, accesses and stores are credited by this tag.
            let epoch = head.tag;
            match head_instr {
                Instr::Compute(_) => {
                    let remaining = head.remaining;
                    let n = budget.min(remaining);
                    self.window.drain_oldest_compute(n);
                    budget -= n;
                    self.note_retired(epoch, n as u64);
                    if n == remaining {
                        self.window.pop_oldest();
                    }
                    continue;
                }
                Instr::Load { addr, consume } => {
                    if head_state != SlotState::Done || !self.may_perform_mem(now) {
                        break;
                    }
                    let value = head_value.expect("completed load carries its value");
                    self.trace_val(now, |core, po| Event::ValLoad {
                        core,
                        seq: 0,
                        po,
                        addr: addr.0,
                        value,
                        retired_at: now,
                    });
                    if consume {
                        self.front.deliver(value);
                    }
                    self.record_epoch_access(epoch, addr.line(), false);
                    self.note_mem_retire(now);
                }
                Instr::Store { addr, value } if self.model == BaselineModel::Sc => {
                    // Perform strictly at the head: needs ownership.
                    if !self.may_perform_mem(now)
                        || !self.try_perform_store(now, addr, value, values)
                    {
                        break;
                    }
                    self.trace_val(now, |core, po| Event::ValStore {
                        core,
                        seq: 0,
                        po,
                        addr: addr.0,
                        value,
                        retired_at: now,
                    });
                    self.note_mem_retire(now);
                }
                Instr::Store { addr, value } => {
                    // RC, SC++ and TSO retire stores into the buffer.
                    if self.store_buffer.len() >= self.cfg.store_buffer as usize {
                        break;
                    }
                    let po = if self.value_tracing() {
                        self.next_po()
                    } else {
                        0
                    };
                    self.store_buffer.push_back(SbEntry {
                        addr,
                        value,
                        epoch,
                        po,
                        retired_at: now,
                    });
                    self.record_epoch_access(epoch, addr.line(), true);
                }
                Instr::Rmw { addr, op } => {
                    // Atomics perform at the head with an empty store
                    // buffer (they are ordering points even under RC).
                    if !self.store_buffer.is_empty() {
                        break;
                    }
                    if !self.line_owned(addr.line()) {
                        self.port.want(now, addr.line(), true, None);
                        break;
                    }
                    let old = values.read(addr);
                    let new = op.apply(old);
                    values.write(addr, new);
                    self.port.l1.set_state(addr.line(), LineState::Dirty);
                    self.trace_val(now, |core, po| Event::ValRmw {
                        core,
                        seq: 0,
                        po,
                        addr: addr.0,
                        old,
                        new,
                        retired_at: now,
                    });
                    self.record_epoch_access(epoch, addr.line(), true);
                    self.front.deliver(old);
                }
                Instr::Fence => {
                    // SC is already strict; RC/SC++ speculate across
                    // fences; TSO's mfence retires only once the store
                    // buffer has drained.
                    if self.model == BaselineModel::Tso && !self.store_buffer.is_empty() {
                        break;
                    }
                }
                Instr::Io => {
                    // Uncached: wait until the core is quiescent.
                    if !self.store_buffer.is_empty() || self.port.has_misses() {
                        break;
                    }
                }
            }
            // Pop before counting: SC++'s safety check reads the new head.
            self.window.pop_oldest();
            self.note_retired(epoch, 1);
            budget -= 1;
        }
    }

    /// Value-trace an access retiring at `now`: `make` gets the core and
    /// the next program-order index. Does nothing unless value tracing is
    /// on.
    fn trace_val(&mut self, now: Cycle, make: impl FnOnce(u32, u64) -> Event) {
        if self.value_tracing() {
            let core = self.core;
            let po = self.next_po();
            self.trace.emit(now, || make(core, po));
        }
    }

    /// The live SC++ epoch `id`, if any (always `None` for the other
    /// models).
    fn epoch_mut(&mut self, id: u64) -> Option<&mut Epoch> {
        self.epochs.iter_mut().find(|e| e.id == id)
    }

    fn note_retired(&mut self, epoch: u64, n: u64) {
        self.stats.retired += n;
        if let Some(e) = self.epoch_mut(epoch) {
            e.retired += n;
        }
        if self.model == BaselineModel::Scpp && self.epochs.len() > 1 {
            // An epoch is safe once all its own work is architectural:
            // every slot retired (in-order retirement ⇒ no slot of it or
            // anything older remains) and all its stores drained. Keeping
            // safety tied to the store buffer, not to full quiescence,
            // matches the SHiQ's bounded speculation window. Slots are
            // tagged with their epoch, oldest first.
            let oldest_speculative_store = self
                .store_buffer
                .front()
                .map(|e| e.epoch)
                .unwrap_or(u64::MAX);
            let oldest_in_window = self.window.oldest().map_or(u64::MAX, |s| s.tag);
            let mut popped = false;
            while self.epochs.len() > 1 {
                let front_id = self.epochs.front().expect("non-empty").id;
                if front_id < oldest_speculative_store && front_id < oldest_in_window {
                    self.epochs.pop_front();
                    popped = true;
                } else {
                    break;
                }
            }
            if popped {
                self.epoch_squash_streak = 0;
            }
        }
    }

    fn record_epoch_access(&mut self, epoch: u64, line: LineAddr, write: bool) {
        if let Some(e) = self.epoch_mut(epoch) {
            if write {
                e.writes.insert(line);
            } else {
                e.reads.insert(line);
            }
        }
    }

    /// Under SC, memory operations perform one at a time: the next may
    /// only perform `l1_latency` after the previous (requirement (i) of
    /// the straightforward SC implementation; the paper's baseline lacks
    /// R10000-style speculative reordering).
    fn may_perform_mem(&self, now: Cycle) -> bool {
        self.model != BaselineModel::Sc || now >= self.last_mem_retire + self.cfg.l1_latency
    }

    fn note_mem_retire(&mut self, now: Cycle) {
        if self.model == BaselineModel::Sc {
            self.last_mem_retire = now;
        }
    }

    /// SC store perform: apply the value if the line is owned, otherwise
    /// make sure ownership is on its way.
    fn try_perform_store(
        &mut self,
        now: Cycle,
        addr: Addr,
        value: u64,
        values: &mut ValueStore,
    ) -> bool {
        if self.line_owned(addr.line()) {
            values.write(addr, value);
            self.port.l1.set_state(addr.line(), LineState::Dirty);
            return true;
        }
        self.port.want(now, addr.line(), true, None);
        false
    }

    fn line_owned(&self, line: LineAddr) -> bool {
        matches!(
            self.port.l1.state(line),
            Some(LineState::Exclusive) | Some(LineState::Dirty)
        )
    }

    fn drain_store_buffer(&mut self, now: Cycle, values: &mut ValueStore) {
        // Head drains when owned; deeper entries get exclusive prefetches.
        while let Some(head) = self.store_buffer.front().cloned() {
            if self.line_owned(head.addr.line()) {
                values.write(head.addr, head.value);
                self.port.l1.set_state(head.addr.line(), LineState::Dirty);
                if self.value_tracing() {
                    let core = self.core;
                    self.trace.emit(now, || Event::ValStore {
                        core,
                        seq: 0,
                        po: head.po,
                        addr: head.addr.0,
                        value: head.value,
                        retired_at: head.retired_at,
                    });
                }
                self.store_buffer.pop_front();
            } else {
                self.port.want(now, head.addr.line(), true, None);
                break;
            }
        }
        // Exclusive prefetch for the next few buffered stores.
        let prefetch: Vec<LineAddr> = self
            .store_buffer
            .iter()
            .skip(1)
            .take(4)
            .map(|e| e.addr.line())
            .collect();
        for line in prefetch {
            if !self.line_owned(line) {
                self.port.want(now, line, true, None);
            }
        }
    }

    fn issue(&mut self, now: Cycle) {
        // RC/SC++: loads issue as soon as they are in the window, stores
        // prefetch ownership immediately. SC: requirement (i) permits only
        // the bounded prefetch lookahead — memory ops beyond the first
        // `sc_prefetch_depth` in program order stay unissued, which is
        // what bounds SC's memory-level parallelism below RC's.
        let mem_limit = match self.model {
            BaselineModel::Sc => self.cfg.sc_prefetch_depth as usize,
            _ => usize::MAX,
        };
        let mut issued = std::mem::take(&mut self.issued);
        self.window
            .issue(self.cfg.issue_window as u64, mem_limit, &mut issued);
        for (id, instr) in issued.drain(..) {
            match instr {
                Instr::Load { addr, .. } => {
                    if self.port.l1.contains(addr.line()) {
                        self.port.hit(now, addr.line(), id);
                    } else {
                        self.port.want(now, addr.line(), false, Some(id));
                    }
                }
                // Exclusive prefetch; the op itself performs at retire.
                Instr::Store { addr, .. } | Instr::Rmw { addr, .. }
                    if !self.line_owned(addr.line()) =>
                {
                    self.port.want(now, addr.line(), true, None);
                }
                _ => {}
            }
        }
        self.issued = issued;
    }

    fn fetch(&mut self) {
        if self.front.stalled() {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if !self
                .front
                .fetching(self.stats.retired + self.window.occupancy())
            {
                return;
            }
            // SC++ epoch boundary at fetch time. Consecutive squashes
            // shrink the epoch so some work can become safe (quiesce)
            // before the next conflicting invalidation lands.
            if self.model == BaselineModel::Scpp && self.epoch_fetched >= self.epoch_len() {
                self.open_epoch();
            }
            let Some(instr) = self.front.take() else {
                return;
            };
            if self
                .front
                .admit(&mut self.window, instr, self.current_epoch)
                .is_none()
            {
                return;
            }
            self.epoch_fetched += instr.dynamic_count();
            if self.front.stalled() {
                return;
            }
        }
    }

    fn check_finished(&mut self, now: Cycle) {
        if self.stats.finished_at.is_none()
            && self.front.drained()
            && self.window.is_empty()
            && self.store_buffer.is_empty()
        {
            self.stats.finished_at = Some(now);
            // All its work is architectural: nothing is left to roll back.
            self.epochs.clear();
        }
    }

    /// One-line diagnostic snapshot (for debugging stuck systems).
    pub fn debug_state(&self) -> String {
        let head = self
            .window
            .oldest()
            .map(|s| format!("{:?}/{:?}", s.instr, s.state));
        format!(
            "core{} head={head:?} win={} sb={} misses={:?} stalled={} drained={} finished={:?}",
            self.core,
            self.window.len(),
            self.store_buffer.len(),
            self.port.debug_misses(),
            self.front.stalled(),
            self.front.drained(),
            self.stats.finished_at,
        )
    }

    // ------------------------------------------------------------------
    // Message handling.
    // ------------------------------------------------------------------

    /// Process one incoming message.
    ///
    /// # Panics
    ///
    /// Panics on BulkSC-only messages (this is a baseline node).
    pub fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric, values: &mut ValueStore) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        match env.msg {
            Message::Data {
                line,
                exclusive,
                data,
            } => self.fill(now, line, exclusive, data, fab),
            Message::UpgradeAck { line } => {
                self.port.l1.set_state(line, LineState::Exclusive);
                // Loads merged into the upgraded miss read the (still
                // valid, now exclusive) local copy.
                for slot in self.port.filled(now, line) {
                    self.complete_load(now, slot, |a| values.read(a));
                }
            }
            Message::Inv { line } | Message::DisplaceSig { line, .. } => {
                let dirty = self.port.invalidate(line) == Some(LineState::Dirty);
                self.on_lost_line(line);
                fab.send(now, self.id(), env.src, Message::InvAck { line, dirty });
            }
            Message::Fetch { line, for_excl } => {
                let f = Fetch {
                    line,
                    src: env.src,
                    excl: for_excl,
                };
                if !self.port.defer_fetch(f) {
                    self.surrender(now, f, fab);
                }
            }
            Message::Nack { line } => {
                if let Some(f) = self.port.nack(now, line) {
                    self.surrender(now, f, fab);
                }
            }
            other => panic!("baseline core received unexpected message {other:?}"),
        }
    }

    /// A data response arrived: fill the L1 and wake the waiting slots.
    /// Loads observe the value the directory served (`data`), not the
    /// value at arrival time, unless one of our own stores forwards.
    fn fill(
        &mut self,
        now: Cycle,
        line: LineAddr,
        exclusive: bool,
        data: LineData,
        fab: &mut Fabric,
    ) {
        let snapshot = |a: Addr| data[a.line_offset() as usize];
        // A fill whose line was invalidated while the response was in
        // flight is stale by coherence order: do not install it, and
        // replay (SC/SC++) or complete (RC: the load performed at the
        // directory's serve point, which precedes the invalidation).
        if self.port.is_stale(line) {
            if let Some(f) = self.port.take_fetch(line) {
                self.surrender(now, f, fab);
            }
            let (loads, excl) = self.port.drop_miss(line);
            for slot in loads {
                match self.model {
                    BaselineModel::Rc => self.complete_load(now, slot, snapshot),
                    BaselineModel::Sc | BaselineModel::Scpp | BaselineModel::Tso => {
                        self.window.reissue(slot);
                    }
                }
            }
            // The fill was not installed and the miss is gone, but a
            // Store/Rmw that prefetched ownership (or a buffered store)
            // still needs the line at retire/drain. Re-request now, so
            // ownership stays on its way; the directory serializes the
            // retry.
            let still_needed = excl
                && (self.window.iter().any(|s| {
                    matches!(
                        s.instr,
                        Instr::Store { addr, .. } | Instr::Rmw { addr, .. }
                            if addr.line() == line
                    )
                }) || self.store_buffer.iter().any(|e| e.addr.line() == line));
            if still_needed {
                self.port.want(now, line, true, None);
            }
            return;
        }
        let state = if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        match self.port.l1.insert(line, state, |_| false) {
            InsertOutcome::Evicted {
                line: victim,
                state: LineState::Dirty,
            } => {
                self.on_lost_line(victim);
                fab.send(
                    now,
                    self.id(),
                    self.port.dir_of(victim),
                    Message::Writeback {
                        line: victim,
                        keep_shared: false,
                    },
                );
            }
            InsertOutcome::Evicted { line: victim, .. } => {
                // Clean displacement: silent, but speculative loads on the
                // victim must revalidate (SC) / squash (SC++).
                self.on_lost_line(victim);
            }
            _ => {}
        }
        for slot in self.port.filled(now, line) {
            self.complete_load(now, slot, snapshot);
        }
    }

    /// Give up (or downgrade) a line in response to a directory fetch.
    fn surrender(&mut self, now: Cycle, f: Fetch, fab: &mut Fabric) {
        self.port.surrender(now, f, fab);
        if f.excl {
            self.on_lost_line(f.line);
        }
    }

    /// The line left this cache (invalidation, fetch-excl, displacement):
    /// apply the model's speculation-repair rule.
    fn on_lost_line(&mut self, line: LineAddr) {
        match self.model {
            BaselineModel::Rc => {}
            BaselineModel::Sc | BaselineModel::Tso => {
                // Revalidate speculatively completed loads: re-issue.
                // TSO needs this too — loads must appear to perform in
                // program order among themselves (R→R is ppo).
                self.window.reissue_loads(line);
            }
            BaselineModel::Scpp => {
                let victim = self
                    .epochs
                    .iter()
                    .find(|e| e.reads.contains(&line) || e.writes.contains(&line))
                    .map(|e| e.id);
                if let Some(eid) = victim {
                    self.squash_to_epoch(eid);
                }
            }
        }
    }

    /// Current SC++ epoch length, shrunk exponentially under repeated
    /// squashes.
    fn epoch_len(&self) -> u64 {
        (EPOCH_INSTRS >> self.epoch_squash_streak.min(7)).max(8)
    }

    /// SC++ rollback: discard all work of epochs `>= eid` and restore the
    /// checkpoint.
    fn squash_to_epoch(&mut self, eid: u64) {
        self.epoch_squash_streak += 1;
        let pos = self
            .epochs
            .iter()
            .position(|e| e.id == eid)
            .expect("squash target exists");
        // The target touched the line at retire, and retirement is in
        // order, so every older epoch has left the window.
        debug_assert!(
            self.window.oldest().is_none_or(|s| s.tag >= eid),
            "core {}: squash to epoch {eid} with an older epoch's slot in the window",
            self.core
        );
        self.front.restore(&self.epochs[pos].checkpoint);
        // Count wasted work: everything retired in the squashed epochs
        // plus everything still in the window.
        let mut wasted = self.window.squash_all();
        for e in self.epochs.iter().skip(pos) {
            wasted += e.retired;
        }
        self.stats.retired = self
            .stats
            .retired
            .saturating_sub(self.epochs.iter().skip(pos).map(|e| e.retired).sum::<u64>());
        self.stats.squashes += 1;
        self.stats.squashed_instrs += wasted;
        // Drop speculative stores of the squashed epochs.
        self.store_buffer.retain(|e| e.epoch < eid);
        // The slots are gone; in-flight data still fills the cache.
        self.port.forget_loads();
        self.epochs.truncate(pos);
        self.open_epoch();
    }
}
