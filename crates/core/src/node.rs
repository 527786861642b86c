//! The BulkSC core: a checkpointed processor with a BDM, executing chunks
//! (paper §4.1).
//!
//! Execution model, following §4.1.1–§4.1.3:
//!
//! * The core *only* executes chunks, delimited at fetch time by
//!   instruction count (and by cache-set overflow and I/O). Opening a
//!   chunk takes a program checkpoint; squashing restores it.
//! * Memory accesses reorder and overlap freely inside and across chunks.
//!   Loads update the chunk's R signature when they enter the memory
//!   system (slightly earlier than the paper's fill-time update — a
//!   conservative choice that also closes the forwarding-lag vulnerability
//!   window of §3.2.1 by construction). Stores retire from the window head
//!   *wait-free* (§6): the value goes to the chunk's store buffer and the
//!   W signature; the line is demand-fetched in the background and only
//!   needs to have arrived by commit time.
//! * Every demand miss is a plain read request — a speculative writer can
//!   never be the registered owner (§4.3).
//! * Explicit synchronization (RMWs) executes inside chunks with no
//!   fences; chunk atomicity provides the atomicity (§3.3).
//! * Commits: the oldest chunk, once closed, fully retired, and with all
//!   its lines present, requests permission from its arbiter (W only under
//!   the RSig optimization); a grant makes its stores globally visible and
//!   frees the chunk slot; a denial retries. Incoming W signatures of
//!   other chunks' commits drive bulk disambiguation and bulk invalidation
//!   through the L1.
//! * Forward progress (§3.3): consecutive squashes first shrink the chunk
//!   exponentially, then fall back to pre-arbitration.

use std::collections::{HashMap, VecDeque};

use bulksc_cpu::{
    CoreConfig, Fetch, FrontEnd, InstrWindow, MemPort, PortStats, SlotId, SlotState, ValueStore,
};
use bulksc_mem::{CacheConfig, InsertOutcome, LineState};
use bulksc_net::{ChunkTag, Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::{Addr, LineAddr, LineData, TrackedSig};
use bulksc_stats::{CycleLoss, Histogram, RunningMean};
use bulksc_trace::{ConflictAttr, Event, SquashCause, TraceHandle};
use bulksc_workloads::{AddressMap, Instr, ThreadProgram};

use crate::chunk::{Chunk, ChunkState, PrivateBuffer};
use crate::config::{BulkConfig, PrivateMode};
use crate::garbiter::GArbiter;

/// Event counters for one BulkSC core (feeding Tables 3 and 4).
#[derive(Clone, Debug, Default)]
pub struct BulkStats {
    /// Dynamic instructions committed (squashed work subtracted).
    pub retired: u64,
    /// Chunks committed.
    pub chunks_committed: u64,
    /// Instructions per committed chunk, one sample per commit.
    pub chunk_instrs: Histogram,
    /// Chunk squashes.
    pub squashes: u64,
    /// Squashes an alias-free signature would have avoided.
    pub alias_squashes: u64,
    /// Squashes from true data collisions.
    pub true_squashes: u64,
    /// Squashes forced by cache-set overflow.
    pub overflow_squashes: u64,
    /// Dynamic instructions discarded by squashes.
    pub squashed_instrs: u64,
    /// Committed chunks whose W signature was empty.
    pub empty_w_commits: u64,
    /// Average read-set size of committed chunks (lines).
    pub read_set: RunningMean,
    /// Average write-set size of committed chunks (lines).
    pub write_set: RunningMean,
    /// Average private-write-set size of committed chunks (lines).
    pub priv_write_set: RunningMean,
    /// Speculatively-read lines displaced from the L1 (harmless, Table 3).
    pub read_set_displacements: u64,
    /// Old versions supplied from the Private Buffer (Table 3).
    pub priv_buffer_supplies: u64,
    /// Invalidations caused purely by signature aliasing (Table 3).
    pub extra_cache_invs: u64,
    /// Pre-arbitration episodes entered.
    pub prearbs: u64,
    /// I/O operations serialized.
    pub io_ops: u64,
    /// Cycle the program (and all its chunks) finished.
    pub finished_at: Option<Cycle>,
    /// Execute-phase latency of committed chunks: chunk open to first
    /// commit-permission request.
    pub lat_execute: Histogram,
    /// Arbitration latency of committed chunks: first commit request to
    /// grant, retries included.
    pub lat_arbitration: Histogram,
    /// Commit-visibility latency: grant received to CommitComplete
    /// received (the directory round trip as seen by the core).
    pub lat_commit_visible: Histogram,
    /// Where this core's cycles went: each interval between lifecycle
    /// events is charged to the event that ended it (commit grant, denial,
    /// squash by cause). The end-of-run remainder is added as "tail" by
    /// `SimReport::collect`, making the total exactly the run's cycles.
    pub loss: CycleLoss,
}

/// A BulkSC core node: processor + checkpointing + BDM + private L1.
pub struct BulkNode {
    core: u32,
    cfg: CoreConfig,
    bulk: BulkConfig,
    num_dirs: u32,
    map: AddressMap,

    front: FrontEnd,
    window: InstrWindow,
    /// What the last issue scan issued; empty between ticks.
    issued: Vec<(SlotId, Instr)>,
    port: MemPort,

    /// Active chunks, oldest first; the back one may be open.
    chunks: VecDeque<Chunk>,
    next_seq: u64,
    /// Dynamic instructions fetched into the open chunk.
    fetched_into_chunk: u64,
    /// Granted chunks whose commit protocol is still completing, with the
    /// cycle the grant arrived (for commit-visibility latency).
    committing: HashMap<ChunkTag, Cycle>,
    /// Completions that raced ahead of their own grant response (the
    /// whole directory round can be faster than the delayed CommitResp),
    /// with the cycle the completion arrived.
    early_completes: HashMap<ChunkTag, Cycle>,
    /// Earliest cycle the oldest chunk may (re)request commit.
    commit_retry_at: Cycle,
    /// Cycle-loss partition marker: start of the interval not yet charged
    /// to any cause in `stats.loss`.
    loss_mark: Cycle,
    /// Consecutive squashes (for §3.3's backoff and pre-arbitration).
    consec_squashes: u32,
    effective_chunk_size: u64,
    prearb_waiting: bool,
    prearb_granted: bool,

    priv_buffer: PrivateBuffer,
    stats: BulkStats,
    trace: TraceHandle,
    /// Program-order index of the next value-traced access (only advanced
    /// while a tracer is attached). Re-executions after a squash get fresh,
    /// larger indices; since chunks commit in order, the committed trace is
    /// still monotone in program order per core.
    po_next: u64,
}

impl BulkNode {
    /// A BulkSC core for `core`, running `program` for `budget` useful
    /// dynamic instructions, on a machine with `num_dirs` directories and
    /// the layout `map` (used by the statically-private page attribute).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        core: u32,
        cfg: CoreConfig,
        bulk: BulkConfig,
        l1: CacheConfig,
        program: Box<dyn ThreadProgram>,
        budget: u64,
        num_dirs: u32,
        map: AddressMap,
    ) -> Self {
        let priv_cap = bulk.private_buffer;
        let chunk_size = bulk.chunk_size;
        let mut node = BulkNode {
            core,
            cfg,
            bulk,
            num_dirs,
            map,
            front: FrontEnd::new(program, budget),
            window: InstrWindow::new(cfg.window_size),
            issued: Vec::new(),
            port: MemPort::new(core, cfg, l1, num_dirs),
            chunks: VecDeque::new(),
            next_seq: 0,
            fetched_into_chunk: 0,
            committing: HashMap::new(),
            early_completes: HashMap::new(),
            loss_mark: 0,
            commit_retry_at: 0,
            consec_squashes: 0,
            effective_chunk_size: chunk_size,
            prearb_waiting: false,
            prearb_granted: false,
            priv_buffer: PrivateBuffer::new(priv_cap),
            stats: BulkStats::default(),
            trace: TraceHandle::off(),
            po_next: 0,
        };
        node.open_chunk(0);
        node
    }

    /// Route this core's chunk-lifecycle events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// This node's network id.
    pub fn id(&self) -> NodeId {
        NodeId::Core(self.core)
    }

    /// Event counters.
    pub fn stats(&self) -> &BulkStats {
        &self.stats
    }

    /// L1 and miss counters.
    pub fn port_stats(&self) -> &PortStats {
        self.port.stats()
    }

    /// The thread program (for observations after a run).
    pub fn program(&self) -> &dyn ThreadProgram {
        self.front.program()
    }

    /// True once the program has ended and every chunk has committed.
    pub fn finished(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    /// Active (undecided) chunks right now.
    pub fn active_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// True while the core is recovering from squashes (§3.3 back-off
    /// still in effect); an interval-sampler gauge.
    pub fn squashing(&self) -> bool {
        self.consec_squashes > 0
    }

    /// Charge the cycles since the last charged lifecycle event to
    /// `label` and restart the interval at `now`.
    fn charge_loss(&mut self, now: Cycle, label: &'static str) {
        self.stats
            .loss
            .charge(label, now.saturating_sub(self.loss_mark));
        self.loss_mark = now;
    }

    fn open_chunk(&mut self, now: Cycle) {
        let tag = ChunkTag {
            core: self.core,
            seq: self.next_seq,
        };
        self.trace.emit(now, || Event::ChunkStart {
            core: tag.core,
            seq: tag.seq,
        });
        self.next_seq += 1;
        self.fetched_into_chunk = 0;
        let mut chunk = Chunk::new(
            tag,
            &self.bulk.sig,
            self.bulk.sig_mode,
            self.front.checkpoint(),
        );
        chunk.t_start = now;
        self.chunks.push_back(chunk);
    }

    fn open_chunk_mut(&mut self) -> Option<&mut Chunk> {
        self.chunks
            .back_mut()
            .filter(|c| c.state == ChunkState::Open)
    }

    /// The chunk sequence number a slot was fetched into: its window tag.
    fn chunk_seq_of(&self, now: Cycle, slot: SlotId) -> u64 {
        self.window.get(slot).map(|s| s.tag).unwrap_or_else(|| {
            panic!(
                "core {}: cycle {now}: issued slot {slot} is not in the window",
                self.core
            )
        })
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
        for f in self.port.due_fetches(now) {
            self.surrender(now, f, fab);
        }
        if self.finished() {
            return self.port.next_fetch();
        }
        while let Some(slot) = self.port.next_completion(now) {
            self.complete_load(now, slot, |a| values.read(a));
        }
        self.maybe_request_commit(now, fab, values);
        self.retire(now, values, fab);
        self.issue(now);
        self.port.send_misses(now, fab);
        self.fetch(now);
        self.check_finished(now);
        if self.activity(fab) != before {
            return now + 1;
        }
        // The commit-retry gate of `maybe_request_commit`.
        let commit_retry = if self.commit_retry_at > now {
            self.commit_retry_at
        } else {
            Cycle::MAX
        };
        self.port.next_timer(now).min(commit_retry)
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
                self.po_next,
                self.next_seq,
                self.fetched_into_chunk,
            ),
            (
                self.chunks.len(),
                self.chunks.front().map(|c| c.state),
                self.chunks.back().map(|c| c.state),
                self.committing.len(),
                self.priv_buffer.len(),
            ),
        )
    }

    /// The value a load must observe: the youngest speculative store of
    /// this core's active chunks, else committed memory.
    fn resolved_value(&self, addr: Addr, values: &ValueStore) -> u64 {
        for c in self.chunks.iter().rev() {
            if let Some(v) = c.forward(addr) {
                return v;
            }
        }
        values.read(addr)
    }

    /// Complete the load at `slot`: older in-window stores forward first
    /// (they have not reached the chunk store buffer yet), then the chunk
    /// buffers, then `memory`.
    fn complete_load(&mut self, now: Cycle, slot: SlotId, memory: impl Fn(Addr) -> u64) {
        let chunks = &self.chunks;
        let buffered = |a| chunks.iter().rev().find_map(|c| c.forward(a));
        self.port
            .complete_load(now, &mut self.window, slot, buffered, memory);
    }

    fn retire(&mut self, now: Cycle, values: &mut ValueStore, fab: &mut Fabric) {
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            let Some(head) = self.window.oldest() else {
                break;
            };
            let head_id = head.id;
            let head_instr = head.instr;
            let head_state = head.state;
            let head_remaining = head.remaining;
            let head_value = head.value;
            let head_seq = head.tag;
            match head_instr {
                Instr::Compute(_) => {
                    let n = budget.min(head_remaining);
                    self.window.drain_oldest_compute(n);
                    budget -= n;
                    self.note_retired(head_seq, n as u64);
                    let core = self.core;
                    let drained = self.window.oldest().unwrap_or_else(|| {
                        panic!(
                            "core {core}: cycle {now}: head slot {head_id} vanished \
                             mid-drain of a compute burst"
                        )
                    });
                    if drained.remaining == 0 {
                        self.window.pop_oldest();
                    }
                    continue;
                }
                // §3.3: no fences, no reordering constraints.
                Instr::Fence => {}
                Instr::Load { addr, consume } => {
                    if head_state != SlotState::Done {
                        break;
                    }
                    let core = self.core;
                    let value = head_value.unwrap_or_else(|| {
                        panic!(
                            "core {core}: cycle {now}: load slot {head_id} at \
                             {} retired Done but carries no value",
                            addr.line()
                        )
                    });
                    if self.trace.enabled() {
                        self.buffer_access(head_seq, |seq, po| Event::ValLoad {
                            core,
                            seq,
                            po,
                            addr: addr.0,
                            value,
                            retired_at: now,
                        });
                    }
                    if consume {
                        self.front.deliver(value);
                    }
                }
                Instr::Store { addr, value } => {
                    // Wait-free store retirement (§6).
                    self.perform_spec_store(now, head_seq, addr, value, fab);
                    if self.trace.enabled() {
                        let core = self.core;
                        self.buffer_access(head_seq, |seq, po| Event::ValStore {
                            core,
                            seq,
                            po,
                            addr: addr.0,
                            value,
                            retired_at: now,
                        });
                    }
                }
                Instr::Rmw { addr, op } => {
                    // Atomicity comes from the chunk (§3.3); the RMW just
                    // needs its line (or a forwarded value) to read.
                    let have_line = self.port.l1.contains(addr.line())
                        || self.chunks.iter().any(|c| c.forward(addr).is_some());
                    if !have_line {
                        self.port.want(now, addr.line(), false, None);
                        break;
                    }
                    let old = self.resolved_value(addr, values);
                    let new = op.apply(old);
                    self.perform_spec_store(now, head_seq, addr, new, fab);
                    if self.trace.enabled() {
                        let core = self.core;
                        self.buffer_access(head_seq, |seq, po| Event::ValRmw {
                            core,
                            seq,
                            po,
                            addr: addr.0,
                            old,
                            new,
                            retired_at: now,
                        });
                    }
                    self.front.deliver(old);
                }
                Instr::Io => {
                    // §4.1.3: stall until every older chunk has fully
                    // committed, perform, then a fresh chunk starts.
                    let front_is_mine = self.chunks.front().map(|c| c.tag.seq) == Some(head_seq);
                    if !front_is_mine || !self.committing.is_empty() {
                        break;
                    }
                    self.stats.io_ops += 1;
                }
            }
            self.note_retired(head_seq, 1);
            self.window.pop_oldest();
            budget -= 1;
        }
    }

    /// Buffer a value-trace event into chunk `seq`, assigning the next
    /// per-core program-order index. Callers check `trace.enabled()`
    /// first so untraced runs pay nothing.
    fn buffer_access(&mut self, seq: u64, make: impl FnOnce(u64, u64) -> Event) {
        let po = self.po_next;
        self.po_next += 1;
        if let Some(c) = self.chunks.iter_mut().find(|c| c.tag.seq == seq) {
            c.accesses.push(make(seq, po));
        }
    }

    fn note_retired(&mut self, seq: u64, n: u64) {
        self.stats.retired += n;
        if let Some(c) = self.chunks.iter_mut().find(|c| c.tag.seq == seq) {
            c.retired += n;
        }
    }

    /// A store retires speculatively: route it to W or Wpriv, buffer the
    /// value, and make sure the line is (or will be) in the cache.
    fn perform_spec_store(
        &mut self,
        now: Cycle,
        seq: u64,
        addr: Addr,
        value: u64,
        fab: &mut Fabric,
    ) {
        let line = addr.line();
        let is_static_priv =
            self.bulk.private == PrivateMode::Static && self.map.is_static_private(addr);
        let dirty_nonspec =
            self.port.l1.state(line) == Some(LineState::Dirty) && !spec_written(&self.chunks, line);

        // Make sure the line is present or on its way (§6: must arrive
        // before the chunk commits).
        let missing = !self.port.l1.contains(line);
        if missing {
            self.port.want(now, line, false, None);
        }

        let use_wpriv = if is_static_priv {
            true
        } else if self.bulk.private == PrivateMode::Dynamic && dirty_nonspec {
            // §5.2: first update of a dirty non-speculative line retains
            // the pre-image in the Private Buffer and skips the writeback.
            if self.priv_buffer.insert(line) {
                true
            } else {
                // Buffer full: fall back to the writeback-and-W path.
                fab.send(
                    now,
                    self.id(),
                    self.port.dir_of(line),
                    Message::Writeback {
                        line,
                        keep_shared: true,
                    },
                );
                self.port.l1.set_state(line, LineState::Shared);
                false
            }
        } else {
            if dirty_nonspec {
                // Base design: the committed version must reach memory
                // before the speculative update lands in the cache.
                fab.send(
                    now,
                    self.id(),
                    self.port.dir_of(line),
                    Message::Writeback {
                        line,
                        keep_shared: true,
                    },
                );
                self.port.l1.set_state(line, LineState::Shared);
            }
            false
        };

        let already_wpriv = self.chunks.iter().any(|c| c.wpriv.contains_exact(line));
        let core = self.core;
        let chunk = self
            .chunks
            .iter_mut()
            .find(|c| c.tag.seq == seq)
            .unwrap_or_else(|| {
                panic!(
                    "core {core}: cycle {now}: store to {line} retired into chunk \
                     seq {seq}, but no chunk with that tag is live"
                )
            });
        if missing {
            chunk.pending_lines.insert(line);
        }
        if use_wpriv || (self.bulk.private == PrivateMode::Dynamic && already_wpriv) {
            chunk.wpriv.insert(line);
        } else {
            chunk.w.insert(line);
        }
        chunk.push_store(addr, value);
    }

    fn issue(&mut self, now: Cycle) {
        let mut issued = std::mem::take(&mut self.issued);
        self.window
            .issue(self.cfg.issue_window as u64, usize::MAX, &mut issued);
        for (id, instr) in issued.drain(..) {
            let seq = self.chunk_seq_of(now, id);
            match instr {
                Instr::Load { addr, .. } => {
                    self.record_read(seq, addr);
                    let forwarded = self.chunks.iter().any(|c| c.forward(addr).is_some());
                    if forwarded || self.port.l1.contains(addr.line()) {
                        self.port.hit(now, addr.line(), id);
                    } else {
                        self.port.want(now, addr.line(), false, Some(id));
                    }
                }
                Instr::Rmw { addr, .. } => {
                    // The read side joins R; the line is prefetched; the
                    // op itself performs at the head.
                    self.record_read(seq, addr);
                    if !self.port.l1.contains(addr.line()) {
                        self.port.want(now, addr.line(), false, None);
                    }
                }
                // Prefetch the line; the store performs at the head.
                Instr::Store { addr, .. } if !self.port.l1.contains(addr.line()) => {
                    self.port.want(now, addr.line(), false, None);
                }
                _ => {}
            }
        }
        self.issued = issued;
    }

    /// Record a read in the slot's chunk's R signature (at issue time; see
    /// the module docs for why this is safely early). Statically-private
    /// reads skip R to avoid pollution (§5.1).
    fn record_read(&mut self, seq: u64, addr: Addr) {
        if self.bulk.private == PrivateMode::Static && self.map.is_static_private(addr) {
            return;
        }
        if let Some(c) = self.chunks.iter_mut().find(|c| c.tag.seq == seq) {
            c.r.insert(addr.line());
        }
    }

    fn fetch(&mut self, now: Cycle) {
        if self.front.stalled() || (self.prearb_waiting && !self.prearb_granted) {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if !self
                .front
                .fetching(self.stats.retired + self.window.occupancy())
            {
                self.close_open_chunk();
                return;
            }
            // Chunk boundary by instruction count.
            if self.open_chunk_mut().is_some()
                && self.fetched_into_chunk >= self.effective_chunk_size
            {
                self.close_open_chunk();
            }
            // Make sure there is an open chunk to fetch into.
            if self.open_chunk_mut().is_none() {
                if self.chunks.len() >= self.bulk.chunks_per_core as usize {
                    return; // chunk slots exhausted; wait for a commit
                }
                self.open_chunk(now);
            }
            let Some(instr) = self.front.take() else {
                self.close_open_chunk();
                return;
            };
            // I/O runs in a chunk of its own (§4.1.3).
            if matches!(instr, Instr::Io) && self.fetched_into_chunk > 0 {
                self.close_open_chunk();
                self.front.hold(instr);
                continue;
            }
            // Preventive set-overflow boundary: if this store's line would
            // have to displace only speculatively-written lines, end the
            // chunk so the store lands in the next one (§4.1.2).
            if let Instr::Store { addr, .. } = instr {
                let line = addr.line();
                if self.fetched_into_chunk > 0
                    && !self.port.l1.contains(line)
                    && self
                        .port
                        .l1
                        .would_overflow(line, |l| spec_written(&self.chunks, l))
                {
                    self.close_open_chunk();
                    self.front.hold(instr);
                    continue;
                }
            }
            let core = self.core;
            let seq = self
                .open_chunk_mut()
                .unwrap_or_else(|| {
                    panic!(
                        "core {core}: cycle {now}: no open chunk to receive a fetched \
                         instruction (chunks_per_core misconfigured?)"
                    )
                })
                .tag
                .seq;
            if self.front.admit(&mut self.window, instr, seq).is_none() {
                return;
            }
            self.fetched_into_chunk += instr.dynamic_count();
            if matches!(instr, Instr::Io) {
                self.close_open_chunk();
            }
            if self.front.stalled() {
                return;
            }
        }
    }

    fn close_open_chunk(&mut self) {
        if let Some(c) = self.chunks.back_mut() {
            if c.state == ChunkState::Open {
                c.state = ChunkState::Closed;
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit.
    // ------------------------------------------------------------------

    fn maybe_request_commit(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) {
        if now < self.commit_retry_at {
            return;
        }
        // Fully retired? No slot of this chunk may remain in the window;
        // the oldest slot carries the smallest tag.
        let oldest_seq = self.window.oldest().map(|s| s.tag);
        let Some(front) = self.chunks.front_mut() else {
            return;
        };
        let tag = front.tag;
        if !front.ready_to_commit() || oldest_seq == Some(tag.seq) {
            return;
        }
        front.state = ChunkState::Arbitrating;
        if front.t_first_request.is_none() {
            front.t_first_request = Some(now);
            self.stats
                .lat_execute
                .record(now.saturating_sub(front.t_start));
        }
        if self.bulk.commit_without_arbitration {
            // TEST-ONLY fault (see `BulkConfig`): self-grant the commit.
            // No arbiter serialization, no W-signature broadcast — other
            // cores' conflicting chunks are never disambiguated, which is
            // exactly the reordering bug the SC oracle must catch.
            self.commit_resp(now, tag, true, values, fab);
            // No CommitComplete will ever arrive for a commit the
            // directory never saw; drop the tracking entry so the run
            // still terminates.
            self.committing.remove(&tag);
            return;
        }
        let w = Box::new(front.w.clone());
        let r = Box::new(front.r.clone());
        let multi = self.bulk.num_arbiters > 1;
        let (dst, r_opt) = if multi {
            let arbs = GArbiter::arbiters_of(&w, &r, self.bulk.num_arbiters);
            if arbs.len() == 1 {
                (NodeId::Arbiter(arbs[0]), Some(r))
            } else {
                (NodeId::GArbiter, Some(r))
            }
        } else if self.bulk.rsig_opt {
            (NodeId::Arbiter(0), None)
        } else {
            (NodeId::Arbiter(0), Some(r))
        };
        self.trace.emit(now, || Event::CommitRequest {
            core: tag.core,
            seq: tag.seq,
            w_lines: w.len() as u32,
            carries_rsig: r_opt.is_some(),
        });
        fab.send(
            now,
            self.id(),
            dst,
            Message::CommitReq {
                chunk: tag,
                w,
                r: r_opt,
            },
        );
    }

    fn commit_resp(
        &mut self,
        now: Cycle,
        chunk: ChunkTag,
        ok: bool,
        values: &mut ValueStore,
        fab: &mut Fabric,
    ) {
        let Some(front) = self.chunks.front_mut() else {
            return;
        };
        if front.tag != chunk || front.state != ChunkState::Arbitrating {
            return; // stale response (e.g. chunk was squashed meanwhile)
        }
        if !ok {
            front.state = ChunkState::Closed;
            self.charge_loss(now, "arb_denial");
            self.commit_retry_at = now + self.bulk.commit_retry;
            return;
        }
        let mut front = self.chunks.pop_front().unwrap_or_else(|| {
            panic!(
                "core {}: cycle {now}: chunk {}.{} disappeared while its commit \
                 grant was being applied",
                chunk.core, chunk.core, chunk.seq
            )
        });
        self.charge_loss(now, "committed");
        self.stats
            .lat_arbitration
            .record(now.saturating_sub(front.t_first_request.unwrap_or(now)));
        // Publish the chunk's value trace as one atomic block at the grant
        // cycle: the block's store subsequence is in `store_order` order,
        // and no other core's events can interleave before the writes
        // below land, so stream order equals coherence order.
        for ev in front.accesses.drain(..) {
            self.trace.emit(now, || ev);
        }
        // The commit is granted: make the chunk's stores globally visible.
        for &(addr, value) in &front.store_order {
            values.write(addr, value);
        }
        // The committer is now the owner of the lines it wrote (the
        // directory's Table 1 row 2 does the same on its side).
        for line in front.w.exact().iter().chain(front.wpriv.exact().iter()) {
            if self.port.l1.contains(line) {
                self.port.l1.set_state(line, LineState::Dirty);
            }
        }
        // §5.1: private data is kept coherent by sending Wpriv straight to
        // the directories after the grant.
        if self.bulk.private == PrivateMode::Static && !front.wpriv.is_empty() {
            let dirs: Vec<u32> = if self.num_dirs == 1 {
                vec![0]
            } else {
                front.wpriv.decode_sets(self.num_dirs)
            };
            for d in dirs {
                fab.send(
                    now,
                    self.id(),
                    NodeId::Dir(d),
                    Message::PrivSigToDir {
                        chunk,
                        w: Box::new(front.wpriv.clone()),
                    },
                );
            }
        }
        // §5.2: the buffer entries of this chunk are no longer needed.
        self.release_priv(&front);
        self.stats.chunks_committed += 1;
        self.stats.chunk_instrs.record(front.retired);
        self.trace.emit(now, || Event::ChunkCommit {
            core: chunk.core,
            seq: chunk.seq,
            read_lines: front.r.len() as u32,
            write_lines: front.w.len() as u32,
            priv_lines: front.wpriv.len() as u32,
        });
        self.stats.read_set.add(front.r.len() as f64);
        self.stats.write_set.add(front.w.len() as f64);
        self.stats.priv_write_set.add(front.wpriv.len() as f64);
        self.stats.read_set_displacements += front.read_displacements;
        if front.w.is_empty() {
            self.stats.empty_w_commits += 1;
        }
        match self.early_completes.remove(&chunk) {
            // The completion raced ahead of the grant response: the
            // directory round was already over when the grant arrived.
            Some(completed_at) => self
                .stats
                .lat_commit_visible
                .record(completed_at.saturating_sub(now)),
            None => {
                self.committing.insert(chunk, now);
            }
        }
        self.consec_squashes = 0;
        self.effective_chunk_size = self.bulk.chunk_size;
        self.prearb_waiting = false;
        self.prearb_granted = false;
        front.stores.clear();
    }

    // ------------------------------------------------------------------
    // Squash.
    // ------------------------------------------------------------------

    /// Squash chunks from index `idx` onward: restore the checkpoint,
    /// discard speculative state, shrink the next chunk if squashes keep
    /// coming. `loss_label` names the cycle-loss cause the interval since
    /// the last lifecycle event is charged to. `attr` is the conflict
    /// attribution the caller computed (xray runs only; `None` keeps the
    /// squash event byte-identical to an attribution-off run).
    fn squash_from(
        &mut self,
        idx: usize,
        cause: SquashCause,
        loss_label: &'static str,
        attr: Option<ConflictAttr>,
        fab: &mut Fabric,
        now: Cycle,
    ) {
        debug_assert!(idx < self.chunks.len());
        self.charge_loss(now, loss_label);
        let first_seq = self.chunks[idx].tag.seq;
        self.front.restore(&self.chunks[idx].checkpoint);

        // Drop the squashed chunks' slots: they form a program-order
        // suffix of the window.
        let mut wasted = self.window.squash_newest_while(|s| s.tag >= first_seq);

        // Discard the squashed chunks and their speculative cache state.
        let squashed: Vec<Chunk> = self.chunks.drain(idx..).collect();
        for c in &squashed {
            wasted += c.retired;
            self.stats.retired = self.stats.retired.saturating_sub(c.retired);
            // Bulk invalidation of the lines this chunk speculatively
            // wrote (W only: Wpriv lines keep their committed pre-image,
            // §5.2). The exact shadow is used so that older chunks' lines
            // are never hit.
            for line in c.w.exact().iter() {
                self.port.l1.invalidate(line);
            }
            self.release_priv(c);
        }
        self.stats.squashes += 1;
        self.stats.squashed_instrs += wasted;
        self.trace.emit(now, || Event::Squash {
            core: self.core,
            seq: first_seq,
            cause,
            squashed_instrs: wasted,
            xray: attr.map(Box::new),
        });

        // §3.3 forward progress: exponential chunk-size reduction, then
        // pre-arbitration.
        self.consec_squashes += 1;
        if self.consec_squashes >= self.bulk.backoff_after {
            let shift = (self.consec_squashes - self.bulk.backoff_after + 1).min(10);
            self.effective_chunk_size = (self.bulk.chunk_size >> shift).max(16);
        }
        if self.consec_squashes >= self.bulk.prearb_after && !self.prearb_waiting {
            self.prearb_waiting = true;
            self.stats.prearbs += 1;
            fab.send(now, self.id(), NodeId::Arbiter(0), Message::PreArbReq);
        }
        self.fetched_into_chunk = 0;
    }

    /// Drop the Private Buffer entries of `chunk`'s private writes that no
    /// live chunk still needs (its commit was granted, or it squashed).
    fn release_priv(&mut self, chunk: &Chunk) {
        for line in chunk.wpriv.exact().iter() {
            if !self.chunks.iter().any(|c| c.wpriv.contains_exact(line)) {
                self.priv_buffer.remove(line);
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling.
    // ------------------------------------------------------------------

    /// Process one incoming message.
    ///
    /// # Panics
    ///
    /// Panics on baseline-only messages (`Inv`, `UpgradeAck`).
    pub fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric, values: &mut ValueStore) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        match env.msg {
            Message::Data {
                line,
                exclusive,
                data,
            } => self.fill(now, line, exclusive, data, fab),
            Message::Nack { line } => {
                if let Some(f) = self.port.nack(now, line) {
                    self.surrender(now, f, fab);
                }
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
            Message::WSigInv {
                chunk,
                w,
                needs_ack,
            } => {
                self.wsig_inv(now, chunk, &w, needs_ack, env.src, fab);
            }
            Message::DisplaceSig { line, sig } => self.displace(now, line, &sig, env.src, fab),
            Message::CommitResp { chunk, ok } => self.commit_resp(now, chunk, ok, values, fab),
            Message::RSigReq { chunk } => {
                let Some(front) = self.chunks.front() else {
                    return;
                };
                if front.tag != chunk {
                    return;
                }
                let r = Box::new(front.r.clone());
                fab.send(now, self.id(), env.src, Message::RSigResp { chunk, r });
            }
            Message::CommitComplete { chunk } => match self.committing.remove(&chunk) {
                Some(granted_at) => self
                    .stats
                    .lat_commit_visible
                    .record(now.saturating_sub(granted_at)),
                None => {
                    self.early_completes.insert(chunk, now);
                }
            },
            Message::PreArbGrant => {
                self.prearb_granted = true;
            }
            other => panic!("BulkSC core received unexpected message {other:?}"),
        }
    }

    /// Incoming W signature of a committing chunk: bulk disambiguation
    /// (maybe squash) then bulk invalidation of the signature's lines.
    fn wsig_inv(
        &mut self,
        now: Cycle,
        chunk: ChunkTag,
        w: &TrackedSig,
        needs_ack: bool,
        src: NodeId,
        fab: &mut Fabric,
    ) {
        debug_assert_ne!(chunk.core, self.core, "own W never comes back");
        // 1. Disambiguate. The committing chunk whose W arrived is the
        //    aggressor; its tag rode along with the invalidation.
        self.disambiguate(now, w, "wsig", Some(chunk), fab);
        // 2. Bulk invalidation: δ-expand the signature over the L1 and
        //    invalidate members. Lines whose pre-image the Private Buffer
        //    retains stay (the commit cannot really have written them —
        //    we are their registered owner).
        for set in w.decode_sets(self.port.l1.num_sets()) {
            for line in self.port.l1.lines_in_set(set) {
                if w.contains(line)
                    && !self.priv_buffer.contains(line)
                    && !spec_written(&self.chunks, line)
                {
                    self.port.l1.invalidate(line);
                    self.note_lost_clean_line(line);
                    if !w.contains_exact(line) {
                        self.stats.extra_cache_invs += 1;
                    }
                }
            }
        }
        // 3. Stale-fill protection: in-flight fills for lines the commit
        //    wrote must not install.
        self.port.invalidate_in_flight(|line| w.contains(line));
        if needs_ack {
            fab.send(now, self.id(), src, Message::WSigInvAck { chunk });
        }
    }

    /// Bulk disambiguation against an incoming signature (§4.3): the
    /// oldest colliding chunk and all younger ones squash (CReq1's
    /// in-order rule). `site` and `aggressor` feed the xray attribution.
    /// Signature-based disambiguation of either kind can alias, so a
    /// collision no exact shadow confirms is charged to aliasing.
    fn disambiguate(
        &mut self,
        now: Cycle,
        sig: &TrackedSig,
        site: &'static str,
        aggressor: Option<ChunkTag>,
        fab: &mut Fabric,
    ) {
        let Some(idx) = self.chunks.iter().position(|c| c.collides_with(sig)) else {
            return;
        };
        let exact = self
            .chunks
            .iter()
            .skip(idx)
            .any(|c| c.collides_exactly_with(sig));
        let cause = if exact {
            self.stats.true_squashes += 1;
            SquashCause::TrueSharing
        } else {
            self.stats.alias_squashes += 1;
            SquashCause::Alias
        };
        // Which signature detected the conflict: the victim's R (a read
        // this chunk did) or its W (a write-write collision).
        let label = if sig.intersects(&self.chunks[idx].r) {
            "r_sig_conflict"
        } else {
            "w_sig_conflict"
        };
        let attr = self
            .bulk
            .xray
            .then(|| self.conflict_attr(idx, sig, site, aggressor));
        self.squash_from(idx, cause, label, attr, fab, now);
    }

    /// `line`'s pre-image left the Private Buffer: every chunk that wrote
    /// it privately must announce the write at commit, so it goes (back)
    /// into W (§5.2).
    fn announce_write(&mut self, line: LineAddr) {
        for c in self.chunks.iter_mut() {
            if c.wpriv.contains_exact(line) {
                c.w.insert(line);
            }
        }
    }

    /// Build the xray attribution for a disambiguation squash: witnesses
    /// are the exact-shadow lines the incoming signature shares with any
    /// victim chunk's R or W set (the chunks from `idx` on all squash),
    /// lowest addresses first, capped at
    /// [`bulksc_trace::XRAY_WITNESS_CAP`]. Empty witnesses under a Bloom
    /// collision ⇒ the squash was a pure-alias false positive. Read-only
    /// over simulation state; only called when `bulk.xray` is set.
    fn conflict_attr(
        &self,
        idx: usize,
        sig: &TrackedSig,
        site: &'static str,
        aggressor: Option<ChunkTag>,
    ) -> ConflictAttr {
        const CAP: usize = bulksc_trace::XRAY_WITNESS_CAP;
        let mut witnesses: Vec<u64> = Vec::new();
        for c in self.chunks.iter().skip(idx) {
            witnesses.extend(sig.exact_witnesses(&c.r, CAP).iter().map(|l| l.0));
            witnesses.extend(sig.exact_witnesses(&c.w, CAP).iter().map(|l| l.0));
        }
        witnesses.sort_unstable();
        witnesses.dedup();
        witnesses.truncate(CAP);
        ConflictAttr {
            agg_core: aggressor.map(|t| t.core),
            agg_seq: aggressor.map(|t| t.seq),
            site,
            witnesses,
        }
    }

    /// Track read-set displacement statistics when a line leaves the L1.
    fn note_lost_clean_line(&mut self, line: LineAddr) {
        for c in self.chunks.iter_mut() {
            if c.r.contains_exact(line) {
                c.read_displacements += 1;
            }
        }
    }

    fn displace(
        &mut self,
        now: Cycle,
        line: LineAddr,
        sig: &TrackedSig,
        src: NodeId,
        fab: &mut Fabric,
    ) {
        // §4.3.3: bulk disambiguation with our R and W signatures; may
        // squash. A committing chunk that already cleared its signatures
        // is naturally unaffected. A directory-displacement sweep has no
        // committing chunk to blame; the witnesses still localize the
        // conflict.
        self.disambiguate(now, sig, "displacement", None, fab);
        let state = self.port.invalidate(line);
        if self.priv_buffer.remove(line) {
            // The displaced line's pre-image leaves the buffer.
            self.announce_write(line);
        }
        fab.send(
            now,
            self.id(),
            src,
            Message::InvAck {
                line,
                dirty: state == Some(LineState::Dirty),
            },
        );
    }

    /// Answer a directory fetch for a line we own or are about to.
    fn surrender(&mut self, now: Cycle, f: Fetch, fab: &mut Fabric) {
        // §5.2: an external request for a line whose old version sits in
        // the Private Buffer is served from the buffer, and the address
        // goes (back) into W so the commit will announce the write.
        let line = f.line;
        if self.priv_buffer.contains(line) {
            self.priv_buffer.remove(line);
            self.stats.priv_buffer_supplies += 1;
            self.trace.emit(now, || Event::PrivSupply {
                core: self.core,
                line: line.0,
            });
            self.announce_write(line);
            self.port.l1.set_state(line, LineState::Shared);
            fab.send(
                now,
                self.id(),
                f.src,
                Message::FetchResp {
                    line,
                    dirty: true,
                    had_line: true,
                },
            );
            return;
        }
        self.port.surrender(now, f, fab);
        if f.excl {
            self.note_lost_clean_line(line);
        }
    }

    fn fill(
        &mut self,
        now: Cycle,
        line: LineAddr,
        exclusive: bool,
        data: LineData,
        fab: &mut Fabric,
    ) {
        if self.port.is_stale(line) {
            // Stale fill: re-request (the chunk that wanted it was either
            // squashed or will read the fresh copy).
            if let Some(f) = self.port.take_fetch(line) {
                self.surrender(now, f, fab);
            }
            self.port.retry_miss(now, line);
            return;
        }
        let state = if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        match self
            .port
            .l1
            .insert(line, state, |l| spec_written(&self.chunks, l))
        {
            InsertOutcome::Evicted {
                line: victim,
                state: vstate,
            } => {
                self.note_lost_clean_line(victim);
                self.trace.emit(now, || Event::CacheDisplacement {
                    core: self.core,
                    line: victim.0,
                });
                if vstate == LineState::Dirty {
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
                // Speculatively-read displacements are harmless (the R
                // signature remembers them) — that is the SC++ contrast
                // the paper highlights.
                let displaced_spec_read = self.chunks.iter().any(|c| c.r.contains_exact(victim));
                if displaced_spec_read {
                    self.stats.read_set_displacements += 1;
                }
            }
            InsertOutcome::SetOverflow => {
                // Every way holds speculatively-written lines: the fetch-
                // time guard missed this one (lines written after the
                // check). Fall back to self-squashing the youngest chunk,
                // which shrinks on repetition (§3.3).
                self.stats.overflow_squashes += 1;
                if !self.chunks.is_empty() {
                    let idx = self.chunks.len() - 1;
                    // A self-squash: no aggressor, no witnesses — the
                    // cache set, not another chunk, ran out of room.
                    let attr = self.bulk.xray.then(|| ConflictAttr {
                        agg_core: None,
                        agg_seq: None,
                        site: "overflow",
                        witnesses: Vec::new(),
                    });
                    self.squash_from(
                        idx,
                        SquashCause::Overflow,
                        "displacement_overflow",
                        attr,
                        fab,
                        now,
                    );
                }
            }
            InsertOutcome::Placed => {}
        }
        // The line arrived: chunks blocked on it may now commit.
        for c in self.chunks.iter_mut() {
            c.pending_lines.remove(&line);
        }
        // Values: forwarding first, then the response snapshot.
        for slot in self.port.filled(now, line) {
            self.complete_load(now, slot, |a| data[a.line_offset() as usize]);
        }
    }

    fn check_finished(&mut self, now: Cycle) {
        if self.stats.finished_at.is_some() {
            return;
        }
        // Drop a trailing empty chunk so budget-exact runs can finish.
        if self.front.drained() && self.window.is_empty() && self.chunks.len() == 1 {
            let only = self.chunks.front().unwrap_or_else(|| {
                panic!(
                    "core {}: cycle {now}: the final chunk disappeared while being \
                     examined for the trailing-empty-chunk drop",
                    self.core
                )
            });
            if only.retired == 0 && only.stores.is_empty() && only.r.is_empty() {
                let tag = only.tag;
                self.trace.emit(now, || Event::ChunkAbandon {
                    core: tag.core,
                    seq: tag.seq,
                });
                self.chunks.clear();
            }
        }
        if self.front.drained()
            && self.window.is_empty()
            && self.chunks.is_empty()
            && self.committing.is_empty()
        {
            self.stats.finished_at = Some(now);
        }
    }

    /// One-line diagnostic snapshot.
    pub fn debug_state(&self) -> String {
        format!(
            "bulk core{} head={:?} win={} chunks={:?} committing={} misses={:?} pending_front={:?} prearb={}/{} stalled={} drained={} finished={:?}",
            self.core,
            self.window.oldest().map(|s| format!("{:?}/{:?}", s.instr, s.state)),
            self.window.len(),
            self.chunks.iter().map(|c| format!("{}:{:?}r{}", c.tag, c.state, c.retired)).collect::<Vec<_>>(),
            self.committing.len(),
            self.port.debug_misses(),
            self.chunks.front().map(|c| c.pending_lines.len()),
            self.prearb_waiting,
            self.prearb_granted,
            self.front.stalled(),
            self.front.drained(),
            self.stats.finished_at,
        )
    }
}

/// True if `line` is speculatively written by any of `chunks` (the BDM's
/// displacement veto and dirty-non-speculative test).
fn spec_written(chunks: &VecDeque<Chunk>, line: LineAddr) -> bool {
    chunks
        .iter()
        .any(|c| c.w.contains_exact(line) || c.wpriv.contains_exact(line))
}
