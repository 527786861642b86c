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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use bulksc_cpu::{CoreConfig, InstrWindow, Slot, SlotId, SlotState, ValueStore};
use bulksc_mem::{CacheConfig, InsertOutcome, LineState, SetAssocCache};
use bulksc_net::{ChunkTag, Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::{Addr, LineAddr, TrackedSig};
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
    /// Commit requests denied by the arbiter.
    pub commit_denials: u64,
    /// R signature demanded by the arbiter (RSig fallback).
    pub rsig_sent: u64,
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
    /// Lines invalidated by incoming W signatures.
    pub cache_invs: u64,
    /// Invalidations caused purely by signature aliasing (Table 3).
    pub extra_cache_invs: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Nacks received on demand reads.
    pub nacks: u64,
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
    /// L1 miss latency: request sent to fill received.
    pub lat_miss: Histogram,
    /// Where this core's cycles went: each interval between lifecycle
    /// events is charged to the event that ended it (commit grant, denial,
    /// squash by cause). The end-of-run remainder is added as "tail" by
    /// `SimReport::collect`, making the total exactly the run's cycles.
    pub loss: CycleLoss,
}

#[derive(Clone, Copy, Debug)]
enum WindowForward {
    /// No older in-window store to this word.
    None,
    /// Forward this value.
    Value(u64),
    /// An older RMW has not performed yet; the value is unknown.
    Unknown,
}

#[derive(Debug)]
struct MissEntry {
    sent: bool,
    /// Cycle the request actually went out (for miss-latency accounting).
    sent_at: Cycle,
    retry_at: Cycle,
    waiting_loads: Vec<SlotId>,
    invalidated: bool,
}

/// A BulkSC core node: processor + checkpointing + BDM + private L1.
pub struct BulkNode {
    core: u32,
    cfg: CoreConfig,
    bulk: BulkConfig,
    num_dirs: u32,
    map: AddressMap,

    program: Box<dyn ThreadProgram>,
    program_done: bool,
    budget: u64,

    window: InstrWindow,
    awaiting: Option<SlotId>,
    feed: Option<u64>,
    stash: Option<Instr>,
    slot_chunks: HashMap<SlotId, u64>,

    l1: SetAssocCache,
    misses: HashMap<LineAddr, MissEntry>,
    completions: BinaryHeap<Reverse<(Cycle, SlotId)>>,
    pending_fetches: HashMap<LineAddr, (NodeId, bool)>,
    deferred_fetches: Vec<(Cycle, LineAddr, NodeId, bool)>,

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
            program,
            program_done: false,
            budget,
            window: InstrWindow::new(cfg.window_size),
            awaiting: None,
            feed: None,
            stash: None,
            slot_chunks: HashMap::new(),
            l1: SetAssocCache::new(l1),
            misses: HashMap::new(),
            completions: BinaryHeap::new(),
            pending_fetches: HashMap::new(),
            deferred_fetches: Vec::new(),
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

    /// The thread program (for observations after a run).
    pub fn program(&self) -> &dyn ThreadProgram {
        self.program.as_ref()
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

    fn dir_node(&self, line: LineAddr) -> NodeId {
        NodeId::Dir((line.0 % self.num_dirs as u64) as u32)
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
            self.program.clone_box(),
        );
        // The checkpoint must capture everything the restored execution
        // needs: a value awaiting delivery and a fetched-but-unwindowed
        // instruction are architectural state too.
        chunk.checkpoint_feed = self.feed;
        chunk.checkpoint_stash = self.stash;
        chunk.t_start = now;
        self.chunks.push_back(chunk);
    }

    fn open_chunk_mut(&mut self) -> Option<&mut Chunk> {
        self.chunks
            .back_mut()
            .filter(|c| c.state == ChunkState::Open)
    }

    fn chunk_of_slot(&mut self, id: SlotId) -> Option<&mut Chunk> {
        let seq = *self.slot_chunks.get(&id)?;
        self.chunks.iter_mut().find(|c| c.tag.seq == seq)
    }

    /// A window slot that in-flight pipeline state (a completion, a miss
    /// wakeup) still refers to. Losing it means the window and the
    /// bookkeeping maps disagree — panic with the core, cycle, and slot
    /// so a bad configuration produces a usable report instead of an
    /// anonymous `Option::unwrap`.
    fn slot_mut(&mut self, now: Cycle, slot: SlotId, ctx: &str) -> &mut Slot {
        let core = self.core;
        self.window.get_mut(slot).unwrap_or_else(|| {
            panic!("core {core}: cycle {now}: window slot {slot} is gone ({ctx})")
        })
    }

    /// The chunk sequence number a slot was fetched into. Every slot is
    /// tagged at fetch time; an untagged slot in the retire/issue path
    /// means chunk accounting was corrupted.
    fn chunk_seq_of(&self, now: Cycle, slot: SlotId, ctx: &str) -> u64 {
        *self.slot_chunks.get(&slot).unwrap_or_else(|| {
            panic!(
                "core {}: cycle {now}: slot {slot} has no chunk tag ({ctx})",
                self.core
            )
        })
    }

    /// True if `line` is speculatively written by any active chunk (the
    /// BDM's displacement veto and dirty-non-speculative test).
    fn spec_written(&self, line: LineAddr) -> bool {
        self.chunks
            .iter()
            .any(|c| c.w.contains_exact(line) || c.wpriv.contains_exact(line))
    }

    // ------------------------------------------------------------------
    // Per-cycle work.
    // ------------------------------------------------------------------

    /// Advance this core by one cycle.
    pub fn tick(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        self.answer_deferred_fetches(now, fab);
        if self.finished() {
            return;
        }
        self.pop_completions(now, values);
        self.maybe_request_commit(now, fab, values);
        self.retire(now, values, fab);
        self.issue(now);
        self.send_pending_misses(now, fab);
        self.fetch(now, fab);
        self.check_finished(now);
    }

    fn pop_completions(&mut self, now: Cycle, values: &ValueStore) {
        while let Some(&Reverse((t, slot))) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            self.complete_load_slot(now, slot, values);
        }
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

    fn complete_load_slot(&mut self, now: Cycle, slot: SlotId, values: &ValueStore) {
        let Some(s) = self.window.get_mut(slot) else {
            return;
        };
        if s.state != SlotState::Issued {
            return;
        }
        let Instr::Load { addr, .. } = s.instr else {
            s.state = SlotState::Done;
            return;
        };
        // Forward from older in-window stores first (they have not
        // reached the chunk store buffer yet), then from the chunk
        // buffers, then committed memory. An older unperformed RMW means
        // the value is not known yet: retry next cycle.
        match self.window_forward(slot, addr) {
            WindowForward::Value(v) => {
                let s = self.slot_mut(now, slot, "load completed by store forwarding");
                s.state = SlotState::Done;
                s.value = Some(v);
            }
            WindowForward::Unknown => {
                // Re-examine next cycle; the RMW performs at the head.
                self.completions.push(Reverse((now + 1, slot)));
            }
            WindowForward::None => {
                let v = self.resolved_value(addr, values);
                let s = self.slot_mut(now, slot, "load completed from memory");
                s.state = SlotState::Done;
                s.value = Some(v);
            }
        }
    }

    /// The youngest older same-word store/RMW still in the window.
    fn window_forward(&self, slot: SlotId, addr: Addr) -> WindowForward {
        let mut fwd = WindowForward::None;
        for s in self.window.iter() {
            if s.id >= slot {
                break;
            }
            match s.instr {
                Instr::Store { addr: a, value } if a == addr => {
                    fwd = WindowForward::Value(value);
                }
                Instr::Rmw { addr: a, .. } if a == addr => {
                    fwd = WindowForward::Unknown;
                }
                _ => {}
            }
        }
        fwd
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
            match head_instr {
                Instr::Compute(_) => {
                    let n = budget.min(head_remaining);
                    self.window.drain_oldest_compute(n);
                    budget -= n;
                    self.note_retired(head_id, n as u64);
                    let core = self.core;
                    let drained = self.window.oldest().unwrap_or_else(|| {
                        panic!(
                            "core {core}: cycle {now}: head slot {head_id} vanished \
                             mid-drain of a compute burst"
                        )
                    });
                    if drained.remaining == 0 {
                        self.finish_slot(head_id);
                    }
                }
                Instr::Fence => {
                    // §3.3: no fences, no reordering constraints.
                    self.note_retired(head_id, 1);
                    self.finish_slot(head_id);
                    budget -= 1;
                }
                Instr::Load { addr, consume } => {
                    if head_state != SlotState::Done {
                        break;
                    }
                    let v = head_value;
                    if self.trace.enabled() {
                        let core = self.core;
                        let value = v.unwrap_or_else(|| {
                            panic!(
                                "core {core}: cycle {now}: load slot {head_id} at \
                                 {} retired Done but carries no value",
                                addr.line()
                            )
                        });
                        self.buffer_access(now, head_id, |seq, po| Event::ValLoad {
                            core,
                            seq,
                            po,
                            addr: addr.0,
                            value,
                            retired_at: now,
                        });
                    }
                    if consume {
                        self.feed = v;
                        self.awaiting = None;
                    }
                    self.note_retired(head_id, 1);
                    self.finish_slot(head_id);
                    budget -= 1;
                }
                Instr::Store { addr, value } => {
                    // Wait-free store retirement (§6).
                    if !self.perform_spec_store(now, head_id, addr, value, fab) {
                        break; // set-overflow self-squash happened
                    }
                    if self.trace.enabled() {
                        let core = self.core;
                        self.buffer_access(now, head_id, |seq, po| Event::ValStore {
                            core,
                            seq,
                            po,
                            addr: addr.0,
                            value,
                            retired_at: now,
                        });
                    }
                    self.note_retired(head_id, 1);
                    self.finish_slot(head_id);
                    budget -= 1;
                }
                Instr::Rmw { addr, op } => {
                    // Atomicity comes from the chunk (§3.3); the RMW just
                    // needs its line (or a forwarded value) to read.
                    let have_line = self.l1.contains(addr.line())
                        || self.chunks.iter().any(|c| c.forward(addr).is_some());
                    if !have_line {
                        self.want_line(now, head_id, addr.line(), None);
                        break;
                    }
                    let old = self.resolved_value(addr, values);
                    let new = op.apply(old);
                    if !self.perform_spec_store(now, head_id, addr, new, fab) {
                        break;
                    }
                    if self.trace.enabled() {
                        let core = self.core;
                        self.buffer_access(now, head_id, |seq, po| Event::ValRmw {
                            core,
                            seq,
                            po,
                            addr: addr.0,
                            old,
                            new,
                            retired_at: now,
                        });
                    }
                    self.feed = Some(old);
                    self.awaiting = None;
                    self.note_retired(head_id, 1);
                    self.finish_slot(head_id);
                    budget -= 1;
                }
                Instr::Io => {
                    // §4.1.3: stall until every older chunk has fully
                    // committed, perform, then a fresh chunk starts.
                    let own_seq = self.chunk_seq_of(now, head_id, "I/O retire");
                    let front_is_mine = self.chunks.front().map(|c| c.tag.seq) == Some(own_seq);
                    if !front_is_mine || !self.committing.is_empty() {
                        break;
                    }
                    self.stats.io_ops += 1;
                    self.note_retired(head_id, 1);
                    self.finish_slot(head_id);
                    budget -= 1;
                }
            }
        }
    }

    /// Buffer a value-trace event into the slot's chunk, assigning the
    /// next per-core program-order index. Callers check
    /// `trace.enabled()` first so untraced runs pay nothing.
    fn buffer_access(&mut self, now: Cycle, slot: SlotId, make: impl FnOnce(u64, u64) -> Event) {
        let po = self.po_next;
        self.po_next += 1;
        let seq = self.chunk_seq_of(now, slot, "value-trace buffering");
        if let Some(c) = self.chunks.iter_mut().find(|c| c.tag.seq == seq) {
            c.accesses.push(make(seq, po));
        }
    }

    fn note_retired(&mut self, slot: SlotId, n: u64) {
        self.stats.retired += n;
        if let Some(c) = self.chunk_of_slot(slot) {
            c.retired += n;
        }
    }

    fn finish_slot(&mut self, id: SlotId) {
        let slot = self.window.pop_oldest();
        debug_assert_eq!(slot.id, id);
        self.slot_chunks.remove(&id);
    }

    /// A store retires speculatively: route it to W or Wpriv, buffer the
    /// value, and make sure the line is (or will be) in the cache.
    /// Returns false if a cache-set overflow forced a self-squash.
    fn perform_spec_store(
        &mut self,
        now: Cycle,
        slot: SlotId,
        addr: Addr,
        value: u64,
        fab: &mut Fabric,
    ) -> bool {
        let line = addr.line();
        let seq = self.chunk_seq_of(now, slot, "speculative store retire");
        let is_static_priv =
            self.bulk.private == PrivateMode::Static && self.map.is_static_private(addr);
        let dirty_nonspec =
            self.l1.state(line) == Some(LineState::Dirty) && !self.spec_written(line);

        // Make sure the line is present or on its way (§6: must arrive
        // before the chunk commits).
        if !self.l1.contains(line) {
            self.want_line(now, slot, line, Some(seq));
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
                    self.dir_node(line),
                    Message::Writeback {
                        line,
                        keep_shared: true,
                    },
                );
                self.l1.set_state(line, LineState::Shared);
                false
            }
        } else {
            if dirty_nonspec {
                // Base design: the committed version must reach memory
                // before the speculative update lands in the cache.
                fab.send(
                    now,
                    self.id(),
                    self.dir_node(line),
                    Message::Writeback {
                        line,
                        keep_shared: true,
                    },
                );
                self.l1.set_state(line, LineState::Shared);
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
        if use_wpriv || (self.bulk.private == PrivateMode::Dynamic && already_wpriv) {
            chunk.wpriv.insert(line);
        } else {
            chunk.w.insert(line);
        }
        chunk.push_store(addr, value);
        true
    }

    fn issue(&mut self, now: Cycle) {
        let mut to_start: Vec<(SlotId, Instr)> = Vec::new();
        let mut depth = 0u64;
        for slot in self.window.iter() {
            depth += slot.remaining.max(1) as u64;
            if depth > self.cfg.issue_window as u64 {
                break;
            }
            if slot.state == SlotState::Waiting {
                match slot.instr {
                    Instr::Load { .. } | Instr::Store { .. } | Instr::Rmw { .. } => {
                        to_start.push((slot.id, slot.instr));
                    }
                    _ => {}
                }
            }
        }
        for (id, instr) in to_start {
            let seq = self.chunk_seq_of(now, id, "issue");
            match instr {
                Instr::Load { addr, .. } => {
                    self.record_read(seq, addr);
                    let forwarded = self.chunks.iter().any(|c| c.forward(addr).is_some());
                    if forwarded || self.l1.contains(addr.line()) {
                        if self.l1.touch(addr.line()) {
                            self.stats.l1_hits += 1;
                        }
                        self.completions
                            .push(Reverse((now + self.cfg.l1_latency, id)));
                    } else {
                        self.want_line(now, id, addr.line(), None);
                        if let Some(m) = self.misses.get_mut(&addr.line()) {
                            if !m.waiting_loads.contains(&id) {
                                m.waiting_loads.push(id);
                            }
                        }
                    }
                    if let Some(s) = self.window.get_mut(id) {
                        s.state = SlotState::Issued;
                    }
                }
                Instr::Rmw { addr, .. } => {
                    // The read side joins R; the line is prefetched; the
                    // op itself performs at the head.
                    self.record_read(seq, addr);
                    if !self.l1.contains(addr.line()) {
                        self.want_line(now, id, addr.line(), None);
                    }
                    if let Some(s) = self.window.get_mut(id) {
                        s.state = SlotState::Done;
                    }
                }
                Instr::Store { addr, .. } => {
                    // Prefetch the line; the store performs at the head.
                    if !self.l1.contains(addr.line()) {
                        self.want_line(now, id, addr.line(), None);
                    }
                    if let Some(s) = self.window.get_mut(id) {
                        s.state = SlotState::Done;
                    }
                }
                _ => {}
            }
        }
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

    /// Register interest in `line`. `pending_for` marks the chunk that
    /// cannot commit until the line arrives (speculative stores).
    fn want_line(&mut self, now: Cycle, _slot: SlotId, line: LineAddr, pending_for: Option<u64>) {
        self.misses.entry(line).or_insert_with(|| MissEntry {
            sent: false,
            sent_at: 0,
            retry_at: now,
            waiting_loads: Vec::new(),
            invalidated: false,
        });
        if let Some(seq) = pending_for {
            if let Some(c) = self.chunks.iter_mut().find(|c| c.tag.seq == seq) {
                c.pending_lines.insert(line);
            }
        }
    }

    fn send_pending_misses(&mut self, now: Cycle, fab: &mut Fabric) {
        let in_flight = self.misses.values().filter(|m| m.sent).count() as u32;
        let mut budget = self.cfg.mshrs.saturating_sub(in_flight);
        if budget == 0 {
            return;
        }
        let mut lines: Vec<LineAddr> = self
            .misses
            .iter()
            .filter(|(_, m)| !m.sent && m.retry_at <= now)
            .map(|(&l, _)| l)
            .collect();
        lines.sort_unstable();
        for line in lines {
            if budget == 0 {
                break;
            }
            let dst = self.dir_node(line);
            let core = self.core;
            let m = self.misses.get_mut(&line).unwrap_or_else(|| {
                panic!(
                    "core {core}: cycle {now}: miss entry for {line} vanished \
                     while draining the MSHR send queue"
                )
            });
            m.sent = true;
            m.sent_at = now;
            self.stats.l1_misses += 1;
            // §4.3: always a read request, even for writes.
            fab.send(
                now,
                NodeId::Core(self.core),
                dst,
                Message::ReadShared { line },
            );
            budget -= 1;
        }
    }

    fn fetch(&mut self, now: Cycle, fab: &mut Fabric) {
        if self.awaiting.is_some() {
            return;
        }
        if self.prearb_waiting && !self.prearb_granted {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.program_done && self.stash.is_none() {
                return;
            }
            if self.stats.retired + self.window.occupancy() >= self.budget {
                self.program_done = true;
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
            let instr = match self.stash.take() {
                Some(i) => i,
                None => {
                    let feed = self.feed.take();
                    match self.program.next(feed) {
                        Some(i) => i,
                        None => {
                            self.program_done = true;
                            self.close_open_chunk();
                            return;
                        }
                    }
                }
            };
            // I/O runs in a chunk of its own (§4.1.3).
            if matches!(instr, Instr::Io) && self.fetched_into_chunk > 0 {
                self.close_open_chunk();
                self.stash = Some(instr);
                continue;
            }
            // Preventive set-overflow boundary: if this store's line would
            // have to displace only speculatively-written lines, end the
            // chunk so the store lands in the next one (§4.1.2).
            if let Instr::Store { addr, .. } = instr {
                let line = addr.line();
                let veto_set = self.spec_veto();
                if self.fetched_into_chunk > 0
                    && !self.l1.contains(line)
                    && self.l1.would_overflow(line, |l| veto_set.contains(&l))
                {
                    self.close_open_chunk();
                    self.stash = Some(instr);
                    continue;
                }
            }
            match self.window.push(instr) {
                Some(id) => {
                    let core = self.core;
                    let seq = self
                        .open_chunk_mut()
                        .unwrap_or_else(|| {
                            panic!(
                                "core {core}: cycle {now}: no open chunk to receive \
                                 fetched slot {id} (chunks_per_core misconfigured?)"
                            )
                        })
                        .tag
                        .seq;
                    self.slot_chunks.insert(id, seq);
                    self.fetched_into_chunk += instr.dynamic_count();
                    if matches!(instr, Instr::Io) {
                        self.close_open_chunk();
                    }
                    if instr.consumes_value() {
                        self.awaiting = Some(id);
                        let _ = (now, &fab);
                        return;
                    }
                }
                None => {
                    self.stash = Some(instr);
                    return;
                }
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

    /// The lines no displacement may touch: speculatively-written lines of
    /// all active chunks.
    fn spec_veto(&self) -> HashSet<LineAddr> {
        let mut set = HashSet::new();
        for c in &self.chunks {
            set.extend(c.w.exact().iter());
            set.extend(c.wpriv.exact().iter());
        }
        set
    }

    // ------------------------------------------------------------------
    // Commit.
    // ------------------------------------------------------------------

    fn maybe_request_commit(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) {
        if now < self.commit_retry_at {
            return;
        }
        let Some(front) = self.chunks.front() else {
            return;
        };
        if front.state != ChunkState::Closed || !front.pending_lines.is_empty() {
            return;
        }
        // Fully retired? No slot of this chunk may remain in the window.
        let seq = front.tag.seq;
        if self.slot_chunks.values().any(|&s| s == seq) {
            return;
        }
        let tag = front.tag;
        if self.bulk.commit_without_arbitration {
            // TEST-ONLY fault (see `BulkConfig`): self-grant the commit.
            // No arbiter serialization, no W-signature broadcast — other
            // cores' conflicting chunks are never disambiguated, which is
            // exactly the reordering bug the SC oracle must catch.
            {
                let front = self.chunks.front_mut().unwrap_or_else(|| {
                    panic!(
                        "core {}: cycle {now}: chunk {}.{} disappeared between the \
                         commit check and the arbitration-free self-grant",
                        tag.core, tag.core, tag.seq
                    )
                });
                front.state = ChunkState::Arbitrating;
                if front.t_first_request.is_none() {
                    front.t_first_request = Some(now);
                    self.stats
                        .lat_execute
                        .record(now.saturating_sub(front.t_start));
                }
            }
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
        {
            let front = self.chunks.front_mut().unwrap_or_else(|| {
                panic!(
                    "core {}: cycle {now}: chunk {}.{} disappeared while its commit \
                     request was being composed",
                    tag.core, tag.core, tag.seq
                )
            });
            front.state = ChunkState::Arbitrating;
            if front.t_first_request.is_none() {
                front.t_first_request = Some(now);
                self.stats
                    .lat_execute
                    .record(now.saturating_sub(front.t_start));
            }
        }
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
        let Some(front) = self.chunks.front() else {
            return;
        };
        if front.tag != chunk || front.state != ChunkState::Arbitrating {
            return; // stale response (e.g. chunk was squashed meanwhile)
        }
        if !ok {
            self.stats.commit_denials += 1;
            self.charge_loss(now, "arb_denial");
            self.chunks
                .front_mut()
                .unwrap_or_else(|| {
                    panic!(
                        "core {}: cycle {now}: chunk {}.{} disappeared while its \
                         commit denial was being recorded",
                        chunk.core, chunk.core, chunk.seq
                    )
                })
                .state = ChunkState::Closed;
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
            if self.l1.contains(line) {
                self.l1.set_state(line, LineState::Dirty);
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
        for line in front.wpriv.exact().iter() {
            let still_needed = self.chunks.iter().any(|c| c.wpriv.contains_exact(line));
            if !still_needed {
                self.priv_buffer.remove(line);
            }
        }
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
        // Restore the program (and its pending feed/stash) as of the
        // squashed chunk's start.
        self.program = self.chunks[idx].checkpoint.clone_box();
        self.feed = self.chunks[idx].checkpoint_feed;
        self.stash = self.chunks[idx].checkpoint_stash;
        self.program_done = false;
        self.awaiting = None;

        // Drop the squashed chunks' slots: they form a program-order
        // suffix of the window.
        let slot_chunks = &self.slot_chunks;
        let mut wasted = self.window.squash_newest_while(|id| {
            slot_chunks
                .get(&id)
                .map(|&s| s >= first_seq)
                .unwrap_or(false)
        });
        self.slot_chunks.retain(|_, &mut s| s < first_seq);
        debug_assert!(
            !self.window.iter().any(|s| self
                .slot_chunks
                .get(&s.id)
                .map(|&c| c >= first_seq)
                .unwrap_or(false)),
            "squashed slots must form a window suffix"
        );

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
                self.l1.invalidate(line);
            }
            for line in c.wpriv.exact().iter() {
                let still_needed = self.chunks.iter().any(|k| k.wpriv.contains_exact(line));
                if !still_needed {
                    self.priv_buffer.remove(line);
                }
            }
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
                self.stats.nacks += 1;
                if let Some(m) = self.misses.get_mut(&line) {
                    m.sent = false;
                    m.retry_at = now + self.cfg.nack_retry;
                }
                if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
                    self.surrender_line(now, line, src, for_excl, fab);
                }
            }
            Message::Fetch { line, for_excl } => {
                if self.misses.get(&line).map(|m| m.sent).unwrap_or(false) {
                    self.pending_fetches.insert(line, (env.src, for_excl));
                } else {
                    self.surrender_line(now, line, env.src, for_excl, fab);
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
                self.stats.rsig_sent += 1;
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
        // 1. Disambiguate: the oldest colliding chunk and all younger ones
        //    squash (CReq1's in-order rule).
        let victim = self.chunks.iter().position(|c| c.collides_with(w));
        if std::env::var_os("BULKSC_TRACE_DISAMBIG").is_some() && !w.is_empty() {
            for c in &self.chunks {
                eprintln!(
                    "DISAMBIG core{} w_len={} r_len={} bloom={} exact={}",
                    self.core,
                    w.len(),
                    c.r.len(),
                    c.collides_with(w),
                    c.collides_exactly_with(w)
                );
            }
        }
        if let Some(idx) = victim {
            let exact = self
                .chunks
                .iter()
                .skip(idx)
                .any(|c| c.collides_exactly_with(w));
            let cause = if exact {
                self.stats.true_squashes += 1;
                SquashCause::TrueSharing
            } else {
                self.stats.alias_squashes += 1;
                SquashCause::Alias
            };
            // Which signature detected the conflict: the victim's R (a
            // read this chunk did) or its W (a write-write collision).
            let label = if w.intersects(&self.chunks[idx].r) {
                "r_sig_conflict"
            } else {
                "w_sig_conflict"
            };
            // The committing chunk whose W arrived is the aggressor; its
            // tag rode along with the invalidation.
            let attr = self
                .bulk
                .xray
                .then(|| self.conflict_attr(idx, w, "wsig", Some(chunk)));
            self.squash_from(idx, cause, label, attr, fab, now);
        }
        // 2. Bulk invalidation: δ-expand the signature over the L1 and
        //    invalidate members. Lines whose pre-image the Private Buffer
        //    retains stay (the commit cannot really have written them —
        //    we are their registered owner).
        for set in w.decode_sets(self.l1.num_sets()) {
            for line in self.l1.lines_in_set(set) {
                if w.contains(line) && !self.priv_buffer.contains(line) && !self.spec_written(line)
                {
                    self.l1.invalidate(line);
                    self.note_lost_clean_line(line);
                    self.stats.cache_invs += 1;
                    if !w.contains_exact(line) {
                        self.stats.extra_cache_invs += 1;
                    }
                }
            }
        }
        // 3. Stale-fill protection: in-flight fills for lines the commit
        //    wrote must not install.
        for (line, m) in self.misses.iter_mut() {
            if m.sent && w.contains(*line) {
                m.invalidated = true;
            }
        }
        if needs_ack {
            fab.send(now, self.id(), src, Message::WSigInvAck { chunk });
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
        // is naturally unaffected.
        let victim = self.chunks.iter().position(|c| c.collides_with(sig));
        if let Some(idx) = victim {
            // Displacement disambiguation is signature-based (§4.3.3), so
            // its false positives are aliasing costs too.
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
            let label = if sig.intersects(&self.chunks[idx].r) {
                "r_sig_conflict"
            } else {
                "w_sig_conflict"
            };
            // A directory-displacement sweep has no committing chunk to
            // blame; the witnesses still localize the conflict.
            let attr = self
                .bulk
                .xray
                .then(|| self.conflict_attr(idx, sig, "displacement", None));
            self.squash_from(idx, cause, label, attr, fab, now);
        }
        let state = self.l1.invalidate(line);
        if self.priv_buffer.remove(line) {
            // The displaced line's pre-image leaves the buffer; make sure
            // the eventual commit announces the write.
            for c in self.chunks.iter_mut() {
                if c.wpriv.contains_exact(line) {
                    c.w.insert(line);
                }
            }
        }
        if let Some(m) = self.misses.get_mut(&line) {
            m.invalidated = true;
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

    fn surrender_line(
        &mut self,
        now: Cycle,
        line: LineAddr,
        dst: NodeId,
        for_excl: bool,
        fab: &mut Fabric,
    ) {
        // §5.2: an external request for a line whose old version sits in
        // the Private Buffer is served from the buffer, and the address
        // goes (back) into W so the commit will announce the write.
        if self.priv_buffer.contains(line) {
            self.priv_buffer.remove(line);
            self.stats.priv_buffer_supplies += 1;
            self.trace.emit(now, || Event::PrivSupply {
                core: self.core,
                line: line.0,
            });
            for c in self.chunks.iter_mut() {
                if c.wpriv.contains_exact(line) {
                    c.w.insert(line);
                }
            }
            self.l1.set_state(line, LineState::Shared);
            fab.send(
                now,
                self.id(),
                dst,
                Message::FetchResp {
                    line,
                    dirty: true,
                    had_line: true,
                },
            );
            return;
        }
        let state = if for_excl {
            let s = self.l1.invalidate(line);
            self.note_lost_clean_line(line);
            s
        } else {
            let s = self.l1.state(line);
            if s.is_some() {
                self.l1.set_state(line, LineState::Shared);
            }
            s
        };
        fab.send(
            now,
            self.id(),
            dst,
            Message::FetchResp {
                line,
                dirty: state == Some(LineState::Dirty),
                had_line: state.is_some(),
            },
        );
    }

    fn answer_deferred_fetches(&mut self, now: Cycle, fab: &mut Fabric) {
        let due: Vec<(Cycle, LineAddr, NodeId, bool)> = self
            .deferred_fetches
            .iter()
            .filter(|(t, ..)| *t <= now)
            .copied()
            .collect();
        self.deferred_fetches.retain(|(t, ..)| *t > now);
        for (_, line, src, for_excl) in due {
            self.surrender_line(now, line, src, for_excl, fab);
        }
    }

    fn fill(
        &mut self,
        now: Cycle,
        line: LineAddr,
        exclusive: bool,
        data: bulksc_sig::LineData,
        fab: &mut Fabric,
    ) {
        if self
            .misses
            .get(&line)
            .map(|m| m.invalidated)
            .unwrap_or(false)
        {
            // Stale fill: re-request (the chunk that wanted it was either
            // squashed or will read the fresh copy).
            if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
                self.surrender_line(now, line, src, for_excl, fab);
            }
            let core = self.core;
            let m = self.misses.get_mut(&line).unwrap_or_else(|| {
                panic!(
                    "core {core}: cycle {now}: miss entry for {line} vanished \
                     while its stale fill was being re-requested"
                )
            });
            m.sent = false;
            m.invalidated = false;
            m.retry_at = now + 1;
            return;
        }
        let state = if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        let veto_set = self.spec_veto();
        match self.l1.insert(line, state, |l| veto_set.contains(&l)) {
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
                        self.dir_node(victim),
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
        if let Some(m) = self.misses.remove(&line) {
            if m.sent {
                self.stats.lat_miss.record(now.saturating_sub(m.sent_at));
            }
            for slot in m.waiting_loads {
                // Values: forwarding first, then the response snapshot.
                let Some(s) = self.window.get_mut(slot) else {
                    continue;
                };
                if s.state != SlotState::Issued {
                    continue;
                }
                let Instr::Load { addr, .. } = s.instr else {
                    continue;
                };
                let v = match self.window_forward(slot, addr) {
                    WindowForward::Value(v) => v,
                    WindowForward::Unknown => {
                        self.completions.push(Reverse((now + 1, slot)));
                        continue;
                    }
                    WindowForward::None => self
                        .chunks
                        .iter()
                        .rev()
                        .find_map(|c| c.forward(addr))
                        .unwrap_or(data[addr.line_offset() as usize]),
                };
                let s = self.slot_mut(now, slot, "load woken by a fill");
                s.state = SlotState::Done;
                s.value = Some(v);
            }
        }
        if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
            self.deferred_fetches
                .push((now + self.cfg.l1_latency + 1, line, src, for_excl));
        }
    }

    fn check_finished(&mut self, now: Cycle) {
        if self.stats.finished_at.is_some() {
            return;
        }
        // Drop a trailing empty chunk so budget-exact runs can finish.
        if self.program_done
            && self.stash.is_none()
            && self.window.is_empty()
            && self.chunks.len() == 1
        {
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
        if self.program_done
            && self.stash.is_none()
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
            "bulk core{} head={:?} win={} chunks={:?} committing={} misses={:?} pending_front={:?} prearb={}/{} done={} finished={:?}",
            self.core,
            self.window.oldest().map(|s| format!("{:?}/{:?}", s.instr, s.state)),
            self.window.len(),
            self.chunks.iter().map(|c| format!("{}:{:?}r{}", c.tag, c.state, c.retired)).collect::<Vec<_>>(),
            self.committing.len(),
            self.misses
                .iter()
                .map(|(l, m)| format!("{l}:sent={},inv={},retry={}", m.sent, m.invalidated, m.retry_at))
                .collect::<Vec<_>>(),
            self.chunks.front().map(|c| c.pending_lines.len()),
            self.prearb_waiting,
            self.prearb_granted,
            self.program_done,
            self.stats.finished_at,
        )
    }
}
