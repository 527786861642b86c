//! The directory module: demand coherence plus the BulkSC commit side
//! (paper §4.3).
//!
//! One [`Directory`] instance is one directory module of Figure 5. It owns
//! a slice of the physical address space, a [`DirStore`] of sharing state,
//! and a slice of the shared L2 (modelled as a presence filter that decides
//! whether a data response pays the L2 or the memory round trip).
//!
//! The same module serves both protocol families:
//!
//! * **Baselines (SC, RC, SC++)** use the full MESI vocabulary:
//!   `ReadShared`, `ReadExcl`, `Upgrade`, with invalidations, owner
//!   fetches, and writebacks.
//! * **BulkSC** uses only `ReadShared` (§4.3: every demand miss is a read
//!   request because a speculative accessor cannot be marked owner) plus
//!   the commit-side messages `WSigToDir`/`WSigInvAck`/`PrivSigToDir`,
//!   which drive DirBDM signature expansion (Table 1) and the conservative
//!   access disabling of §4.3.2.

use std::collections::HashMap;

use bulksc_net::{ChunkTag, Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::{LineAddr, SigMode, SignatureConfig, TrackedSig};

use crate::cache::{CacheConfig, LineState, SetAssocCache};
use crate::dirbdm::expand_commit;
use crate::store::{DirOrganization, DirStore, Displaced};
use crate::values::ValueStore;

/// Directory timing and structure parameters.
#[derive(Clone, Debug)]
pub struct DirConfig {
    /// Entry store organization (directory cache by default, §4.3.3).
    pub organization: DirOrganization,
    /// Geometry of this module's slice of the shared L2.
    pub l2: CacheConfig,
    /// Extra response latency when the L2 holds the line (with the two
    /// network hops this approximates Table 2's 13-cycle L2 round trip).
    pub l2_extra: Cycle,
    /// Extra response latency when main memory must be accessed
    /// (approximates Table 2's 300-cycle memory round trip).
    pub mem_extra: Cycle,
    /// Signature geometry used when the directory builds signatures itself
    /// (directory-cache displacement, §4.3.3).
    pub sig: SignatureConfig,
    /// Signature mode for directory-built signatures.
    pub sig_mode: SigMode,
    /// Grant E state (and record ownership) to sole readers. Required for
    /// the baselines' silent E→M upgrades; must be false for BulkSC, where
    /// a speculative accessor can never be marked owner (§4.3) — and where
    /// clean sharer entries are exactly what commit expansion acts on.
    pub grant_exclusive: bool,
}

impl Default for DirConfig {
    fn default() -> Self {
        DirConfig {
            organization: DirOrganization::Cache {
                sets: 8192,
                assoc: 8,
            },
            l2: CacheConfig::l2_default(),
            l2_extra: 3,
            mem_extra: 290,
            sig: SignatureConfig::default(),
            sig_mode: SigMode::Bloom,
            grant_exclusive: true,
        }
    }
}

/// Event counters for Table 4 and general characterization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Demand read requests served (shared).
    pub reads: u64,
    /// Demand exclusive reads served (baselines).
    pub read_excls: u64,
    /// Upgrades served (baselines).
    pub upgrades: u64,
    /// Writebacks received.
    pub writebacks: u64,
    /// Requests bounced (busy line or committing line, §4.3.2).
    pub nacks: u64,
    /// W signatures received for commit expansion.
    pub wsigs_received: u64,
    /// Entries looked up during expansion (membership-positive).
    pub lookups: u64,
    /// Lookups caused by signature aliasing (Table 4).
    pub unnecessary_lookups: u64,
    /// Entries updated during expansion.
    pub updates: u64,
    /// Updates caused by aliasing — safe but counted (Table 4).
    pub unnecessary_updates: u64,
    /// Total cores put on invalidation lists ("Nodes per W Sig").
    pub inv_targets: u64,
    /// Wpriv signatures received (statically-private commits, §5.1).
    pub priv_sigs: u64,
    /// Directory-cache entry displacements (§4.3.3).
    pub dir_displacements: u64,
    /// L2 presence-filter hits.
    pub l2_hits: u64,
    /// L2 presence-filter misses (paid the memory latency).
    pub l2_misses: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxKind {
    Shared,
    Excl,
    Upgrade,
}

#[derive(Clone, Copy, Debug)]
struct PendingTx {
    kind: TxKind,
    requester: u32,
    acks_left: u32,
}

#[derive(Clone, Debug)]
struct CommitTx {
    arbiter: NodeId,
    acks_left: u32,
    w: TrackedSig,
}

/// A directory module with its DirBDM.
#[derive(Debug)]
pub struct Directory {
    id: NodeId,
    cfg: DirConfig,
    store: DirStore,
    l2: SetAssocCache,
    pending: HashMap<LineAddr, PendingTx>,
    commits: HashMap<ChunkTag, CommitTx>,
    stats: DirStats,
    trace: bulksc_trace::TraceHandle,
}

impl Directory {
    /// A directory module answering as network node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a [`NodeId::Dir`].
    pub fn new(id: NodeId, cfg: DirConfig) -> Self {
        assert!(
            matches!(id, NodeId::Dir(_)),
            "directory id must be NodeId::Dir"
        );
        Directory {
            id,
            store: DirStore::new(cfg.organization),
            l2: SetAssocCache::new(cfg.l2),
            cfg,
            pending: HashMap::new(),
            commits: HashMap::new(),
            stats: DirStats::default(),
            trace: bulksc_trace::TraceHandle::off(),
        }
    }

    /// Route this directory's trace events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: bulksc_trace::TraceHandle) {
        self.trace = trace;
    }

    /// This directory's index (the `i` of `NodeId::Dir(i)`).
    fn dir_index(&self) -> u32 {
        match self.id {
            NodeId::Dir(i) => i,
            _ => unreachable!("checked in new()"),
        }
    }

    /// This module's network id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Event counters.
    pub fn stats(&self) -> &DirStats {
        &self.stats
    }

    /// The sharing-state store (tests and diagnostics).
    pub fn store(&self) -> &DirStore {
        &self.store
    }

    /// One-line diagnostic snapshot (for debugging stuck systems),
    /// pending transactions in line order.
    pub fn debug_state(&self) -> String {
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_unstable_by_key(|&(l, _)| *l);
        format!(
            "dir pending={:?} commits={}",
            pending
                .iter()
                .map(|(l, tx)| format!("{l}:{:?}req{}acks{}", tx.kind, tx.requester, tx.acks_left))
                .collect::<Vec<_>>(),
            self.commits.len(),
        )
    }

    /// Number of commits currently holding lines disabled.
    pub fn committing_count(&self) -> usize {
        self.commits.len()
    }

    /// True if an incoming read for `line` must bounce because the line may
    /// have been updated by a still-committing chunk (§4.3.2).
    fn commit_disabled(&self, line: LineAddr) -> bool {
        self.commits.values().any(|c| c.w.contains(line))
    }

    /// Latency of producing data for `line`: L2 round trip if present,
    /// memory otherwise (and the line is installed in the L2).
    fn data_latency(&mut self, line: LineAddr) -> Cycle {
        if self.l2.touch(line) {
            self.stats.l2_hits += 1;
            self.cfg.l2_extra
        } else {
            self.stats.l2_misses += 1;
            self.l2.insert(line, LineState::Shared, |_| false);
            self.cfg.mem_extra
        }
    }

    /// Process one incoming message at time `now`, sending any responses
    /// through `fab`. `values` is the committed memory state, snapshotted
    /// into data responses at their serving (linearization) point.
    ///
    /// # Panics
    ///
    /// Panics on messages a directory can never receive (they indicate a
    /// routing bug in the surrounding system).
    pub fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric, values: &ValueStore) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Directory);
        match env.msg {
            Message::ReadShared { line } => {
                self.demand_read(now, env.src, line, false, fab, values)
            }
            Message::ReadExcl { line } => self.demand_read(now, env.src, line, true, fab, values),
            Message::Upgrade { line } => self.upgrade(now, env.src, line, fab),
            Message::Writeback { line, keep_shared } => self.writeback(env.src, line, keep_shared),
            Message::InvAck { line, dirty } => self.inv_ack(now, env.src, line, dirty, fab, values),
            Message::FetchResp {
                line,
                dirty,
                had_line,
            } => self.fetch_resp(now, line, dirty, had_line, fab, values),
            Message::WSigToDir { chunk, w } => self.wsig(now, env.src, chunk, *w, fab),
            Message::WSigInvAck { chunk } => self.wsig_ack(now, chunk, fab),
            Message::PrivSigToDir { chunk, w } => self.priv_sig(now, chunk, *w, fab),
            other => panic!("directory received unexpected message {other:?}"),
        }
    }

    fn core_index(src: NodeId) -> u32 {
        match src {
            NodeId::Core(c) => c,
            other => panic!("expected a core requester, got {other:?}"),
        }
    }

    fn nack(&mut self, now: Cycle, dst: NodeId, line: LineAddr, fab: &mut Fabric) {
        self.stats.nacks += 1;
        fab.send(now, self.id, dst, Message::Nack { line });
    }

    fn demand_read(
        &mut self,
        now: Cycle,
        src: NodeId,
        line: LineAddr,
        excl: bool,
        fab: &mut Fabric,
        values: &ValueStore,
    ) {
        let p = Self::core_index(src);
        if self.pending.contains_key(&line) || self.commit_disabled(line) {
            self.nack(now, src, line, fab);
            return;
        }
        let pending = &self.pending;
        let alloc = self
            .store
            .entry_mut_with_veto(line, |l| pending.contains_key(&l));
        let Some((entry, displaced)) = alloc else {
            self.nack(now, src, line, fab);
            return;
        };
        let mut snapshot = *entry;
        if snapshot.dirty && snapshot.sharers == 0 {
            // Orphaned dirty bit (owner vanished through a displacement
            // race): memory is authoritative again.
            entry.dirty = false;
            snapshot.dirty = false;
        }
        if excl {
            self.stats.read_excls += 1;
        } else {
            self.stats.reads += 1;
        }

        if let Some(d) = displaced {
            self.displace_entry(now, d, fab);
        }

        if snapshot.dirty && !snapshot.has_sharer(p) {
            // Owned elsewhere: fetch from the owner first.
            let owner = snapshot.sharer_list()[0];
            self.pending.insert(
                line,
                PendingTx {
                    kind: if excl { TxKind::Excl } else { TxKind::Shared },
                    requester: p,
                    acks_left: 0,
                },
            );
            fab.send(
                now,
                self.id,
                NodeId::Core(owner),
                Message::Fetch {
                    line,
                    for_excl: excl,
                },
            );
            return;
        }

        if snapshot.dirty {
            // The requester itself is recorded as owner but missed: the
            // "false owner" self case of §4.3.1 (or a post-squash refetch).
            // Serve from memory and clear the stale dirty bit.
            let e = self.store.get_mut(line).expect("entry just allocated");
            e.dirty = false;
            e.add_sharer(p);
            let exclusive = excl && e.sharer_count() == 1;
            if exclusive {
                e.dirty = true;
            }
            let extra = self.cfg.mem_extra;
            self.stats.l2_misses += 1;
            let data = values.read_line(line);
            fab.send_delayed(
                now,
                extra,
                self.id,
                src,
                Message::Data {
                    line,
                    exclusive,
                    data,
                },
            );
            return;
        }

        if excl {
            let others: Vec<u32> = snapshot
                .sharer_list()
                .into_iter()
                .filter(|&s| s != p)
                .collect();
            if others.is_empty() {
                let e = self.store.get_mut(line).expect("entry just allocated");
                e.sharers = 1 << p;
                e.dirty = true;
                let extra = self.data_latency(line);
                let data = values.read_line(line);
                fab.send_delayed(
                    now,
                    extra,
                    self.id,
                    src,
                    Message::Data {
                        line,
                        exclusive: true,
                        data,
                    },
                );
            } else {
                self.pending.insert(
                    line,
                    PendingTx {
                        kind: TxKind::Excl,
                        requester: p,
                        acks_left: others.len() as u32,
                    },
                );
                for s in others {
                    fab.send(now, self.id, NodeId::Core(s), Message::Inv { line });
                }
            }
            return;
        }

        // Plain shared read. Under the baselines a first reader gets the
        // line in E state and the directory records it as owner (E holders
        // upgrade to M silently); under BulkSC every reader is a plain
        // sharer (§4.3).
        let e = self.store.get_mut(line).expect("entry just allocated");
        let exclusive = self.cfg.grant_exclusive && e.sharers == 0;
        e.add_sharer(p);
        if exclusive {
            e.dirty = true;
        }
        let extra = self.data_latency(line);
        let data = values.read_line(line);
        fab.send_delayed(
            now,
            extra,
            self.id,
            src,
            Message::Data {
                line,
                exclusive,
                data,
            },
        );
    }

    fn upgrade(&mut self, now: Cycle, src: NodeId, line: LineAddr, fab: &mut Fabric) {
        let p = Self::core_index(src);
        if self.pending.contains_key(&line) || self.commit_disabled(line) {
            self.nack(now, src, line, fab);
            return;
        }
        let Some(entry) = self.store.get(line).copied() else {
            // Entry displaced since the requester read the line: its copy
            // was invalidated in flight. Make it retry with a full miss.
            self.nack(now, src, line, fab);
            return;
        };
        if entry.dirty || !entry.has_sharer(p) {
            self.nack(now, src, line, fab);
            return;
        }
        self.stats.upgrades += 1;
        let others: Vec<u32> = entry
            .sharer_list()
            .into_iter()
            .filter(|&s| s != p)
            .collect();
        if others.is_empty() {
            let e = self.store.get_mut(line).expect("entry exists");
            e.sharers = 1 << p;
            e.dirty = true;
            fab.send(now, self.id, src, Message::UpgradeAck { line });
        } else {
            self.pending.insert(
                line,
                PendingTx {
                    kind: TxKind::Upgrade,
                    requester: p,
                    acks_left: others.len() as u32,
                },
            );
            for s in others {
                fab.send(now, self.id, NodeId::Core(s), Message::Inv { line });
            }
        }
    }

    fn writeback(&mut self, src: NodeId, line: LineAddr, keep_shared: bool) {
        let p = Self::core_index(src);
        self.stats.writebacks += 1;
        self.l2.insert(line, LineState::Shared, |_| false);
        if let Some(e) = self.store.get_mut(line) {
            if e.dirty && e.has_sharer(p) {
                e.dirty = false;
                if !keep_shared {
                    e.remove_sharer(p);
                }
            }
        }
        // Entries with an in-flight transaction must survive even if the
        // writeback made them idle (the transaction finisher needs them).
        if !self.pending.contains_key(&line) {
            self.store.drop_if_idle(line);
        }
    }

    fn inv_ack(
        &mut self,
        now: Cycle,
        src: NodeId,
        line: LineAddr,
        dirty: bool,
        fab: &mut Fabric,
        values: &ValueStore,
    ) {
        let p = Self::core_index(src);
        if dirty {
            self.l2.insert(line, LineState::Shared, |_| false);
        }
        if let Some(e) = self.store.get_mut(line) {
            let was_owner = e.dirty && e.has_sharer(p);
            e.remove_sharer(p);
            if was_owner {
                // The (former) owner invalidated its copy — with the data
                // written back above if it was modified.
                e.dirty = false;
            }
        }
        let Some(tx) = self.pending.get_mut(&line) else {
            return; // displacement ack or stale: sharing state updated above
        };
        tx.acks_left -= 1;
        if tx.acks_left > 0 {
            return;
        }
        let tx = self.pending.remove(&line).expect("checked above");
        let req = NodeId::Core(tx.requester);
        let e = self
            .store
            .entry_mut(line)
            .expect("no displacement possible: entry exists")
            .0;
        e.sharers = 1 << tx.requester;
        e.dirty = true;
        match tx.kind {
            TxKind::Upgrade => fab.send(now, self.id, req, Message::UpgradeAck { line }),
            TxKind::Excl => {
                let extra = self.data_latency(line);
                let data = values.read_line(line);
                fab.send_delayed(
                    now,
                    extra,
                    self.id,
                    req,
                    Message::Data {
                        line,
                        exclusive: true,
                        data,
                    },
                );
            }
            TxKind::Shared => unreachable!("shared reads never collect inv acks"),
        }
    }

    fn fetch_resp(
        &mut self,
        now: Cycle,
        line: LineAddr,
        dirty: bool,
        had_line: bool,
        fab: &mut Fabric,
        values: &ValueStore,
    ) {
        if dirty {
            self.l2.insert(line, LineState::Shared, |_| false);
        }
        let Some(tx) = self.pending.remove(&line) else {
            return; // stale (e.g. raced with a writeback)
        };
        let req = NodeId::Core(tx.requester);
        let e = self
            .store
            .entry_mut(line)
            .expect("allocation always succeeds without a veto")
            .0;
        // The old owner keeps a shared copy only if it actually had the
        // line and the requester wanted a shared copy.
        let owner = e.sharer_list().first().copied();
        match tx.kind {
            TxKind::Shared => {
                e.dirty = false;
                if !had_line {
                    if let Some(o) = owner {
                        e.remove_sharer(o);
                    }
                }
                e.add_sharer(tx.requester);
                let extra = if had_line {
                    self.cfg.l2_extra
                } else {
                    self.cfg.mem_extra
                };
                if had_line {
                    self.l2.insert(line, LineState::Shared, |_| false);
                }
                let data = values.read_line(line);
                fab.send_delayed(
                    now,
                    extra,
                    self.id,
                    req,
                    Message::Data {
                        line,
                        exclusive: false,
                        data,
                    },
                );
            }
            TxKind::Excl => {
                e.sharers = 1 << tx.requester;
                e.dirty = true;
                let extra = if had_line {
                    self.cfg.l2_extra
                } else {
                    self.cfg.mem_extra
                };
                let data = values.read_line(line);
                fab.send_delayed(
                    now,
                    extra,
                    self.id,
                    req,
                    Message::Data {
                        line,
                        exclusive: true,
                        data,
                    },
                );
            }
            TxKind::Upgrade => unreachable!("upgrades never fetch"),
        }
    }

    fn displace_entry(&mut self, now: Cycle, d: Displaced, fab: &mut Fabric) {
        if d.entry.is_idle() {
            return;
        }
        self.stats.dir_displacements += 1;
        self.trace
            .emit(now, || bulksc_trace::Event::DirDisplacement {
                dir: self.dir_index(),
                line: d.line.0,
            });
        // §4.3.3: build the displaced address into a signature and send it
        // to all sharer caches for bulk disambiguation; copies are
        // invalidated (cores answer InvAck, with data if dirty).
        let mut sig = TrackedSig::new(&self.cfg.sig, self.cfg.sig_mode);
        sig.insert(d.line);
        for s in d.entry.sharer_list() {
            fab.send(
                now,
                self.id,
                NodeId::Core(s),
                Message::DisplaceSig {
                    line: d.line,
                    sig: Box::new(sig.clone()),
                },
            );
        }
    }

    fn wsig(&mut self, now: Cycle, src: NodeId, chunk: ChunkTag, w: TrackedSig, fab: &mut Fabric) {
        self.stats.wsigs_received += 1;
        let r = expand_commit(&mut self.store, chunk.core, &w);
        self.stats.lookups += r.lookups;
        self.stats.unnecessary_lookups += r.unnecessary_lookups;
        self.stats.updates += r.updates;
        self.stats.unnecessary_updates += r.unnecessary_updates;
        self.stats.inv_targets += r.invalidation_list.len() as u64;
        self.trace.emit(now, || bulksc_trace::Event::SigExpand {
            dir: self.dir_index(),
            core: chunk.core,
            seq: chunk.seq,
            lookups: r.lookups,
            updates: r.updates,
            inv_targets: r.invalidation_list.len() as u64,
        });
        if r.invalidation_list.is_empty() {
            // Nothing to invalidate: the new values are visible immediately.
            fab.send(now, self.id, src, Message::DirDone { chunk });
            return;
        }
        self.commits.insert(
            chunk,
            CommitTx {
                arbiter: src,
                acks_left: r.invalidation_list.len() as u32,
                w: w.clone(),
            },
        );
        for c in r.invalidation_list {
            fab.send(
                now,
                self.id,
                NodeId::Core(c),
                Message::WSigInv {
                    chunk,
                    w: Box::new(w.clone()),
                    needs_ack: true,
                },
            );
        }
    }

    fn wsig_ack(&mut self, now: Cycle, chunk: ChunkTag, fab: &mut Fabric) {
        let Some(tx) = self.commits.get_mut(&chunk) else {
            return;
        };
        tx.acks_left -= 1;
        if tx.acks_left == 0 {
            let tx = self.commits.remove(&chunk).expect("checked above");
            fab.send(now, self.id, tx.arbiter, Message::DirDone { chunk });
        }
    }

    fn priv_sig(&mut self, now: Cycle, chunk: ChunkTag, w: TrackedSig, fab: &mut Fabric) {
        self.stats.priv_sigs += 1;
        // Same Table 1 expansion; keeps migrated private data coherent
        // (§5.1). No access disabling and no completion tracking: private
        // data is not subject to consistency arbitration.
        let r = expand_commit(&mut self.store, chunk.core, &w);
        self.trace.emit(now, || bulksc_trace::Event::SigExpand {
            dir: self.dir_index(),
            core: chunk.core,
            seq: chunk.seq,
            lookups: r.lookups,
            updates: r.updates,
            inv_targets: r.invalidation_list.len() as u64,
        });
        for c in r.invalidation_list {
            fab.send(
                now,
                self.id,
                NodeId::Core(c),
                Message::WSigInv {
                    chunk,
                    w: Box::new(w.clone()),
                    needs_ack: false,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_net::FabricConfig;

    fn setup() -> (Directory, Fabric) {
        let cfg = DirConfig {
            organization: DirOrganization::FullMap { sets: 64 },
            mem_extra: 100,
            l2_extra: 2,
            ..DirConfig::default()
        };
        (
            Directory::new(NodeId::Dir(0), cfg),
            Fabric::new(FabricConfig { hop_latency: 1 }),
        )
    }

    fn env(src: NodeId, msg: Message) -> Envelope {
        Envelope {
            src,
            dst: NodeId::Dir(0),
            msg,
        }
    }

    fn handle(d: &mut Directory, now: Cycle, e: Envelope, fab: &mut Fabric) {
        let values = ValueStore::new();
        d.handle(now, e, fab, &values);
    }

    fn drain(fab: &mut Fabric) -> Vec<Envelope> {
        let mut out = Vec::new();
        fab.deliver_due(u64::MAX / 2, &mut out);
        out
    }

    /// Make `cores` sharers of `line` with the dirty bit clear: the first
    /// core reads (becoming the E-state owner), each later core's read
    /// triggers the owner fetch, which we answer clean.
    fn share(d: &mut Directory, fab: &mut Fabric, cores: &[u32], line: LineAddr) {
        handle(
            d,
            0,
            env(NodeId::Core(cores[0]), Message::ReadShared { line }),
            fab,
        );
        drain(fab);
        for &c in &cores[1..] {
            handle(
                d,
                0,
                env(NodeId::Core(c), Message::ReadShared { line }),
                fab,
            );
            let out = drain(fab);
            if let Some(f) = out.iter().find(|e| matches!(e.msg, Message::Fetch { .. })) {
                let owner = f.dst;
                handle(
                    d,
                    0,
                    env(
                        owner,
                        Message::FetchResp {
                            line,
                            dirty: false,
                            had_line: true,
                        },
                    ),
                    fab,
                );
                drain(fab);
            }
        }
    }

    #[test]
    fn first_read_is_exclusive_and_pays_memory() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        assert_eq!(fab.next_delivery(), Some(101)); // mem_extra + hop
        let out = drain(&mut fab);
        assert_eq!(out.len(), 1);
        match &out[0].msg {
            Message::Data {
                line, exclusive, ..
            } => {
                assert_eq!(*line, LineAddr(4));
                assert!(*exclusive, "first reader gets E state");
            }
            m => panic!("unexpected {m:?}"),
        }
        assert!(d.store().get(LineAddr(4)).unwrap().has_sharer(1));
        assert_eq!(d.stats().l2_misses, 1);
    }

    #[test]
    fn second_read_downgrades_owner_and_shares() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        // First reader became the E-state owner.
        assert!(d.store().get(LineAddr(4)).unwrap().dirty);
        handle(
            &mut d,
            200,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(
            out[0].msg,
            Message::Fetch {
                for_excl: false,
                ..
            }
        ));
        assert_eq!(out[0].dst, NodeId::Core(1));
        handle(
            &mut d,
            210,
            env(
                NodeId::Core(1),
                Message::FetchResp {
                    line: LineAddr(4),
                    dirty: false,
                    had_line: true,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        match &out[0].msg {
            Message::Data { exclusive, .. } => assert!(!*exclusive),
            m => panic!("unexpected {m:?}"),
        }
        let e = d.store().get(LineAddr(4)).unwrap();
        assert!(!e.dirty, "downgraded");
        assert!(e.has_sharer(1) && e.has_sharer(2));
    }

    #[test]
    fn read_excl_invalidates_sharers_then_grants() {
        let (mut d, mut fab) = setup();
        share(&mut d, &mut fab, &[1, 2], LineAddr(4));
        handle(
            &mut d,
            10,
            env(NodeId::Core(3), Message::ReadExcl { line: LineAddr(4) }),
            &mut fab,
        );
        let invs = drain(&mut fab);
        let inv_dsts: Vec<NodeId> = invs
            .iter()
            .filter(|e| matches!(e.msg, Message::Inv { .. }))
            .map(|e| e.dst)
            .collect();
        assert_eq!(inv_dsts, vec![NodeId::Core(1), NodeId::Core(2)]);
        // Acks arrive; data goes to requester with M rights.
        handle(
            &mut d,
            20,
            env(
                NodeId::Core(1),
                Message::InvAck {
                    line: LineAddr(4),
                    dirty: false,
                },
            ),
            &mut fab,
        );
        assert!(drain(&mut fab).is_empty(), "still one ack outstanding");
        handle(
            &mut d,
            21,
            env(
                NodeId::Core(2),
                Message::InvAck {
                    line: LineAddr(4),
                    dirty: false,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(
            out[0].msg,
            Message::Data {
                exclusive: true,
                ..
            }
        ));
        let e = d.store().get(LineAddr(4)).unwrap();
        assert!(e.dirty);
        assert_eq!(e.sharer_list(), vec![3]);
    }

    #[test]
    fn read_to_dirty_line_fetches_from_owner() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadExcl { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        handle(
            &mut d,
            10,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(
            out[0].msg,
            Message::Fetch {
                for_excl: false,
                ..
            }
        ));
        assert_eq!(out[0].dst, NodeId::Core(1));
        handle(
            &mut d,
            20,
            env(
                NodeId::Core(1),
                Message::FetchResp {
                    line: LineAddr(4),
                    dirty: true,
                    had_line: true,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(
            out[0].msg,
            Message::Data {
                exclusive: false,
                ..
            }
        ));
        let e = d.store().get(LineAddr(4)).unwrap();
        assert!(!e.dirty, "downgraded after sharing");
        assert!(e.has_sharer(1) && e.has_sharer(2));
    }

    #[test]
    fn false_owner_fetch_served_from_memory() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadExcl { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        handle(
            &mut d,
            10,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        // Owner silently lost the line (§4.3.1's graceful case).
        handle(
            &mut d,
            20,
            env(
                NodeId::Core(1),
                Message::FetchResp {
                    line: LineAddr(4),
                    dirty: false,
                    had_line: false,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(
            out[0].msg,
            Message::Data {
                exclusive: false,
                ..
            }
        ));
        let e = d.store().get(LineAddr(4)).unwrap();
        assert!(!e.has_sharer(1), "false owner dropped");
        assert!(e.has_sharer(2));
    }

    #[test]
    fn busy_line_nacks() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadExcl { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        handle(
            &mut d,
            5,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab); // fetch to owner in flight
        handle(
            &mut d,
            6,
            env(NodeId::Core(3), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::Nack { .. }));
        assert_eq!(d.stats().nacks, 1);
    }

    #[test]
    fn upgrade_with_no_other_sharers_is_immediate() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        // Clear the E-owner bit as a writeback does, leaving a plain
        // shared copy at core 1.
        handle(
            &mut d,
            5,
            env(
                NodeId::Core(1),
                Message::Writeback {
                    line: LineAddr(4),
                    keep_shared: true,
                },
            ),
            &mut fab,
        );
        handle(
            &mut d,
            10,
            env(NodeId::Core(1), Message::Upgrade { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::UpgradeAck { .. }));
        assert!(d.store().get(LineAddr(4)).unwrap().dirty);
    }

    #[test]
    fn upgrade_when_not_sharer_nacks() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::Upgrade { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::Nack { .. }));
    }

    #[test]
    fn writeback_clears_dirty_and_keeps_sharer_when_asked() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadExcl { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        handle(
            &mut d,
            10,
            env(
                NodeId::Core(1),
                Message::Writeback {
                    line: LineAddr(4),
                    keep_shared: true,
                },
            ),
            &mut fab,
        );
        let e = d.store().get(LineAddr(4)).unwrap();
        assert!(!e.dirty);
        assert!(e.has_sharer(1));
        // Eviction variant drops the sharer and the idle entry.
        handle(
            &mut d,
            20,
            env(
                NodeId::Core(1),
                Message::Writeback {
                    line: LineAddr(4),
                    keep_shared: false,
                },
            ),
            &mut fab,
        );
        // Not dirty anymore so the second writeback is stale; force dirty
        // again to exercise the eviction path.
        handle(
            &mut d,
            30,
            env(NodeId::Core(1), Message::ReadExcl { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        handle(
            &mut d,
            40,
            env(
                NodeId::Core(1),
                Message::Writeback {
                    line: LineAddr(4),
                    keep_shared: false,
                },
            ),
            &mut fab,
        );
        assert!(d.store().get(LineAddr(4)).is_none(), "idle entry dropped");
    }

    fn wsig_of(lines: &[u64]) -> Box<TrackedSig> {
        let mut s = TrackedSig::new(&SignatureConfig::default(), SigMode::Bloom);
        for &l in lines {
            s.insert(LineAddr(l));
        }
        Box::new(s)
    }

    #[test]
    fn commit_with_no_sharers_is_done_immediately() {
        let (mut d, mut fab) = setup();
        let chunk = ChunkTag { core: 0, seq: 1 };
        handle(
            &mut d,
            0,
            env(
                NodeId::Arbiter(0),
                Message::WSigToDir {
                    chunk,
                    w: wsig_of(&[4]),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::DirDone { .. }));
        assert_eq!(out[0].dst, NodeId::Arbiter(0));
        assert_eq!(d.committing_count(), 0);
    }

    #[test]
    fn commit_invalidates_sharers_and_disables_reads_until_acked() {
        let (mut d, mut fab) = setup();
        // Cores 0 (committer) and 1 both read line 4.
        share(&mut d, &mut fab, &[0, 1], LineAddr(4));
        let chunk = ChunkTag { core: 0, seq: 1 };
        handle(
            &mut d,
            10,
            env(
                NodeId::Arbiter(0),
                Message::WSigToDir {
                    chunk,
                    w: wsig_of(&[4]),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        let wsiginv: Vec<&Envelope> = out
            .iter()
            .filter(|e| {
                matches!(
                    e.msg,
                    Message::WSigInv {
                        needs_ack: true,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(wsiginv.len(), 1);
        assert_eq!(wsiginv[0].dst, NodeId::Core(1));
        assert_eq!(d.committing_count(), 1);

        // While committing, reads to line 4 bounce (§4.3.2).
        handle(
            &mut d,
            15,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::Nack { .. }));

        // Ack re-enables and completes.
        handle(
            &mut d,
            20,
            env(NodeId::Core(1), Message::WSigInvAck { chunk }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::DirDone { .. }));
        assert_eq!(d.committing_count(), 0);

        // Directory state: committer owns the line.
        let e = d.store().get(LineAddr(4)).unwrap();
        assert!(e.dirty);
        assert_eq!(e.sharer_list(), vec![0]);

        // And reads now succeed again.
        handle(
            &mut d,
            30,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(
            matches!(out[0].msg, Message::Fetch { .. }),
            "fetched from new owner"
        );
    }

    #[test]
    fn priv_sig_invalidates_stale_copies_without_disabling() {
        let (mut d, mut fab) = setup();
        share(&mut d, &mut fab, &[0, 1], LineAddr(4));
        let chunk = ChunkTag { core: 0, seq: 1 };
        handle(
            &mut d,
            10,
            env(
                NodeId::Core(0),
                Message::PrivSigToDir {
                    chunk,
                    w: wsig_of(&[4]),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(
            out[0].msg,
            Message::WSigInv {
                needs_ack: false,
                ..
            }
        ));
        assert_eq!(
            d.committing_count(),
            0,
            "no access disabling for private data"
        );
        assert_eq!(d.stats().priv_sigs, 1);
    }

    #[test]
    fn dir_cache_displacement_notifies_sharers() {
        let cfg = DirConfig {
            organization: DirOrganization::Cache { sets: 1, assoc: 1 },
            ..DirConfig::default()
        };
        let mut d = Directory::new(NodeId::Dir(0), cfg);
        let mut fab = Fabric::new(FabricConfig { hop_latency: 1 });
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        drain(&mut fab);
        handle(
            &mut d,
            10,
            env(NodeId::Core(2), Message::ReadShared { line: LineAddr(8) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        let disp: Vec<&Envelope> = out
            .iter()
            .filter(|e| matches!(e.msg, Message::DisplaceSig { .. }))
            .collect();
        assert_eq!(disp.len(), 1);
        assert_eq!(disp[0].dst, NodeId::Core(1));
        match &disp[0].msg {
            Message::DisplaceSig { line, sig } => {
                assert_eq!(*line, LineAddr(4));
                assert!(sig.contains(LineAddr(4)));
            }
            _ => unreachable!(),
        }
        assert_eq!(d.stats().dir_displacements, 1);
    }

    #[test]
    fn stats_accumulate() {
        let (mut d, mut fab) = setup();
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadShared { line: LineAddr(4) }),
            &mut fab,
        );
        handle(
            &mut d,
            0,
            env(NodeId::Core(1), Message::ReadExcl { line: LineAddr(8) }),
            &mut fab,
        );
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().read_excls, 1);
    }
}
