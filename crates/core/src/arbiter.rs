//! The commit arbiter (paper §4.2).
//!
//! The arbiter enforces the minimum serialization chunk commit needs: it
//! keeps the W signatures of all currently-committing chunks and grants a
//! permission-to-commit request only if the chunk's R and W signatures are
//! disjoint from every W in the list. Granted W signatures are forwarded
//! to the relevant directories; when every directory reports its
//! invalidations complete, the W leaves the list.
//!
//! The same component serves as a *range arbiter* in the distributed
//! design of §4.2.3: the G-arbiter sends it `ArbCheck`/`ArbRelease`
//! messages for multi-range commits, while single-range commits still
//! arrive as ordinary `CommitReq`s.
//!
//! Implemented here as well:
//!
//! * the **RSig optimization** (§4.2.2): requests carry only W; the R
//!   signature is demanded only when the W list is non-empty;
//! * **pre-arbitration** (§3.3): a starving processor asks for permission
//!   to execute, and the arbiter rejects other commit requests until that
//!   processor's own commit request arrives.

use std::collections::HashMap;

use bulksc_net::{ChunkTag, Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::TrackedSig;
use bulksc_stats::{Histogram, TimeWeighted};
use bulksc_trace::{ConflictAttr, Event, TraceHandle};

/// Arbiter event counters (Table 4's arbiter columns).
#[derive(Clone, Debug, Default)]
pub struct ArbStats {
    /// Permission-to-commit requests received (first contact only, not
    /// RSig follow-ups).
    pub requests: u64,
    /// Requests granted.
    pub grants: u64,
    /// Requests denied (collision with a committing W, or pre-arbitration
    /// lockout).
    pub denials: u64,
    /// Grants whose W signature was empty (private-only chunks, §5).
    pub empty_w_grants: u64,
    /// Requests that needed the R signature fetched (RSig optimization
    /// fallback).
    pub rsig_required: u64,
    /// Time-weighted occupancy of the W list.
    pub pending_w: TimeWeighted,
    /// Most W signatures ever in the list at once.
    pub pending_w_peak: u64,
    /// Pre-arbitration grants issued.
    pub prearbs: u64,
    /// Directory-update latency of granted commits: grant issued to the
    /// last DirDone (the W signature's time in the list).
    pub dir_update_latency: Histogram,
}

#[derive(Debug)]
struct CommitTrack {
    dirs_left: u32,
    /// Where the final completion/done notification goes: the core for
    /// ordinary commits, the G-arbiter for multi-range commits.
    report_to: NodeId,
    /// Cycle the commit was granted (or, for range commits, released),
    /// for the directory-update latency histogram.
    granted_at: Cycle,
}

#[derive(Debug)]
struct WaitingRsig {
    w: Box<TrackedSig>,
}

/// A commit arbiter module.
#[derive(Debug)]
pub struct Arbiter {
    id: NodeId,
    /// Extra latency of an arbitration decision.
    arb_latency: Cycle,
    /// Directories this arbiter forwards W signatures to.
    my_dirs: Vec<u32>,
    /// Total directories in the machine (for δ-routing of signatures).
    num_dirs: u32,
    /// W signatures of currently-committing chunks.
    w_list: Vec<(ChunkTag, TrackedSig)>,
    /// In-flight granted commits awaiting directory completion.
    commits: HashMap<ChunkTag, CommitTrack>,
    /// Requests parked while their R signature is fetched.
    waiting_rsig: HashMap<ChunkTag, WaitingRsig>,
    /// Pre-arbitration: the core currently holding execute permission.
    prearb: Option<u32>,
    /// Cores queued for pre-arbitration.
    prearb_queue: Vec<u32>,
    /// Conflict-attribution forensics: denials name the colliding
    /// committing chunk and its witness lines (off by default).
    xray: bool,
    stats: ArbStats,
    trace: TraceHandle,
}

impl Arbiter {
    /// An arbiter answering as `id`, forwarding W signatures to `my_dirs`
    /// out of `num_dirs` total directory modules.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not [`NodeId::Arbiter`].
    pub fn new(id: NodeId, arb_latency: Cycle, my_dirs: Vec<u32>, num_dirs: u32) -> Self {
        assert!(
            matches!(id, NodeId::Arbiter(_)),
            "arbiter id must be NodeId::Arbiter"
        );
        Arbiter {
            id,
            arb_latency,
            my_dirs,
            num_dirs,
            w_list: Vec::new(),
            commits: HashMap::new(),
            waiting_rsig: HashMap::new(),
            prearb: None,
            prearb_queue: Vec::new(),
            xray: false,
            stats: ArbStats::default(),
            trace: TraceHandle::off(),
        }
    }

    /// Route this arbiter's grant/deny events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Enable conflict-attribution forensics on deny events.
    pub fn set_xray(&mut self, on: bool) {
        self.xray = on;
    }

    /// This module's network id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Event counters.
    pub fn stats(&self) -> &ArbStats {
        &self.stats
    }

    /// Close the statistics window at simulation end.
    pub fn finish_stats(&mut self, end: Cycle) {
        self.stats.pending_w.finish(end);
    }

    /// Number of W signatures currently in the list.
    pub fn pending(&self) -> usize {
        self.w_list.len()
    }

    /// Requests queued but not yet decided: parked RSig fetches plus the
    /// pre-arbitration queue (an interval-sampler gauge).
    pub fn queue_depth(&self) -> usize {
        self.waiting_rsig.len() + self.prearb_queue.len()
    }

    fn note_occupancy(&mut self, now: Cycle) {
        self.stats.pending_w.set(now, self.w_list.len() as f64);
        self.stats.pending_w_peak = self.stats.pending_w_peak.max(self.w_list.len() as u64);
    }

    /// True if `w`/`r` collide with any currently-committing W signature.
    fn collides(&self, w: &TrackedSig, r: Option<&TrackedSig>) -> bool {
        self.first_collider(w, r).is_some()
    }

    /// The first committing W-list entry colliding with `w`/`r` — the
    /// aggressor an xray denial is attributed to.
    fn first_collider(
        &self,
        w: &TrackedSig,
        r: Option<&TrackedSig>,
    ) -> Option<&(ChunkTag, TrackedSig)> {
        self.w_list.iter().find(|(_, committing)| {
            committing.intersects(w) || r.map(|r| committing.intersects(r)).unwrap_or(false)
        })
    }

    /// Attribution payload for a collision denial: the first colliding
    /// committing chunk plus the exact-shadow lines it shares with the
    /// denied request. `None` when xray is off or nothing collides.
    fn deny_attr(&self, w: &TrackedSig, r: Option<&TrackedSig>) -> Option<ConflictAttr> {
        if !self.xray {
            return None;
        }
        const CAP: usize = bulksc_trace::XRAY_WITNESS_CAP;
        let (tag, committing) = self.first_collider(w, r)?;
        let mut witnesses: Vec<u64> = committing
            .exact_witnesses(w, CAP)
            .iter()
            .map(|l| l.0)
            .collect();
        if let Some(r) = r {
            witnesses.extend(committing.exact_witnesses(r, CAP).iter().map(|l| l.0));
        }
        witnesses.sort_unstable();
        witnesses.dedup();
        witnesses.truncate(CAP);
        Some(ConflictAttr {
            agg_core: Some(tag.core),
            agg_seq: Some(tag.seq),
            site: "arb",
            witnesses,
        })
    }

    /// Process one incoming message.
    ///
    /// # Panics
    ///
    /// Panics on messages an arbiter can never receive.
    pub fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Arbiter);
        match env.msg {
            Message::CommitReq { chunk, w, r } => self.commit_req(now, env.src, chunk, w, r, fab),
            Message::RSigResp { chunk, r } => self.rsig_resp(now, env.src, chunk, r, fab),
            Message::DirDone { chunk } => self.dir_done(now, chunk, fab),
            Message::PreArbReq => self.prearb_req(now, env.src, fab),
            Message::ArbCheck { chunk, w, r } => self.arb_check(now, env.src, chunk, w, r, fab),
            Message::ArbRelease { chunk, commit } => {
                self.arb_release(now, env.src, chunk, commit, fab)
            }
            other => panic!("arbiter received unexpected message {other:?}"),
        }
    }

    fn core_index(src: NodeId) -> u32 {
        match src {
            NodeId::Core(c) => c,
            other => panic!("expected a core, got {other:?}"),
        }
    }

    fn commit_req(
        &mut self,
        now: Cycle,
        src: NodeId,
        chunk: ChunkTag,
        w: Box<TrackedSig>,
        r: Option<Box<TrackedSig>>,
        fab: &mut Fabric,
    ) {
        let core = Self::core_index(src);
        self.stats.requests += 1;

        // Pre-arbitration: the starved core's own request ends the episode.
        if self.prearb == Some(core) {
            self.prearb = None;
            if let Some(next) = self.prearb_queue.first().copied() {
                self.prearb_queue.remove(0);
                self.grant_prearb(now, next, fab);
            }
        } else if self.prearb.is_some() {
            self.stats.denials += 1;
            // A pre-arbitration lockout has no colliding signature: the
            // aggressor is the starved core holding execute permission.
            let attr = self.xray.then(|| ConflictAttr {
                agg_core: self.prearb,
                agg_seq: None,
                site: "prearb",
                witnesses: Vec::new(),
            });
            self.trace.emit(now, || Event::CommitDeny {
                core: chunk.core,
                seq: chunk.seq,
                xray: attr.map(Box::new),
            });
            fab.send_delayed(
                now,
                self.arb_latency,
                self.id,
                src,
                Message::CommitResp { chunk, ok: false },
            );
            return;
        }

        if self.w_list.is_empty() {
            // Fast path (enables the RSig optimization): nothing to check
            // against, grant immediately.
            self.grant(now, core, chunk, *w, fab);
            return;
        }
        let Some(r) = r else {
            // RSig optimization fallback: the list is non-empty and the R
            // signature was omitted; fetch it.
            self.stats.rsig_required += 1;
            self.waiting_rsig.insert(chunk, WaitingRsig { w });
            fab.send_delayed(
                now,
                self.arb_latency,
                self.id,
                src,
                Message::RSigReq { chunk },
            );
            return;
        };
        self.decide(now, core, chunk, *w, &r, fab);
    }

    fn rsig_resp(
        &mut self,
        now: Cycle,
        src: NodeId,
        chunk: ChunkTag,
        r: Box<TrackedSig>,
        fab: &mut Fabric,
    ) {
        let core = Self::core_index(src);
        let Some(parked) = self.waiting_rsig.remove(&chunk) else {
            return; // core retried in the meantime; stale response
        };
        if self.w_list.is_empty() {
            self.grant(now, core, chunk, *parked.w, fab);
        } else {
            self.decide(now, core, chunk, *parked.w, &r, fab);
        }
    }

    fn decide(
        &mut self,
        now: Cycle,
        core: u32,
        chunk: ChunkTag,
        w: TrackedSig,
        r: &TrackedSig,
        fab: &mut Fabric,
    ) {
        if self.collides(&w, Some(r)) {
            self.stats.denials += 1;
            let attr = self.deny_attr(&w, Some(r));
            self.trace.emit(now, || Event::CommitDeny {
                core: chunk.core,
                seq: chunk.seq,
                xray: attr.map(Box::new),
            });
            fab.send_delayed(
                now,
                self.arb_latency,
                self.id,
                NodeId::Core(core),
                Message::CommitResp { chunk, ok: false },
            );
        } else {
            self.grant(now, core, chunk, w, fab);
        }
    }

    /// Grant the commit: reply, forward W to the relevant directories,
    /// and track completion.
    fn grant(&mut self, now: Cycle, core: u32, chunk: ChunkTag, w: TrackedSig, fab: &mut Fabric) {
        self.stats.grants += 1;
        self.trace.emit(now, || Event::CommitGrant {
            core: chunk.core,
            seq: chunk.seq,
        });
        fab.send_delayed(
            now,
            self.arb_latency,
            self.id,
            NodeId::Core(core),
            Message::CommitResp { chunk, ok: true },
        );
        let dirs = self.target_dirs(&w);
        if w.is_empty() {
            self.stats.empty_w_grants += 1;
        }
        if w.is_empty() || dirs.is_empty() {
            // Nothing to invalidate anywhere: complete immediately. An
            // empty W never enters the list (§5), which is what keeps the
            // list empty most of the time.
            fab.send_delayed(
                now,
                self.arb_latency,
                self.id,
                NodeId::Core(core),
                Message::CommitComplete { chunk },
            );
            return;
        }
        self.w_list.push((chunk, w.clone()));
        self.note_occupancy(now);
        self.commits.insert(
            chunk,
            CommitTrack {
                dirs_left: dirs.len() as u32,
                report_to: NodeId::Core(core),
                granted_at: now,
            },
        );
        for d in dirs {
            fab.send_delayed(
                now,
                self.arb_latency,
                self.id,
                NodeId::Dir(d),
                Message::WSigToDir {
                    chunk,
                    w: Box::new(w.clone()),
                },
            );
        }
    }

    /// The directories (among this arbiter's) whose address slices may
    /// contain lines of `w`, by δ-decoding the signature.
    fn target_dirs(&self, w: &TrackedSig) -> Vec<u32> {
        if w.is_empty() {
            return Vec::new();
        }
        if self.num_dirs == 1 {
            return self.my_dirs.clone();
        }
        w.decode_sets(self.num_dirs)
            .into_iter()
            .filter(|d| self.my_dirs.contains(d))
            .collect()
    }

    fn dir_done(&mut self, now: Cycle, chunk: ChunkTag, fab: &mut Fabric) {
        let Some(track) = self.commits.get_mut(&chunk) else {
            return;
        };
        track.dirs_left -= 1;
        if track.dirs_left > 0 {
            return;
        }
        let track = self.commits.remove(&chunk).expect("checked above");
        self.stats
            .dir_update_latency
            .record(now.saturating_sub(track.granted_at));
        self.w_list.retain(|(t, _)| *t != chunk);
        self.note_occupancy(now);
        let msg = match track.report_to {
            NodeId::GArbiter => Message::ArbDone { chunk },
            _ => Message::CommitComplete { chunk },
        };
        fab.send(now, self.id, track.report_to, msg);
    }

    fn prearb_req(&mut self, now: Cycle, src: NodeId, fab: &mut Fabric) {
        let core = Self::core_index(src);
        if self.prearb.is_none() {
            self.grant_prearb(now, core, fab);
        } else if self.prearb != Some(core) && !self.prearb_queue.contains(&core) {
            self.prearb_queue.push(core);
        }
    }

    fn grant_prearb(&mut self, now: Cycle, core: u32, fab: &mut Fabric) {
        self.prearb = Some(core);
        self.stats.prearbs += 1;
        fab.send_delayed(
            now,
            self.arb_latency,
            self.id,
            NodeId::Core(core),
            Message::PreArbGrant,
        );
    }

    // ------------------------------------------------------------------
    // Range-arbiter duties for the distributed design (§4.2.3).
    // ------------------------------------------------------------------

    fn arb_check(
        &mut self,
        now: Cycle,
        src: NodeId,
        chunk: ChunkTag,
        w: Box<TrackedSig>,
        r: Option<Box<TrackedSig>>,
        fab: &mut Fabric,
    ) {
        let ok = !self.collides(&w, r.as_deref());
        if ok && !w.is_empty() {
            // Reserve: the W joins the list so overlapping requests at
            // this arbiter are denied while the G-arbiter coordinates.
            self.w_list.push((chunk, *w));
            self.note_occupancy(now);
        }
        fab.send_delayed(
            now,
            self.arb_latency,
            self.id,
            src,
            Message::ArbCheckResp { chunk, ok },
        );
    }

    fn arb_release(
        &mut self,
        now: Cycle,
        src: NodeId,
        chunk: ChunkTag,
        commit: bool,
        fab: &mut Fabric,
    ) {
        if !commit {
            self.w_list.retain(|(t, _)| *t != chunk);
            self.note_occupancy(now);
            return;
        }
        // Proceed: forward the reserved W to this arbiter's directories.
        let Some((_, w)) = self.w_list.iter().find(|(t, _)| *t == chunk).cloned() else {
            // Reservation carried an empty W: nothing to forward here.
            fab.send(now, self.id, src, Message::ArbDone { chunk });
            return;
        };
        let dirs = self.target_dirs(&w);
        if dirs.is_empty() {
            self.w_list.retain(|(t, _)| *t != chunk);
            self.note_occupancy(now);
            fab.send(now, self.id, src, Message::ArbDone { chunk });
            return;
        }
        self.commits.insert(
            chunk,
            CommitTrack {
                dirs_left: dirs.len() as u32,
                report_to: src,
                granted_at: now,
            },
        );
        for d in dirs {
            fab.send(
                now,
                self.id,
                NodeId::Dir(d),
                Message::WSigToDir {
                    chunk,
                    w: Box::new(w.clone()),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_net::FabricConfig;
    use bulksc_sig::{LineAddr, SigMode, SignatureConfig};

    fn sig(lines: &[u64]) -> Box<TrackedSig> {
        let mut s = TrackedSig::new(&SignatureConfig::default(), SigMode::Bloom);
        for &l in lines {
            s.insert(LineAddr(l));
        }
        Box::new(s)
    }

    fn setup() -> (Arbiter, Fabric) {
        (
            Arbiter::new(NodeId::Arbiter(0), 10, vec![0], 1),
            Fabric::new(FabricConfig { hop_latency: 1 }),
        )
    }

    fn env(src: NodeId, msg: Message) -> Envelope {
        Envelope {
            src,
            dst: NodeId::Arbiter(0),
            msg,
        }
    }

    fn drain(fab: &mut Fabric) -> Vec<Envelope> {
        let mut out = Vec::new();
        fab.deliver_due(u64::MAX / 2, &mut out);
        out
    }

    fn tag(core: u32, seq: u64) -> ChunkTag {
        ChunkTag { core, seq }
    }

    #[test]
    fn empty_list_grants_without_r() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: true, .. }));
        // W forwarded to the directory.
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, Message::WSigToDir { .. })));
        assert_eq!(a.pending(), 1);
        assert_eq!(a.stats().rsig_required, 0);
    }

    #[test]
    fn empty_w_completes_immediately_and_skips_list() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::Core(2),
                Message::CommitReq {
                    chunk: tag(2, 1),
                    w: sig(&[]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: true, .. }));
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, Message::CommitComplete { .. })));
        assert_eq!(a.pending(), 0);
        assert_eq!(a.stats().empty_w_grants, 1);
    }

    #[test]
    fn nonempty_list_demands_rsig_then_decides() {
        let (mut a, mut fab) = setup();
        // First chunk holds the list.
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        // Second chunk: W disjoint, R must be demanded.
        a.handle(
            10,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: tag(1, 1),
                    w: sig(&[50]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::RSigReq { .. }));
        assert_eq!(a.stats().rsig_required, 1);
        // R arrives, disjoint => grant (overlapping commits of disjoint
        // write sets are allowed, §3.2.2).
        a.handle(
            20,
            env(
                NodeId::Core(1),
                Message::RSigResp {
                    chunk: tag(1, 1),
                    r: sig(&[60]),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: true, .. }));
        assert_eq!(a.pending(), 2);
    }

    #[test]
    fn colliding_r_is_denied() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        // Second chunk read line 1, which is being committed: deny (this
        // is the Figure 4(b) corner-case rule).
        a.handle(
            10,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: tag(1, 1),
                    w: sig(&[]),
                    r: Some(sig(&[1])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: false, .. }));
        assert_eq!(a.stats().denials, 1);
    }

    #[test]
    fn colliding_w_is_denied() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        a.handle(
            10,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: tag(1, 1),
                    w: sig(&[1]),
                    r: Some(sig(&[])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: false, .. }));
    }

    #[test]
    fn dir_done_releases_w_and_completes() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        assert_eq!(a.pending(), 1);
        a.handle(
            20,
            env(NodeId::Dir(0), Message::DirDone { chunk: tag(0, 1) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitComplete { .. }));
        assert_eq!(out[0].dst, NodeId::Core(0));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn prearbitration_locks_out_other_commits() {
        let (mut a, mut fab) = setup();
        a.handle(0, env(NodeId::Core(3), Message::PreArbReq), &mut fab);
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::PreArbGrant));
        assert_eq!(out[0].dst, NodeId::Core(3));
        // Another core's commit is denied while core 3 holds permission.
        a.handle(
            10,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 9),
                    w: sig(&[]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: false, .. }));
        // Core 3's own commit ends the episode and is processed normally.
        a.handle(
            20,
            env(
                NodeId::Core(3),
                Message::CommitReq {
                    chunk: tag(3, 1),
                    w: sig(&[]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: true, .. }));
        // And other cores can commit again.
        a.handle(
            30,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 10),
                    w: sig(&[]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: true, .. }));
    }

    #[test]
    fn prearb_queue_hands_over() {
        let (mut a, mut fab) = setup();
        a.handle(0, env(NodeId::Core(1), Message::PreArbReq), &mut fab);
        drain(&mut fab);
        a.handle(1, env(NodeId::Core(2), Message::PreArbReq), &mut fab);
        assert!(drain(&mut fab).is_empty(), "queued, not granted");
        a.handle(
            10,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: tag(1, 1),
                    w: sig(&[]),
                    r: None,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, Message::PreArbGrant) && e.dst == NodeId::Core(2)));
    }

    #[test]
    fn range_arbiter_check_reserve_release() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::GArbiter,
                Message::ArbCheck {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: Some(sig(&[2])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::ArbCheckResp { ok: true, .. }));
        assert_eq!(a.pending(), 1, "reservation holds the W");
        // A conflicting direct request is denied while reserved.
        a.handle(
            5,
            env(
                NodeId::Core(2),
                Message::CommitReq {
                    chunk: tag(2, 1),
                    w: sig(&[1]),
                    r: Some(sig(&[])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: false, .. }));
        // Abandon the reservation.
        a.handle(
            10,
            env(
                NodeId::GArbiter,
                Message::ArbRelease {
                    chunk: tag(0, 1),
                    commit: false,
                },
            ),
            &mut fab,
        );
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn range_arbiter_commit_forwards_and_reports_arbdone() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::GArbiter,
                Message::ArbCheck {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        a.handle(
            10,
            env(
                NodeId::GArbiter,
                Message::ArbRelease {
                    chunk: tag(0, 1),
                    commit: true,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, Message::WSigToDir { .. })));
        a.handle(
            20,
            env(NodeId::Dir(0), Message::DirDone { chunk: tag(0, 1) }),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::ArbDone { .. }));
        assert_eq!(out[0].dst, NodeId::GArbiter);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn xray_denial_names_the_aggressor_and_witness_lines() {
        let (mut a, mut fab) = setup();
        a.set_xray(true);
        let jsonl = bulksc_trace::JsonlTracer::shared();
        let mut trace = TraceHandle::off();
        trace.attach(jsonl.clone());
        a.set_tracer(trace);
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 7),
                    w: sig(&[1, 2]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        // Core 1 wrote line 2 and read line 1: both witness the conflict
        // with core 0's committing chunk.
        a.handle(
            10,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: tag(1, 3),
                    w: sig(&[2]),
                    r: Some(sig(&[1])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: false, .. }));
        let text = jsonl.borrow().contents().to_string();
        assert!(
            text.contains("\"agg_core\":0,\"agg_seq\":7,\"site\":\"arb\",\"witness\":[1,2]"),
            "deny event should carry attribution: {text}"
        );
    }

    #[test]
    fn occupancy_statistics() {
        let (mut a, mut fab) = setup();
        a.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(0, 1),
                    w: sig(&[1]),
                    r: None,
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        a.handle(
            100,
            env(NodeId::Dir(0), Message::DirDone { chunk: tag(0, 1) }),
            &mut fab,
        );
        a.finish_stats(200);
        assert!(a.stats().pending_w.nonzero_fraction() > 0.4);
        assert!(a.stats().pending_w.nonzero_fraction() < 0.6);
    }
}
