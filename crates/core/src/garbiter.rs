//! The global arbiter (G-arbiter) of the distributed design (§4.2.3,
//! Figure 8(b)).
//!
//! Chunks that accessed several address ranges cannot be decided by one
//! range arbiter's partial W list. The core sends such commits to the
//! G-arbiter, which fans `ArbCheck`s out to the involved range arbiters,
//! combines their verdicts, and either releases the reserved commit
//! everywhere or abandons it.
//!
//! The paper's speed-up option is also implemented: the G-arbiter keeps
//! copies of the W signatures of multi-range commits in flight, so a
//! colliding request can be denied immediately without a round trip.

use std::collections::HashMap;

use bulksc_net::{ChunkTag, Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::TrackedSig;
use bulksc_trace::{ConflictAttr, Event, TraceHandle};

/// G-arbiter event counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GArbStats {
    /// Multi-range commit requests received.
    pub requests: u64,
    /// Requests denied by the local fast W check (no fan-out needed).
    pub fast_denials: u64,
    /// Requests granted after all range arbiters agreed.
    pub grants: u64,
    /// Requests denied because some range arbiter saw a collision.
    pub denials: u64,
}

#[derive(Debug)]
struct GTrack {
    core: u32,
    arbs: Vec<u32>,
    verdicts_left: u32,
    any_nok: bool,
    /// Set once decided; `done_left` then counts ArbDones.
    done_left: u32,
}

/// The coordinator of multi-range commits.
#[derive(Debug)]
pub struct GArbiter {
    arb_latency: Cycle,
    num_arbiters: u32,
    /// Fast-denial copies of in-flight multi-range W signatures.
    fast_w: Vec<(ChunkTag, TrackedSig)>,
    pending: HashMap<ChunkTag, GTrack>,
    /// Conflict-attribution forensics on deny events (off by default).
    xray: bool,
    stats: GArbStats,
    trace: TraceHandle,
}

impl GArbiter {
    /// A G-arbiter coordinating `num_arbiters` range arbiters.
    pub fn new(arb_latency: Cycle, num_arbiters: u32) -> Self {
        GArbiter {
            arb_latency,
            num_arbiters,
            fast_w: Vec::new(),
            pending: HashMap::new(),
            xray: false,
            stats: GArbStats::default(),
            trace: TraceHandle::off(),
        }
    }

    /// Route this G-arbiter's grant/deny events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Enable conflict-attribution forensics on deny events.
    pub fn set_xray(&mut self, on: bool) {
        self.xray = on;
    }

    /// Event counters.
    pub fn stats(&self) -> &GArbStats {
        &self.stats
    }

    /// One-line diagnostic snapshot, pending chunks in tag order.
    pub fn debug_state(&self) -> String {
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_unstable_by_key(|&(c, _)| *c);
        format!(
            "garbiter pending={:?} fast_w={}",
            pending
                .iter()
                .map(|(c, tr)| format!(
                    "{c}:v{}d{}nok{}",
                    tr.verdicts_left, tr.done_left, tr.any_nok
                ))
                .collect::<Vec<_>>(),
            self.fast_w.len()
        )
    }

    /// The range arbiters a chunk with signatures `w`, `r` must consult.
    /// A chunk with no memory accesses at all (possible when a chunk
    /// boundary falls inside a long compute stretch) conflicts with
    /// nothing but still needs the commit handshake; it is routed to
    /// range arbiter 0.
    pub fn arbiters_of(w: &TrackedSig, r: &TrackedSig, num_arbiters: u32) -> Vec<u32> {
        let mut set = w.decode_sets(num_arbiters);
        set.extend(r.decode_sets(num_arbiters));
        set.sort_unstable();
        set.dedup();
        if set.is_empty() {
            set.push(0);
        }
        set
    }

    /// Process one incoming message.
    ///
    /// # Panics
    ///
    /// Panics on messages the G-arbiter can never receive.
    pub fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Arbiter);
        match env.msg {
            Message::CommitReq { chunk, w, r } => self.commit_req(now, env.src, chunk, w, r, fab),
            Message::ArbCheckResp { chunk, ok } => self.check_resp(now, chunk, ok, fab),
            Message::ArbDone { chunk } => self.arb_done(now, chunk, fab),
            other => panic!("G-arbiter received unexpected message {other:?}"),
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
        let NodeId::Core(core) = src else {
            panic!("commit requests come from cores, got {src:?}");
        };
        self.stats.requests += 1;
        let r = r.expect("multi-range commits always carry the R signature");

        // Fast denial against locally-known in-flight W signatures.
        if let Some((agg, committing)) = self
            .fast_w
            .iter()
            .find(|(_, committing)| committing.intersects(&w) || committing.intersects(&r))
        {
            self.stats.fast_denials += 1;
            let attr = self.xray.then(|| {
                const CAP: usize = bulksc_trace::XRAY_WITNESS_CAP;
                let mut witnesses: Vec<u64> = committing
                    .exact_witnesses(&w, CAP)
                    .iter()
                    .map(|l| l.0)
                    .collect();
                witnesses.extend(committing.exact_witnesses(&r, CAP).iter().map(|l| l.0));
                witnesses.sort_unstable();
                witnesses.dedup();
                witnesses.truncate(CAP);
                ConflictAttr {
                    agg_core: Some(agg.core),
                    agg_seq: Some(agg.seq),
                    site: "garb-fast",
                    witnesses,
                }
            });
            self.trace.emit(now, || Event::CommitDeny {
                core: chunk.core,
                seq: chunk.seq,
                xray: attr.map(Box::new),
            });
            fab.send_delayed(
                now,
                self.arb_latency,
                NodeId::GArbiter,
                src,
                Message::CommitResp { chunk, ok: false },
            );
            return;
        }

        let arbs = Self::arbiters_of(&w, &r, self.num_arbiters);
        debug_assert!(
            !arbs.is_empty(),
            "a chunk with any access touches some range"
        );
        self.pending.insert(
            chunk,
            GTrack {
                core,
                arbs: arbs.clone(),
                verdicts_left: arbs.len() as u32,
                any_nok: false,
                done_left: 0,
            },
        );
        if !w.is_empty() {
            self.fast_w.push((chunk, (*w).clone()));
        }
        for a in arbs {
            fab.send(
                now,
                NodeId::GArbiter,
                NodeId::Arbiter(a),
                Message::ArbCheck {
                    chunk,
                    w: w.clone(),
                    r: Some(r.clone()),
                },
            );
        }
    }

    fn check_resp(&mut self, now: Cycle, chunk: ChunkTag, ok: bool, fab: &mut Fabric) {
        let Some(track) = self.pending.get_mut(&chunk) else {
            return;
        };
        track.verdicts_left -= 1;
        track.any_nok |= !ok;
        if track.verdicts_left > 0 {
            return;
        }
        let decided_ok = !track.any_nok;
        let track = self.pending.get_mut(&chunk).expect("exists");
        if decided_ok {
            self.stats.grants += 1;
            self.trace.emit(now, || Event::CommitGrant {
                core: chunk.core,
                seq: chunk.seq,
            });
            track.done_left = track.arbs.len() as u32;
            let core = track.core;
            let arbs = track.arbs.clone();
            fab.send_delayed(
                now,
                self.arb_latency,
                NodeId::GArbiter,
                NodeId::Core(core),
                Message::CommitResp { chunk, ok: true },
            );
            for a in arbs {
                fab.send(
                    now,
                    NodeId::GArbiter,
                    NodeId::Arbiter(a),
                    Message::ArbRelease {
                        chunk,
                        commit: true,
                    },
                );
            }
        } else {
            self.stats.denials += 1;
            // The colliding W lives at whichever range arbiter voted no;
            // the G-arbiter sees only the verdict, so no aggressor here.
            let attr = self.xray.then(|| ConflictAttr {
                agg_core: None,
                agg_seq: None,
                site: "garb-vote",
                witnesses: Vec::new(),
            });
            self.trace.emit(now, || Event::CommitDeny {
                core: chunk.core,
                seq: chunk.seq,
                xray: attr.map(Box::new),
            });
            let core = track.core;
            let arbs = track.arbs.clone();
            self.pending.remove(&chunk);
            self.fast_w.retain(|(t, _)| *t != chunk);
            fab.send_delayed(
                now,
                self.arb_latency,
                NodeId::GArbiter,
                NodeId::Core(core),
                Message::CommitResp { chunk, ok: false },
            );
            // Release every reservation (arbiters that denied reserved
            // nothing; the release is idempotent there).
            for a in arbs {
                fab.send(
                    now,
                    NodeId::GArbiter,
                    NodeId::Arbiter(a),
                    Message::ArbRelease {
                        chunk,
                        commit: false,
                    },
                );
            }
        }
    }

    fn arb_done(&mut self, now: Cycle, chunk: ChunkTag, fab: &mut Fabric) {
        let Some(track) = self.pending.get_mut(&chunk) else {
            return;
        };
        track.done_left -= 1;
        if track.done_left > 0 {
            return;
        }
        let track = self.pending.remove(&chunk).expect("exists");
        self.fast_w.retain(|(t, _)| *t != chunk);
        fab.send(
            now,
            NodeId::GArbiter,
            NodeId::Core(track.core),
            Message::CommitComplete { chunk },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_net::FabricConfig;
    use bulksc_sig::{LineAddr, SigMode, SignatureConfig};

    fn sig(lines: &[u64]) -> Box<TrackedSig> {
        let mut s = TrackedSig::new(&SignatureConfig::default(), SigMode::Exact);
        for &l in lines {
            s.insert(LineAddr(l));
        }
        Box::new(s)
    }

    fn env(src: NodeId, msg: Message) -> Envelope {
        Envelope {
            src,
            dst: NodeId::GArbiter,
            msg,
        }
    }

    fn drain(fab: &mut Fabric) -> Vec<Envelope> {
        let mut out = Vec::new();
        fab.deliver_due(u64::MAX / 2, &mut out);
        out
    }

    fn tag(seq: u64) -> ChunkTag {
        ChunkTag { core: 0, seq }
    }

    #[test]
    fn multi_range_fanout_and_grant() {
        let mut g = GArbiter::new(5, 4);
        let mut fab = Fabric::new(FabricConfig { hop_latency: 1 });
        // Lines 0 and 1 live in ranges 0 and 1 (exact signatures).
        g.handle(
            0,
            env(
                NodeId::Core(2),
                Message::CommitReq {
                    chunk: tag(1),
                    w: sig(&[0, 1]),
                    r: Some(sig(&[2])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        let checks: Vec<NodeId> = out
            .iter()
            .filter(|e| matches!(e.msg, Message::ArbCheck { .. }))
            .map(|e| e.dst)
            .collect();
        assert_eq!(
            checks,
            vec![NodeId::Arbiter(0), NodeId::Arbiter(1), NodeId::Arbiter(2)],
            "W ranges 0,1 plus R range 2"
        );
        for a in [0, 1, 2] {
            g.handle(
                10,
                env(
                    NodeId::Arbiter(a),
                    Message::ArbCheckResp {
                        chunk: tag(1),
                        ok: true,
                    },
                ),
                &mut fab,
            );
        }
        let out = drain(&mut fab);
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, Message::CommitResp { ok: true, .. })
                && e.dst == NodeId::Core(2)));
        let releases: Vec<&Envelope> = out
            .iter()
            .filter(|e| matches!(e.msg, Message::ArbRelease { commit: true, .. }))
            .collect();
        assert_eq!(releases.len(), 3);
        // Completion after every arbiter reports done.
        for a in [0, 1, 2] {
            g.handle(
                30,
                env(NodeId::Arbiter(a), Message::ArbDone { chunk: tag(1) }),
                &mut fab,
            );
        }
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitComplete { .. }));
        assert_eq!(g.stats().grants, 1);
    }

    #[test]
    fn one_nok_denies_and_releases() {
        let mut g = GArbiter::new(5, 4);
        let mut fab = Fabric::new(FabricConfig { hop_latency: 1 });
        g.handle(
            0,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: tag(2),
                    w: sig(&[0, 1]),
                    r: Some(sig(&[])),
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        g.handle(
            5,
            env(
                NodeId::Arbiter(0),
                Message::ArbCheckResp {
                    chunk: tag(2),
                    ok: true,
                },
            ),
            &mut fab,
        );
        g.handle(
            6,
            env(
                NodeId::Arbiter(1),
                Message::ArbCheckResp {
                    chunk: tag(2),
                    ok: false,
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(out
            .iter()
            .any(|e| matches!(e.msg, Message::CommitResp { ok: false, .. })));
        let releases: Vec<&Envelope> = out
            .iter()
            .filter(|e| matches!(e.msg, Message::ArbRelease { commit: false, .. }))
            .collect();
        assert_eq!(releases.len(), 2);
        assert_eq!(g.stats().denials, 1);
    }

    #[test]
    fn fast_w_denies_locally() {
        let mut g = GArbiter::new(5, 4);
        let mut fab = Fabric::new(FabricConfig { hop_latency: 1 });
        g.handle(
            0,
            env(
                NodeId::Core(0),
                Message::CommitReq {
                    chunk: tag(3),
                    w: sig(&[0, 1]),
                    r: Some(sig(&[])),
                },
            ),
            &mut fab,
        );
        drain(&mut fab);
        // Second multi-range commit touching line 1 collides with the
        // in-flight fast copy: denied with no fan-out.
        g.handle(
            5,
            env(
                NodeId::Core(1),
                Message::CommitReq {
                    chunk: ChunkTag { core: 1, seq: 1 },
                    w: sig(&[1, 2]),
                    r: Some(sig(&[])),
                },
            ),
            &mut fab,
        );
        let out = drain(&mut fab);
        assert!(matches!(out[0].msg, Message::CommitResp { ok: false, .. }));
        assert!(!out
            .iter()
            .any(|e| matches!(e.msg, Message::ArbCheck { .. })));
        assert_eq!(g.stats().fast_denials, 1);
    }

    #[test]
    fn arbiters_of_unions_ranges() {
        let w = sig(&[0, 4]); // ranges 0, 0 with 4 arbiters => {0}
        let r = sig(&[3]); // range 3
        assert_eq!(GArbiter::arbiters_of(&w, &r, 4), vec![0, 3]);
    }
}
