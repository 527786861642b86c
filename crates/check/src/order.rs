//! Witness-order construction: po ∪ rf ∪ co ∪ fr, its topological sort,
//! and the violation report when the union is cyclic.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use crate::stream::Csr;
use crate::{Access, AccessKind, LifecycleEvent};

/// The memory consistency model the oracle certifies against.
///
/// The checker is model-parametric: both models share the Shasha–Snir
/// machinery (a global happens-before union whose acyclicity is the
/// certificate), they differ only in which program-order and reads-from
/// edges enter the union.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Sequential consistency: the full po ∪ rf ∪ co ∪ fr union.
    #[default]
    Sc,
    /// SPARC/x86 total store order: ppo ∪ rfe ∪ co ∪ fr, where ppo drops
    /// every store → load program-order pair (a FIFO store buffer lets
    /// reads bypass older writes, to *any* address), rfe keeps only
    /// cross-core reads-from edges (a core may read its own buffered
    /// store before it is globally visible), and a separate per-location
    /// coherence scan enforces that each core still sees every address's
    /// write history in order (CoRR/CoWR/CoWW/CoRW).
    Tso,
}

impl MemoryModel {
    /// Display name ("SC" / "TSO"), used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            MemoryModel::Sc => "SC",
            MemoryModel::Tso => "TSO",
        }
    }

    /// The happens-before union this model checks for acyclicity.
    pub fn relation(self) -> &'static str {
        match self {
            MemoryModel::Sc => "po ∪ rf ∪ co ∪ fr",
            MemoryModel::Tso => "ppo ∪ rfe ∪ co ∪ fr",
        }
    }

    /// Parse a CLI flag value (`sc` / `tso`, case-insensitive).
    pub fn parse(s: &str) -> Option<MemoryModel> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Some(MemoryModel::Sc),
            "tso" => Some(MemoryModel::Tso),
            _ => None,
        }
    }
}

/// Which relation an edge of the witness graph came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Program order (same core, consecutive `po`).
    Po,
    /// Reads-from (write → the read that observed its value).
    Rf,
    /// Coherence order (consecutive writes at one address).
    Co,
    /// From-reads (read → the co-successor of the write it read).
    Fr,
}

impl EdgeKind {
    fn label(self) -> &'static str {
        match self {
            EdgeKind::Po => "po",
            EdgeKind::Rf => "rf",
            EdgeKind::Co => "co",
            EdgeKind::Fr => "fr",
        }
    }
}

/// How an execution failed the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// po ∪ rf ∪ co ∪ fr is cyclic: no SC interleaving explains the
    /// observed values.
    Cycle,
    /// A read observed a value no write at that address ever published
    /// (and the address starts at 0, so it is not the initial value).
    UnsourcedRead,
    /// A read-modify-write was not atomic: another write intervened
    /// between its read and its write in coherence order.
    TornRmw,
    /// Streaming mode only: a read observed a value that was already
    /// overwritten inside the certified witness prefix — it is stale by
    /// more than a checking window, so no SC interleaving extending the
    /// prefix can satisfy it.
    StaleRead,
    /// TSO only: per-location SC (CoRR/CoWR/CoWW/CoRW) broken — a core
    /// saw one address's write history out of coherence order. TSO keeps
    /// coherence even though it relaxes store → load program order.
    Coherence,
}

/// The oracle's finding when an execution is *not* SC.
#[derive(Clone, Debug)]
pub struct ScViolation {
    /// What kind of violation this is.
    pub kind: ViolationKind,
    /// The minimal offending access set. For [`ViolationKind::Cycle`]
    /// this is a simple cycle: access `i` has an edge to access
    /// `i + 1 (mod len)`.
    pub accesses: Vec<Access>,
    /// For cycles: the relation each edge came from (`edges[i]` connects
    /// `accesses[i]` to its successor). Empty otherwise.
    pub edges: Vec<EdgeKind>,
    /// Human-readable report with chunk-lifecycle context.
    pub report: String,
}

impl fmt::Display for ScViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report)
    }
}

/// Why the oracle could not run or could not certify.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// The trace itself is ill-formed (duplicate program-order index,
    /// internal replay mismatch): the oracle's input invariants do not
    /// hold, so no verdict is possible.
    Malformed(String),
    /// The execution is not sequentially consistent.
    Violation(Box<ScViolation>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Malformed(m) => write!(f, "malformed value trace: {m}"),
            CheckError::Violation(v) => f.write_str(&v.report),
        }
    }
}

impl std::error::Error for CheckError {}

/// Proof that an execution is SC: counters, the final memory the
/// witness reaches, and, for a batch check, the witness itself.
#[derive(Clone, Debug)]
pub struct ScCertificate {
    /// The model the execution was certified against.
    pub model: MemoryModel,
    /// Accesses verified.
    pub accesses: usize,
    /// Witness edges constructed (po + rf + co + fr, including edges
    /// whose source was already placed when the sink arrived).
    pub edges: usize,
    /// Reads whose rf source was ambiguous (several live writes published
    /// the same value at that address): their rf/fr edges were skipped.
    pub ambiguous_reads: usize,
    /// Windows sealed (including the final partial one).
    pub windows: u64,
    /// Peak live (unplaced) access count across all seals — the memory
    /// bound actually achieved, ≤ 2 windows by construction.
    pub peak_live: usize,
    /// Peak live write-record count across all seals.
    pub peak_write_records: usize,
    /// FNV-1a hash over the full placed witness order.
    pub witness_hash: u64,
    /// A witness total order: indices into the access array, in an order
    /// under which every read sees the most recent write. Present exactly
    /// for a batch check.
    pub witness: Option<Vec<usize>>,
    /// Memory after replaying the witness (traced addresses only;
    /// addresses never written stay at their initial 0 and are absent).
    pub final_memory: BTreeMap<u64, u64>,
}

impl ScCertificate {
    /// One-line human summary: the batch line when the witness was
    /// recorded, the streaming line (windows, peaks, witness hash)
    /// otherwise.
    pub fn summary(&self) -> String {
        if self.witness.is_some() {
            return format!(
                "{}-certified: {} accesses, {} witness edges, {} ambiguous reads, \
                 {} locations written",
                self.model.name(),
                self.accesses,
                self.edges,
                self.ambiguous_reads,
                self.final_memory.len()
            );
        }
        format!(
            "{}-certified (streaming): {} accesses in {} windows, {} witness \
             edges, {} ambiguous reads, peak {} live accesses / {} write \
             records, {} locations written, witness hash {:016x}",
            self.model.name(),
            self.accesses,
            self.windows,
            self.edges,
            self.ambiguous_reads,
            self.peak_live,
            self.peak_write_records,
            self.final_memory.len(),
            self.witness_hash
        )
    }
}

/// Verify that `accesses` (in trace-stream order) admit an SC witness.
/// `lifecycle` provides the chunk/squash context quoted in violation
/// reports; pass `&[]` when unavailable.
///
/// This is the batch entry point: a single-window run of the streaming
/// checker in [`crate::stream`], which resolves every read against the
/// complete write set and records the full witness. Use
/// [`crate::stream::check_stream`] with a windowed
/// [`crate::stream::StreamConfig`] when the trace does not fit.
pub fn check(
    accesses: &[Access],
    lifecycle: &[LifecycleEvent],
) -> Result<ScCertificate, CheckError> {
    check_model(accesses, lifecycle, MemoryModel::Sc)
}

/// [`check`], parametrized by memory model: certify `accesses` against
/// `model`'s happens-before union (SC: po ∪ rf ∪ co ∪ fr; TSO:
/// ppo ∪ rfe ∪ co ∪ fr plus a per-location coherence scan).
pub fn check_model(
    accesses: &[Access],
    lifecycle: &[LifecycleEvent],
    model: MemoryModel,
) -> Result<ScCertificate, CheckError> {
    let cfg = crate::stream::StreamConfig::batch().with_model(model);
    crate::stream::check_stream(accesses, lifecycle, cfg)
}

/// Extract a simple cycle from the leftover subgraph (`indeg[i] > 0`
/// after Kahn). Prefers the shortest cycle through the lowest-indexed
/// access that lies on one, so litmus-sized violations report the
/// textbook minimal set.
pub(crate) fn find_cycle(graph: &Csr, indeg: &[usize]) -> (Vec<usize>, Vec<EdgeKind>) {
    let leftover: Vec<usize> = (0..graph.len()).filter(|&i| indeg[i] > 0).collect();
    // BFS from each candidate start until one closes back on itself.
    // Every leftover node has a predecessor among leftovers, so a cycle
    // exists and the scan terminates at the first start that is on one.
    for &s in &leftover {
        let mut parent: HashMap<usize, (usize, EdgeKind)> = HashMap::new();
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &(v, kind) in graph.out(u) {
                let v = v as usize;
                if indeg[v] == 0 {
                    continue; // edge into the already-sorted region
                }
                if v == s {
                    // Close the loop: walk parents back from u to s.
                    let mut nodes = vec![u];
                    let mut kinds = vec![kind];
                    let mut cur = u;
                    while cur != s {
                        let (p, k) = parent[&cur];
                        nodes.push(p);
                        kinds.push(k);
                        cur = p;
                    }
                    nodes.reverse();
                    kinds.reverse();
                    // kinds[i] now labels the edge nodes[i] -> nodes[i+1
                    // mod len]: the parent-edge list reversed starts with
                    // the edge out of s and ends with the edge back into
                    // it, matching the reversed node order.
                    return (nodes, kinds);
                }
                if !parent.contains_key(&v) && v != s {
                    parent.insert(v, (u, kind));
                    queue.push_back(v);
                }
            }
        }
    }
    unreachable!("leftover subgraph of a failed toposort always contains a cycle");
}

/// Build a violation with its rendered report. `offenders` is the
/// minimal offending access set, already resolved to accesses (the
/// streaming checker has no global access array to index into).
pub(crate) fn violation(
    offenders: Vec<Access>,
    lifecycle: &[LifecycleEvent],
    kind: ViolationKind,
    edge_kinds: Vec<EdgeKind>,
    headline: String,
    model: MemoryModel,
) -> CheckError {
    let mut report = format!(
        "{} violation ({}): {headline}\n",
        model.name(),
        match kind {
            ViolationKind::Cycle => "cycle",
            ViolationKind::UnsourcedRead => "unsourced read",
            ViolationKind::TornRmw => "torn rmw",
            ViolationKind::StaleRead => "stale read",
            ViolationKind::Coherence => "coherence",
        }
    );
    for (i, a) in offenders.iter().enumerate() {
        report.push_str(&format!("  [{i}] {}\n", a.describe()));
        if let Some(k) = edge_kinds.get(i) {
            let next = (i + 1) % offenders.len();
            report.push_str(&format!("       --{}-> [{next}]\n", k.label()));
        }
    }

    // When an SC cycle runs through a store → load program-order edge,
    // name it: that is exactly the order TSO's FIFO store buffer relaxes,
    // so the execution may still be TSO-conformant.
    if model == MemoryModel::Sc && kind == ViolationKind::Cycle {
        for (i, k) in edge_kinds.iter().enumerate() {
            let next = (i + 1) % offenders.len();
            let src_is_store = matches!(offenders[i].kind, AccessKind::Store { .. });
            let dst_is_load = matches!(offenders[next].kind, AccessKind::Load { .. });
            if *k == EdgeKind::Po && src_is_store && dst_is_load {
                report.push_str(&format!(
                    "  relaxed edge: po edge [{i}] -> [{next}] is store -> load (W->R), \
                     the order a TSO store buffer relaxes; re-check with --model=tso\n"
                ));
                break;
            }
        }
    }

    // Chunk-lifecycle context: what the offending cores were doing in a
    // window around the offending accesses.
    let lo = offenders
        .iter()
        .map(|a| a.retired_at.min(a.emitted_at))
        .min()
        .unwrap_or(0)
        .saturating_sub(200);
    let hi = offenders
        .iter()
        .map(|a| a.retired_at.max(a.emitted_at))
        .max()
        .unwrap_or(u64::MAX)
        .saturating_add(200);
    let cores: Vec<u32> = offenders.iter().map(|a| a.core).collect();
    let context: Vec<&LifecycleEvent> = lifecycle
        .iter()
        .filter(|e| e.t >= lo && e.t <= hi && cores.contains(&e.core))
        .collect();
    if !context.is_empty() {
        report.push_str(&format!(
            "  chunk lifecycle on the offending cores, cycles {lo}..{hi}:\n"
        ));
        for e in context.iter().take(24) {
            report.push_str(&format!(
                "    @{} core{} {} seq={}\n",
                e.t, e.core, e.what, e.seq
            ));
        }
        if context.len() > 24 {
            report.push_str(&format!("    ... and {} more\n", context.len() - 24));
        }
    }

    CheckError::Violation(Box::new(ScViolation {
        kind,
        accesses: offenders,
        edges: edge_kinds,
        report,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    /// Shorthand access builder for tests.
    fn acc(idx: usize, core: u32, po: u64, addr: u64, kind: AccessKind) -> Access {
        Access {
            idx,
            core,
            seq: 0,
            po,
            addr,
            kind,
            retired_at: 10 + idx as u64,
            emitted_at: 20 + idx as u64,
        }
    }
    fn ld(idx: usize, core: u32, po: u64, addr: u64, value: u64) -> Access {
        acc(idx, core, po, addr, AccessKind::Load { value })
    }
    fn st(idx: usize, core: u32, po: u64, addr: u64, value: u64) -> Access {
        acc(idx, core, po, addr, AccessKind::Store { value })
    }

    #[test]
    fn empty_and_single_traces_certify() {
        let cert = check(&[], &[]).expect("empty trace is SC");
        assert_eq!(cert.accesses, 0);
        let cert = check(&[st(0, 0, 0, 8, 1)], &[]).expect("one store is SC");
        assert_eq!(cert.witness, Some(vec![0]));
        assert_eq!(cert.final_memory, BTreeMap::from([(8, 1)]));
    }

    #[test]
    fn sequential_interleaving_certifies_with_full_edges() {
        // core0: st a=1; ld b -> 2.  core1: st b=2; ld a -> 1.
        // A valid SC outcome (both stores first).
        let t = [
            st(0, 0, 0, 0xa, 1),
            st(1, 1, 0, 0xb, 2),
            ld(2, 0, 1, 0xb, 2),
            ld(3, 1, 1, 0xa, 1),
        ];
        let cert = check(&t, &[]).expect("valid SB outcome");
        assert_eq!(cert.accesses, 4);
        assert_eq!(cert.ambiguous_reads, 0);
        // 2 po + 2 rf edges; no co (one write per address), no fr (reads
        // saw the last write).
        assert_eq!(cert.edges, 4);
        let witness = cert.witness.as_deref().unwrap();
        let pos = |i: usize| witness.iter().position(|&w| w == i).unwrap();
        assert!(pos(0) < pos(2) && pos(1) < pos(3), "po respected");
        assert_eq!(cert.final_memory, BTreeMap::from([(0xa, 1), (0xb, 2)]));
    }

    #[test]
    fn store_buffering_outcome_is_a_cycle() {
        // The forbidden SB outcome: both loads read 0 past the other
        // core's store. po + fr forms a 4-cycle.
        let t = [
            st(0, 0, 0, 0xa, 1),
            ld(1, 0, 1, 0xb, 0),
            st(2, 1, 0, 0xb, 2),
            ld(3, 1, 1, 0xa, 0),
        ];
        let err = check(&t, &[]).expect_err("forbidden SB outcome");
        let CheckError::Violation(v) = err else {
            panic!("expected a violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::Cycle);
        assert_eq!(v.accesses.len(), 4, "minimal SB cycle has 4 accesses");
        assert_eq!(v.edges.len(), 4);
        let mut kinds = v.edges.clone();
        kinds.sort_by_key(|k| k.label());
        assert_eq!(
            kinds,
            vec![EdgeKind::Fr, EdgeKind::Fr, EdgeKind::Po, EdgeKind::Po]
        );
        assert!(v.report.contains("po ∪ rf ∪ co ∪ fr"));
        assert!(v.report.contains("load  0xb -> 0"));
    }

    #[test]
    fn coherence_read_reordering_is_a_cycle() {
        // CoRR: writer publishes 1 then 2; reader sees 2 then 1.
        // rf + fr + po + co forms a cycle.
        let t = [
            st(0, 0, 0, 0xc, 1),
            st(1, 0, 1, 0xc, 2),
            ld(2, 1, 0, 0xc, 2),
            ld(3, 1, 1, 0xc, 1),
        ];
        let err = check(&t, &[]).expect_err("CoRR violation");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::Cycle);
        assert!(v.accesses.len() >= 2);
    }

    #[test]
    fn violation_report_quotes_lifecycle_context() {
        let t = [
            st(0, 0, 0, 0xa, 1),
            ld(1, 0, 1, 0xb, 0),
            st(2, 1, 0, 0xb, 2),
            ld(3, 1, 1, 0xa, 0),
        ];
        let life = [
            LifecycleEvent {
                t: 15,
                core: 0,
                seq: 2,
                what: "commit_grant",
            },
            LifecycleEvent {
                t: 16,
                core: 1,
                seq: 1,
                what: "squash(alias)",
            },
            LifecycleEvent {
                t: 9_999_999,
                core: 0,
                seq: 3,
                what: "chunk_commit",
            },
            LifecycleEvent {
                t: 17,
                core: 7,
                seq: 0,
                what: "chunk_start",
            },
        ];
        let err = check(&t, &life).expect_err("violation");
        let report = err.to_string();
        assert!(report.contains("commit_grant"));
        assert!(report.contains("squash(alias)"));
        assert!(!report.contains("9999999"), "far-away events filtered");
        assert!(!report.contains("core7"), "unrelated cores filtered");
    }

    #[test]
    fn unsourced_read_is_flagged() {
        let t = [st(0, 0, 0, 0xa, 1), ld(1, 1, 0, 0xa, 7)];
        let err = check(&t, &[]).expect_err("value 7 never written");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::UnsourcedRead);
        assert_eq!(v.accesses.len(), 1);
        assert!(v.report.contains("no write ever published"));
    }

    #[test]
    fn ambiguous_values_skip_edges_but_still_certify() {
        // Two stores publish the same value: the read's source cannot be
        // pinned down, so its edges are skipped (no false violation).
        let t = [
            st(0, 0, 0, 0xa, 5),
            st(1, 1, 0, 0xa, 5),
            ld(2, 2, 0, 0xa, 5),
        ];
        let cert = check(&t, &[]).expect("ambiguity is not a violation");
        assert_eq!(cert.ambiguous_reads, 1);
        // A zero-writer competing with the initial value is ambiguous too.
        let t = [st(0, 0, 0, 0xb, 0), ld(1, 1, 0, 0xb, 0)];
        let cert = check(&t, &[]).expect("zero ambiguity tolerated");
        assert_eq!(cert.ambiguous_reads, 1);
    }

    #[test]
    fn rmw_chain_certifies_and_torn_rmw_is_flagged() {
        // Two atomic increments compose: 0->1 then 1->2.
        let t = [
            acc(0, 0, 0, LOCK_ADDR, AccessKind::Rmw { old: 0, new: 1 }),
            acc(1, 1, 0, LOCK_ADDR, AccessKind::Rmw { old: 1, new: 2 }),
        ];
        let cert = check(&t, &[]).expect("chained RMWs are SC");
        assert_eq!(cert.final_memory, BTreeMap::from([(LOCK_ADDR, 2)]));

        // Both observe 0: the second's write is not first in co.
        let t = [
            acc(0, 0, 0, LOCK_ADDR, AccessKind::Rmw { old: 0, new: 1 }),
            acc(1, 1, 0, LOCK_ADDR, AccessKind::Rmw { old: 0, new: 2 }),
        ];
        let err = check(&t, &[]).expect_err("lost update");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::TornRmw);

        // A store slipping between an RMW's read and write.
        let t = [
            st(0, 0, 0, LOCK_ADDR, 7),
            st(1, 0, 1, LOCK_ADDR, 9),
            acc(2, 1, 0, LOCK_ADDR, AccessKind::Rmw { old: 7, new: 8 }),
        ];
        let err = check(&t, &[]).expect_err("intervening store");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::TornRmw);
        assert!(v.report.contains("immediate coherence-order predecessor"));
    }

    /// A test-local address distinct from the other tests' addresses.
    const LOCK_ADDR: u64 = 0x40;

    #[test]
    fn duplicate_po_is_malformed() {
        let t = [st(0, 0, 3, 0xa, 1), ld(1, 0, 3, 0xa, 1)];
        let err = check(&t, &[]).expect_err("duplicate po");
        assert!(matches!(err, CheckError::Malformed(_)));
        assert!(err.to_string().contains("program-order index 3"));
    }

    #[test]
    fn bad_idx_is_malformed() {
        let mut a = st(0, 0, 0, 0xa, 1);
        a.idx = 5;
        assert!(matches!(check(&[a], &[]), Err(CheckError::Malformed(_))));
    }

    #[test]
    fn witness_replay_covers_multi_location_history() {
        // A longer interleaving with co chains, fr edges, and an init
        // read, exercising every edge constructor on the success path.
        let t = [
            st(0, 0, 0, 0x10, 1),
            ld(1, 1, 0, 0x10, 0), // init read: fr to the first write
            st(2, 1, 1, 0x18, 3),
            st(3, 0, 1, 0x10, 2), // co successor of idx 0
            ld(4, 1, 2, 0x10, 1), // reads idx 0, fr to idx 3
            ld(5, 0, 2, 0x18, 3), // reads idx 2
        ];
        let cert = check(&t, &[]).expect("consistent history");
        assert_eq!(cert.ambiguous_reads, 0);
        assert_eq!(cert.final_memory, BTreeMap::from([(0x10, 2), (0x18, 3)]));
        let witness = cert.witness.as_deref().unwrap();
        let pos = |i: usize| witness.iter().position(|&w| w == i).unwrap();
        assert!(pos(1) < pos(0), "init read precedes the first write");
        assert!(pos(4) < pos(3), "fr orders the read before the next write");
    }

    #[test]
    fn tso_certifies_store_buffering_and_sc_names_the_relaxed_edge() {
        // The SB outcome a store buffer produces: both loads read 0.
        let t = [
            st(0, 0, 0, 0xa, 1),
            ld(1, 0, 1, 0xb, 0),
            st(2, 1, 0, 0xb, 2),
            ld(3, 1, 1, 0xa, 0),
        ];
        // SC refuses, and the report points at the W→R po edge TSO drops.
        let err = check_model(&t, &[], MemoryModel::Sc).expect_err("SB is not SC");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert!(v.report.starts_with("SC violation"), "{}", v.report);
        assert!(v.report.contains("relaxed edge"), "{}", v.report);
        assert!(v.report.contains("--model=tso"), "{}", v.report);
        // TSO certifies the same trace and says so.
        let cert = check_model(&t, &[], MemoryModel::Tso).expect("SB is TSO");
        assert_eq!(cert.model, MemoryModel::Tso);
        assert!(
            cert.summary().starts_with("TSO-certified"),
            "{}",
            cert.summary()
        );
        assert_eq!(cert.final_memory, BTreeMap::from([(0xa, 1), (0xb, 2)]));
    }

    #[test]
    fn tso_still_flags_message_passing_reordering() {
        // MP with both writes on one core: W→W and R→R are ppo, so the
        // stale read of x closes a ppo ∪ rfe ∪ fr cycle even under TSO.
        let t = [
            st(0, 0, 0, 0x50, 1), // x = 1
            st(1, 0, 1, 0x58, 1), // y = 1
            ld(2, 1, 0, 0x58, 1), // sees y = 1
            ld(3, 1, 1, 0x50, 0), // ...but x = 0
        ];
        let err = check_model(&t, &[], MemoryModel::Tso).expect_err("MP is TSO-forbidden");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::Cycle);
        assert!(v.report.starts_with("TSO violation"), "{}", v.report);
        assert!(v.report.contains("ppo ∪ rfe ∪ co ∪ fr"), "{}", v.report);
    }

    #[test]
    fn tso_same_core_forwarding_tolerates_late_store_drain() {
        // Core 0 forwards its own buffered store: the load retires (and
        // is traced) before the store drains, so the store appears later
        // in the stream with a smaller po. Batch mode sorts the window,
        // so both models certify; with a one-access window the skew
        // crosses seals — SC's po-monotone invariant rejects it, TSO's
        // per-substream invariant plus read parking certifies it.
        let t = [
            ld(0, 0, 1, 0x60, 9), // forwarded from the po-earlier store
            st(1, 0, 0, 0x60, 9), // drains after the load retired
            ld(2, 1, 0, 0x60, 9), // another core reads it post-drain
        ];
        check_model(&t, &[], MemoryModel::Tso).expect("forwarding is TSO (batch)");
        let sc = crate::stream::check_stream(&t, &[], crate::stream::StreamConfig::windowed(1));
        // SC resolves the read in its own window, before the store
        // drains: unsourced. (Had it survived, the po skew itself would
        // be malformed.) Either way, windowed SC rejects.
        assert!(sc.is_err(), "windowed SC must reject the po-skewed stream");
        let cert = crate::stream::check_stream(
            &t,
            &[],
            crate::stream::StreamConfig::windowed(1).with_model(MemoryModel::Tso),
        )
        .expect("windowed TSO parks the forwarded read until its store drains");
        assert_eq!(cert.final_memory, BTreeMap::from([(0x60, 9)]));
    }

    #[test]
    fn tso_parked_read_keeps_its_place_in_the_coherence_scan() {
        // The forwarded read parks until its store drains and only then
        // claims a coherence position; the po-later read of the initial
        // value sees the history backwards (CoRR). The happens-before
        // graph has no cycle, so only the coherence scan catches it, and
        // only if the resolved claim replaces the parked one.
        let t = [
            ld(0, 0, 1, 0x68, 5), // forwarded from the po-earlier store
            ld(1, 0, 2, 0x68, 0), // the initial value, after reading 5
            st(2, 0, 0, 0x68, 5), // drains last
        ];
        let err = crate::stream::check_stream(
            &t,
            &[],
            crate::stream::StreamConfig::windowed(1).with_model(MemoryModel::Tso),
        )
        .expect_err("CoRR across a parked read");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::Coherence, "{}", v.report);
    }

    #[test]
    fn tso_enforces_per_location_coherence() {
        // CoWR: core 0 buffers x=1, but reads the *other* core's x=2 and
        // then claims its own older write still — a same-address
        // forwarding violation (the buffer must forward the newest).
        // Encoded as CoRR: one core sees the write history backwards.
        let t = [
            st(0, 0, 0, 0x70, 1),
            st(1, 0, 1, 0x70, 2),
            ld(2, 1, 0, 0x70, 2),
            ld(3, 1, 1, 0x70, 1), // po-later read sees the older write
        ];
        let err = check_model(&t, &[], MemoryModel::Tso).expect_err("CoRR binds under TSO");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert!(
            matches!(v.kind, ViolationKind::Coherence | ViolationKind::Cycle),
            "{:?}",
            v.kind
        );
        assert!(v.report.starts_with("TSO violation"), "{}", v.report);
    }

    #[test]
    fn tso_rejects_cross_core_forwarding_across_windows() {
        // A read observing another core's store a full checking window
        // before it drains: even TSO forbids reading someone else's
        // buffer (batch mode, where the write is in the same window,
        // resolves it as an ordinary rfe — like SC's StaleRead, this is
        // a windowed-retirement verdict).
        let t = [
            ld(0, 1, 0, 0x80, 4), // core 1 sees the value early
            st(1, 0, 0, 0x80, 4), // ...but core 0 publishes it later
        ];
        let err = crate::stream::check_stream(
            &t,
            &[],
            crate::stream::StreamConfig::windowed(1).with_model(MemoryModel::Tso),
        )
        .expect_err("no cross-core forwarding");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::UnsourcedRead);
        assert!(v.report.contains("never another"), "{}", v.report);
    }

    #[test]
    fn tso_parked_read_with_no_source_reports_unsourced() {
        let t = [st(0, 0, 0, 0x90, 1), ld(1, 1, 0, 0x90, 7)];
        let err = check_model(&t, &[], MemoryModel::Tso).expect_err("value 7 never written");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::UnsourcedRead);
        assert!(v.report.contains("no write ever published"), "{}", v.report);
    }

    #[test]
    fn model_parse_round_trips() {
        assert_eq!(MemoryModel::parse("sc"), Some(MemoryModel::Sc));
        assert_eq!(MemoryModel::parse("TSO"), Some(MemoryModel::Tso));
        assert_eq!(MemoryModel::parse("pso"), None);
        assert_eq!(MemoryModel::default(), MemoryModel::Sc);
    }
}
