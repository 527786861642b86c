//! Streaming, windowed SC certification in bounded memory.
//!
//! The batch oracle in [`crate::order`] materializes every access and
//! the whole Shasha–Snir constraint graph before sorting — fine for a
//! million accesses, hopeless for the 100M-access traces a scaled-up
//! run emits. This module certifies the same po ∪ rf ∪ co ∪ fr union
//! incrementally, keeping only a bounded *frontier* live:
//!
//! * Accesses arrive in trace-stream order and are buffered into fixed
//!   size **windows**. When a window fills, its accesses join the live
//!   constraint graph: po edges against each core's carried last access,
//!   co edges by per-address arrival order, and rf/fr edges resolved by
//!   value against the live write records (unique-value writes make the
//!   rf source unambiguous — see DESIGN.md §13).
//! * After each seal the live graph is topologically sorted. A cycle is
//!   reported exactly as the batch checker would report it; otherwise
//!   the *ancestor closure* of the previous window's accesses is
//!   **placed**: appended to the certified witness prefix, replayed
//!   against the running memory image, and retired from the graph. The
//!   closure is what makes the emitted prefix a valid topological
//!   prefix — nothing outside it can be constrained to precede it.
//! * **Retention rule**: a write record stays resolvable until its
//!   coherence successor is at least one full window old; the last
//!   write per address is kept forever (it is what any future read of
//!   that address should see). Everything older is expired, so live
//!   state is O(window + address working set), independent of trace
//!   length.
//! * A rolling FNV-1a hash of the placed order makes a verdict on an
//!   arbitrarily long trace auditable without storing the witness.
//!
//! **Batch is one window**: with `window = usize::MAX` every access is
//! resolved in a single seal against the complete write set, the full
//! witness is recorded and every lifecycle event is kept. [`crate::check`]
//! is that configuration.
//!
//! **Windowed divergences** (multi-window mode only, all documented in
//! DESIGN.md §13): the stream must be *causal* (a read arrives after
//! the write it observes) and per-core po-monotone across windows; a
//! read more than a window staler than its address's write history is
//! reported as a violation rather than tolerated; ambiguity counts are
//! frontier-local.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use bulksc_trace::EventSource;

use crate::order::{
    find_cycle, violation, CheckError, EdgeKind, MemoryModel, ScCertificate, ViolationKind,
};
use crate::{Access, AccessKind, LifecycleEvent, TraceLine};

/// The two settings of one certification: the window and the model.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Accesses per window. `usize::MAX` makes the whole trace one
    /// window: exact batch semantics, unbounded memory, the full witness
    /// recorded and every lifecycle event kept for violation reports. A
    /// windowed check keeps the last 65,536 lifecycle events and no
    /// witness.
    pub window: usize,
    /// The memory model to certify against. See [`MemoryModel`] for what
    /// TSO relaxes.
    pub model: MemoryModel,
}

/// How many recent chunk-lifecycle events a windowed check keeps for
/// violation reports.
const LIFECYCLE_KEPT: usize = 1 << 16;

impl StreamConfig {
    /// The configuration [`crate::check`] runs: one window covering the
    /// whole trace, SC.
    pub fn batch() -> Self {
        StreamConfig {
            window: usize::MAX,
            model: MemoryModel::Sc,
        }
    }

    /// A bounded-memory SC configuration with the given window size.
    pub fn windowed(window: usize) -> Self {
        StreamConfig {
            window: window.max(1),
            model: MemoryModel::Sc,
        }
    }

    /// Set the memory model to certify against.
    pub fn with_model(mut self, model: MemoryModel) -> Self {
        self.model = model;
        self
    }

    /// Whether this is a batch (single-window) check.
    fn is_batch(self) -> bool {
        self.window == usize::MAX
    }
}

/// Why a streaming check of a trace could not run to a verdict.
#[derive(Clone, Debug)]
pub enum StreamError {
    /// The input could not be read or decoded (message names the origin
    /// and the 1-based line or 0-based block).
    Input(String),
    /// The checker reached a verdict of "not SC" (or a malformed trace).
    Check(CheckError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Input(m) => f.write_str(m),
            StreamError::Check(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

/// How a read's rf source was pinned down, for the incremental replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resolution {
    /// Not a read, or not resolved yet.
    Unresolved,
    /// Unique source (a write or the virtual initial store): the replay
    /// must observe exactly the read's value.
    Pinned,
    /// TSO only: unique source on the reader's own core (store-buffer
    /// forwarding). The witness may legally order the read before its
    /// source's global visibility, so the replay check is skipped; the
    /// per-location coherence scan covers it instead.
    PinnedInternal,
    /// Ambiguous source: edges skipped, replay check skipped.
    Ambiguous,
}

/// A live (unplaced) access.
struct LiveAccess {
    a: Access,
    res: Resolution,
    window: u64,
}

/// A live write record: resolvable as an rf source until expired.
struct WriteRec {
    a: Access,
    window: u64,
    /// Reads that resolved rf to this write while it was the last write
    /// at its address: their fr edge is deferred until the coherence
    /// successor arrives.
    readers: Vec<usize>,
}

/// Per-address frontier state.
#[derive(Default)]
struct AddrState {
    /// Live records in coherence (= arrival) order: the records of ranks
    /// `expired..writes`. Expiry pops from the front; the back (the
    /// current last write) is never expired.
    recs: VecDeque<WriteRec>,
    /// Total writes ever seen at this address (the next co rank).
    writes: u64,
    /// Records dropped by the retention rule.
    expired: u64,
    /// Writes in the certified prefix: ranks below this. Co edges chain
    /// an address's writes, so they are placed in rank order, and every
    /// expired write is placed.
    placed: u64,
    /// Copy of the first write ever (for torn-RMW / stale-init reports).
    first_write: Option<Access>,
    /// Reads of the initial 0 that arrived before any write: their fr
    /// edge is deferred until the first write (if any) arrives.
    init_readers: Vec<usize>,
}

impl AddrState {
    /// The live record of coherence rank `rank` (`expired <= rank <
    /// writes`).
    fn rec(&self, rank: u64) -> &WriteRec {
        &self.recs[(rank - self.expired) as usize]
    }
}

/// Outcome of resolving one read against the write records, applied
/// right after it is computed.
enum ReadOutcome {
    Ambiguous,
    /// Init read, no write at the address yet: register for a deferred
    /// fr edge.
    InitNoWriteYet,
    /// Init read: fr edge to the (unplaced) first write.
    InitEdge {
        first: usize,
    },
    /// An RMW that read the initial value and is itself the first write.
    InitRmwOk,
    /// Unique rf source `w`, plus what the fr edge should be.
    RfEdge {
        w: usize,
        w_placed: bool,
        /// The source write's core (TSO drops same-core rf edges) and
        /// coherence rank (its reader list; TSO's per-location scan).
        w_core: u32,
        w_rank: u64,
        fr: FrApply,
    },
    // Violations:
    Unsourced {
        stale: u64,
    },
    StaleInit {
        first: Access,
    },
    Stale {
        value: u64,
        succ: Access,
    },
    TornRmwInit {
        first: Option<Access>,
    },
    TornRmw {
        w: Access,
    },
}

enum FrApply {
    /// No fr edge (the read's own write is the co successor).
    None,
    /// fr edge to this (unplaced) successor write.
    Edge(usize),
    /// No successor yet: register on the source write's reader list.
    Register,
}

/// Resolve one read against the live write records. Pure lookup:
/// `writers` names each candidate source by its coherence rank, which
/// indexes the address's records directly.
fn resolve_read(
    addrs: &IntMap<u64, AddrState>,
    writers: &IntMap<(u64, u64), Vec<u64>>,
    a: &Access,
) -> ReadOutcome {
    let v = a.observed().expect("resolve_read takes reads");
    let is_rmw = matches!(a.kind, AccessKind::Rmw { .. });
    let st = addrs.get(&a.addr);
    // Count the candidate sources (up to two: more is as ambiguous) and
    // keep the last one seen. An RMW whose new value equals its old one
    // would otherwise count itself.
    let (mut candidates, mut w) = (0, 0);
    for &r in writers.get(&(a.addr, v)).into_iter().flatten() {
        if !is_rmw || st.is_some_and(|s| s.rec(r).a.idx != a.idx) {
            candidates += 1;
            w = r;
            if candidates == 2 {
                break;
            }
        }
    }
    let from_init_possible = v == 0;
    match (candidates, from_init_possible) {
        (0, false) => ReadOutcome::Unsourced {
            stale: st.map_or(0, |s| s.expired),
        },
        (0, true) => {
            let first = st.and_then(|s| s.first_write);
            if is_rmw {
                if first.map(|f| f.idx) == Some(a.idx) {
                    ReadOutcome::InitRmwOk
                } else {
                    ReadOutcome::TornRmwInit { first }
                }
            } else if let Some(f) = first {
                if st.expect("first write implies state").placed > 0 {
                    ReadOutcome::StaleInit { first: f }
                } else {
                    ReadOutcome::InitEdge { first: f.idx }
                }
            } else {
                ReadOutcome::InitNoWriteYet
            }
        }
        (1, false) => {
            let s = st.expect("a live candidate implies address state");
            let rec = s.rec(w);
            let succ = s.recs.get((w + 1 - s.expired) as usize);
            // An RMW is torn unless its own write directly follows its
            // source in coherence order.
            if is_rmw && succ.is_none_or(|n| n.a.idx != a.idx) {
                return ReadOutcome::TornRmw { w: rec.a };
            }
            let fr = match succ {
                None => FrApply::Register,
                Some(succ) if succ.a.idx == a.idx => FrApply::None,
                Some(succ) if w + 1 < s.placed => {
                    return ReadOutcome::Stale {
                        value: v,
                        succ: succ.a,
                    }
                }
                Some(succ) => FrApply::Edge(succ.a.idx),
            };
            ReadOutcome::RfEdge {
                w: rec.a.idx,
                w_placed: w < s.placed,
                w_core: rec.a.core,
                w_rank: w,
                fr,
            }
        }
        _ => ReadOutcome::Ambiguous,
    }
}

/// TSO per-core program-order frontier. A TSO node's value trace is two
/// po-monotone sub-streams per core — loads/RMWs emitted at retire,
/// stores at store-buffer drain — so the write frontier can trail the
/// read frontier in po, and a draining store must take its R→W edge
/// from the last *read* with a smaller po, not the core's newest access.
#[derive(Default)]
struct TsoCoreState {
    /// Last read-bearing access (load or RMW) sealed for this core, as
    /// (po, stream index).
    last_r: Option<(u64, usize)>,
    /// Last write-bearing access (store or RMW) sealed for this core.
    last_w: Option<(u64, usize)>,
    /// Read-bearing accesses in po order, pruned as stores consume
    /// them: candidates for a late store's R→W ppo edge. Bounded by the
    /// traced machine's store-buffer drain skew (see DESIGN.md §15).
    reads_log: VecDeque<(u64, usize)>,
}

/// One entry of the TSO per-location coherence scan: the coherence
/// position an access claims, shifted so the initial value is 0 and a
/// write with co rank r sits at r + 1.
#[derive(Clone, Copy, Debug)]
enum CohRank {
    /// A parked read whose source has not arrived yet.
    Pending,
    /// An ambiguous read: no position claim, skipped.
    Skip,
    /// A read that observed this coherence position (must be ≥ the
    /// highest position the core already established at this address).
    Read(u64),
    /// A write at this coherence position (must be > everything the
    /// core established: same-core stores drain in po order).
    Write(u64),
}

/// The TSO per-location coherence scan: per-location SC — CoRR / CoWR /
/// CoWW / CoRW — checked per (core, address) in program order as claims
/// become safe to order (no earlier-po access can still arrive). Writes
/// are checkable on arrival; reads wait until the core's write frontier
/// passes their po (a buffered store with a smaller po could still
/// drain) or the trace ends.
#[derive(Default)]
struct CohScan {
    locs: IntMap<(u32, u64), CohLoc>,
    /// The locations with claims not checked yet, each once.
    waiting: Vec<(u32, u64)>,
}

/// The coherence scan's state for one (core, address).
#[derive(Default)]
struct CohLoc {
    /// Claims not checked yet, in the order they were made.
    q: Vec<(CohRank, Access)>,
    /// Highest coherence position established along po so far.
    max: u64,
    /// The access that established `max` (for violation reports).
    max_acc: Option<Access>,
}

/// A coherence-scan violation: the access that established position
/// `had`, and the program-order-later access that claims `got`.
struct CohViolation {
    prev: Access,
    acc: Access,
    had: u64,
    got: u64,
}

impl CohScan {
    /// `a` claims position `rank`. A later claim for the same (core,
    /// address, po) replaces an earlier one: that is how a parked read's
    /// `Pending` becomes a `Read`.
    fn claim(&mut self, rank: CohRank, a: &Access) {
        let loc = (a.core, a.addr);
        let st = self.locs.entry(loc).or_default();
        if st.q.is_empty() {
            self.waiting.push(loc);
        }
        st.q.push((rank, *a));
    }

    /// Check every claim that is safe to order, keeping the rest for the
    /// next scan. Locations are visited in (core, address) order, so the
    /// violation returned is the first in that order.
    fn advance(
        &mut self,
        tails: &IntMap<u32, TsoCoreState>,
        finalize: bool,
    ) -> Option<CohViolation> {
        self.waiting.sort_unstable();
        let mut still = 0;
        for k in 0..self.waiting.len() {
            let loc = self.waiting[k];
            let wbound = tails.get(&loc.0).and_then(|t| t.last_w).map(|(po, _)| po);
            let st = self
                .locs
                .get_mut(&loc)
                .expect("a waiting location has state");
            // Stable: of two claims on one po, the later-made one comes
            // second and wins.
            st.q.sort_by_key(|c| c.1.po);
            let mut done = 0;
            for (j, &(rank, acc)) in st.q.iter().enumerate() {
                let po = acc.po;
                if st.q.get(j + 1).is_some_and(|n| n.1.po == po) {
                    done += 1; // replaced by a later claim
                    continue;
                }
                let ready = match rank {
                    CohRank::Write(_) => true,
                    CohRank::Pending => false,
                    _ => finalize || wbound.is_some_and(|b| po <= b),
                };
                if !ready {
                    break;
                }
                done += 1;
                let (pos, strict) = match rank {
                    CohRank::Write(r) => (r, true),
                    CohRank::Read(r) => (r, false),
                    CohRank::Skip | CohRank::Pending => continue,
                };
                if pos < st.max || (strict && pos == st.max) {
                    return Some(CohViolation {
                        prev: st.max_acc.expect("a position above 0 was recorded"),
                        acc,
                        had: st.max,
                        got: pos,
                    });
                }
                if pos > st.max {
                    st.max = pos;
                    st.max_acc = Some(acc);
                }
            }
            st.q.drain(..done);
            if !st.q.is_empty() {
                self.waiting[still] = loc;
                still += 1;
            }
        }
        self.waiting.truncate(still);
        None
    }
}

/// The streaming checker: push accesses (and lifecycle context) in
/// trace-stream order, then [`StreamChecker::finish`] for the verdict.
/// Violations and malformed input surface from `push` as soon as the
/// offending window seals.
pub struct StreamChecker {
    cfg: StreamConfig,
    /// Total accesses pushed (the next expected `idx`).
    total: usize,
    /// The window currently filling.
    cur_window: u64,
    /// Live (unplaced) accesses, ascending by stream index. Slots from
    /// `fresh` on hold the window currently filling, admitted on push.
    arena: Vec<LiveAccess>,
    fresh: usize,
    /// The live graph's edges over arena slots, `(from, to, relation)`,
    /// in insertion order (see [`Csr`]).
    edge_list: Vec<Edge>,
    /// Stream index → live slot.
    slot_of: SlotIndex,
    /// Per-core last sealed access (the po frontier) and whether it has
    /// been placed. SC model only.
    tails: IntMap<u32, (Access, bool)>,
    /// TSO model only: the dual (read/write) po frontier per core.
    tso_tails: IntMap<u32, TsoCoreState>,
    /// TSO model only: reads that observed a value no arrived write has
    /// published, parked until a matching same-core store drains
    /// (store-buffer forwarding across a window boundary), keyed by
    /// (addr, value). Still parked at finish ⇒ unsourced violation.
    pending: IntMap<(u64, u64), Vec<Access>>,
    /// TSO model only: the per-location coherence scan.
    coh: CohScan,
    addrs: IntMap<u64, AddrState>,
    /// (addr, value) → coherence ranks of the live writers of that
    /// value, ascending.
    writers: IntMap<(u64, u64), Vec<u64>>,
    /// The incremental witness-replay memory image (ordered once, for the
    /// certificate, in `finish`).
    mem: IntMap<u64, u64>,
    lifecycle: VecDeque<LifecycleEvent>,
    edges: usize,
    ambiguous: usize,
    witness_hash: u64,
    /// The placed order, recorded by a batch check only.
    witness: Option<Vec<usize>>,
    windows_sealed: u64,
    peak_live: usize,
    peak_recs: usize,
    failed: Option<CheckError>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The unsourced-read headline, shared by the immediate (SC) path and
/// the TSO parked-read path so the reports stay identical.
fn unsourced_headline(a: &Access, v: u64, stale: u64) -> String {
    if stale == 0 {
        format!(
            "a read observed value {v} at 0x{:x}, but no write ever \
             published that value there (and memory starts at 0)",
            a.addr
        )
    } else {
        format!(
            "a read observed value {v} at 0x{:x}, but no live write \
             published that value there (memory starts at 0; {stale} \
             earlier writes at this address were already retired \
             beyond the streaming window and could have published it)",
            a.addr
        )
    }
}

/// A multiplicative (Fx-style) hasher for the checker's integer keys:
/// addresses, values and core ids, hashed several times per access, where
/// SipHash cost about a third of a seal. The keys come from the trace
/// under check, so a crafted trace can make these maps slow, never a
/// verdict wrong.
///
/// It is `bulksc_stats::IntHasher`'s twin: the checker keeps its own
/// copy until it depends on `bulksc-stats`, an edge the benchmark
/// package's lock file does not list yet (ROADMAP item 4).
#[derive(Clone, Copy, Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table picks
        // buckets with the low ones.
        self.0.rotate_left(26)
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A live edge: `(from slot, to slot, relation)`.
type Edge = (u32, u32, EdgeKind);

/// The slot index's mark for a stream index that is already placed.
const PLACED: u32 = u32::MAX;

/// Stream index → live slot, as a dense vector. Live indices always lie
/// in `base..total`: everything before the oldest live window is placed.
#[derive(Default)]
struct SlotIndex {
    base: usize,
    /// Slot of stream index `base + i`, or [`PLACED`].
    slots: Vec<u32>,
}

impl SlotIndex {
    /// The live slot of stream index `idx`; `None` once it is placed.
    fn get(&self, idx: usize) -> Option<usize> {
        let s = *self.slots.get(idx.checked_sub(self.base)?)?;
        (s != PLACED).then_some(s as usize)
    }

    /// The slot of an access that must still be live.
    fn live(&self, idx: usize) -> usize {
        self.get(idx).expect("an unplaced access has a live slot")
    }

    /// Re-index after compaction. `live` is the arena, ascending by
    /// stream index, and `total` the next index to arrive.
    fn rebuild(&mut self, live: &[LiveAccess], total: usize) {
        self.base = live.first().map_or(total, |la| la.a.idx);
        self.slots.clear();
        self.slots.resize(total - self.base, PLACED);
        for (s, la) in live.iter().enumerate() {
            self.slots[la.a.idx - self.base] = s as u32;
        }
    }
}

/// The live edges in compressed sparse rows: node `u`'s out-edges are
/// `targets[offsets[u]..offsets[u + 1]]`. Built by a stable counting sort
/// of the flat edge list by source, so each node keeps its out-edges in
/// insertion order, which is the order Kahn's algorithm (and so the
/// witness and its hash) visits them in.
pub(crate) struct Csr {
    offsets: Vec<usize>,
    targets: Vec<(u32, EdgeKind)>,
}

impl Csr {
    fn new(n: usize, edges: &[Edge]) -> Csr {
        let mut offsets = vec![0usize; n + 1];
        for &(from, _, _) in edges {
            offsets[from as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut next = offsets.clone();
        let mut targets = vec![(0, EdgeKind::Po); edges.len()];
        for &(from, to, kind) in edges {
            let at = &mut next[from as usize];
            targets[*at] = (to, kind);
            *at += 1;
        }
        Csr { offsets, targets }
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Node `u`'s out-edges, `(to, relation)`, in insertion order.
    pub(crate) fn out(&self, u: usize) -> &[(u32, EdgeKind)] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }
}

fn add_edge(edge_list: &mut Vec<Edge>, edges: &mut usize, from: usize, to: usize, kind: EdgeKind) {
    // Admission keeps every live slot below `PLACED`.
    edge_list.push((from as u32, to as u32, kind));
    *edges += 1;
}

impl StreamChecker {
    /// A fresh checker.
    pub fn new(cfg: StreamConfig) -> StreamChecker {
        StreamChecker {
            cfg,
            total: 0,
            cur_window: 0,
            arena: Vec::new(),
            fresh: 0,
            edge_list: Vec::new(),
            slot_of: SlotIndex::default(),
            tails: IntMap::default(),
            tso_tails: IntMap::default(),
            pending: IntMap::default(),
            coh: CohScan::default(),
            addrs: IntMap::default(),
            writers: IntMap::default(),
            mem: IntMap::default(),
            lifecycle: VecDeque::new(),
            edges: 0,
            ambiguous: 0,
            witness_hash: FNV_OFFSET,
            witness: cfg.is_batch().then(Vec::new),
            windows_sealed: 0,
            peak_live: 0,
            peak_recs: 0,
            failed: None,
        }
    }

    /// Feed one access. Seals (and certifies) a window whenever
    /// [`StreamConfig::window`] accesses have accumulated, so an error
    /// may describe any access of the window just sealed.
    pub fn push(&mut self, a: Access) -> Result<(), CheckError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if a.idx != self.total {
            let e = CheckError::Malformed(format!(
                "access at stream position {} carries idx {}",
                self.total, a.idx
            ));
            self.failed = Some(e.clone());
            return Err(e);
        }
        let slot = self.arena.len();
        if slot >= PLACED as usize {
            let e = CheckError::Malformed(format!(
                "more than {PLACED} live accesses: certify with a smaller window"
            ));
            self.failed = Some(e.clone());
            return Err(e);
        }
        self.total += 1;
        self.slot_of.slots.push(slot as u32);
        self.arena.push(LiveAccess {
            a,
            res: Resolution::Unresolved,
            window: self.cur_window,
        });
        if self.arena.len() - self.fresh >= self.cfg.window {
            self.seal(false).inspect_err(|e| {
                self.failed = Some(e.clone());
            })?;
        }
        Ok(())
    }

    /// Feed one chunk-lifecycle event (context for violation reports).
    /// A batch check keeps every event; a windowed one keeps a ring of
    /// the most recent 65,536.
    pub fn push_lifecycle(&mut self, e: LifecycleEvent) {
        if !self.cfg.is_batch() && self.lifecycle.len() >= LIFECYCLE_KEPT {
            self.lifecycle.pop_front();
        }
        self.lifecycle.push_back(e);
    }

    /// Seal the final (partial) window, place everything still live, and
    /// return the certificate.
    pub fn finish(mut self) -> Result<ScCertificate, CheckError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.seal(true)?;
        Ok(ScCertificate {
            model: self.cfg.model,
            accesses: self.total,
            edges: self.edges,
            ambiguous_reads: self.ambiguous,
            windows: self.windows_sealed,
            peak_live: self.peak_live,
            peak_write_records: self.peak_recs,
            witness_hash: self.witness_hash,
            witness: self.witness,
            final_memory: self.mem.into_iter().collect(),
        })
    }

    fn violate(
        &self,
        kind: ViolationKind,
        offenders: Vec<Access>,
        edge_kinds: Vec<EdgeKind>,
        headline: String,
    ) -> CheckError {
        let life: Vec<LifecycleEvent> = self.lifecycle.iter().copied().collect();
        violation(offenders, &life, kind, edge_kinds, headline, self.cfg.model)
    }

    /// TSO program order for one core's window slice (already sorted by
    /// po): ppo keeps R→R, W→W, and R→W order and drops every pure
    /// store → pure load pair — the order a FIFO store buffer relaxes.
    /// RMWs drain the buffer first, so they order against both
    /// frontiers and re-anchor both.
    fn seal_po_tso(&mut self, core: u32, slots: &[usize]) -> Result<(), CheckError> {
        let state = self.tso_tails.entry(core).or_default();
        for &s in slots {
            let x = &self.arena[s].a;
            let is_read = x.observed().is_some();
            let is_write = x.published().is_some();
            // Malformedness is per sub-stream: loads retire in po order
            // and stores drain in po order, but a store may arrive after
            // po-later loads (it sat in the buffer).
            let follows = |tail: Option<(u64, usize)>| -> Result<Option<usize>, CheckError> {
                let Some((tail_po, idx)) = tail else {
                    return Ok(None);
                };
                if x.po == tail_po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} has two accesses with program-order index {}",
                        x.po
                    )));
                }
                if x.po < tail_po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} access with program-order index {} arrived \
                         after index {tail_po} was sealed in an earlier window: windowed \
                         checking requires per-core po-monotone streams",
                        x.po
                    )));
                }
                Ok(Some(idx))
            };
            // At most three distinct predecessors, in edge order.
            let mut preds = [0usize; 3];
            let mut n = 0;
            let mut pred = |idx: usize| {
                if !preds[..n].contains(&idx) {
                    preds[n] = idx;
                    n += 1;
                }
            };
            let from_r = if is_read {
                follows(state.last_r)?
            } else {
                None
            };
            let from_w = if is_write {
                follows(state.last_w)?
            } else {
                None
            };
            for idx in [from_r, from_w].into_iter().flatten() {
                pred(idx);
            }
            if is_write && !is_read {
                // Pure store: its R→W edge comes from the last read with
                // a *smaller* po — the read frontier itself may already be
                // past this store's po.
                while state.reads_log.len() >= 2 && state.reads_log[1].0 < x.po {
                    state.reads_log.pop_front();
                }
                if let Some(&(rpo, ridx)) = state.reads_log.front() {
                    if rpo < x.po {
                        pred(ridx);
                    }
                }
            }
            if is_read {
                if matches!(x.kind, AccessKind::Rmw { .. }) {
                    // Everything earlier is transitively ordered through
                    // the RMW: it re-anchors the R→W candidate log.
                    state.reads_log.clear();
                }
                state.reads_log.push_back((x.po, x.idx));
                state.last_r = Some((x.po, x.idx));
            }
            if is_write {
                state.last_w = Some((x.po, x.idx));
            }
            for &idx in &preds[..n] {
                match self.slot_of.get(idx) {
                    Some(from) => {
                        add_edge(&mut self.edge_list, &mut self.edges, from, s, EdgeKind::Po)
                    }
                    None => self.edges += 1, // already satisfied by the prefix
                }
            }
        }
        Ok(())
    }

    /// Advance the TSO per-location coherence scan: per (core, address),
    /// coherence positions must be non-decreasing along program order
    /// (strictly increasing across writes). An entry is checked only
    /// once no earlier-po access can still arrive — writes immediately
    /// (every po-earlier access has retired, hence arrived, when a store
    /// drains), reads once the core's write frontier passes their po or
    /// the trace ends.
    fn coh_advance(&mut self, finalize: bool) -> Result<(), CheckError> {
        let Some(CohViolation {
            prev,
            acc,
            had,
            got,
        }) = self.coh.advance(&self.tso_tails, finalize)
        else {
            return Ok(());
        };
        Err(self.violate(
            ViolationKind::Coherence,
            vec![prev, acc],
            Vec::new(),
            format!(
                "core {} saw address 0x{:x}'s write history out of order: a \
                 program-order-later access claims coherence position {got} \
                 after position {had} was already established — per-location \
                 SC (CoRR/CoWR/CoWW/CoRW) binds under TSO too",
                acc.core, acc.addr
            ),
        ))
    }

    /// Certify one window: admit the buffered accesses into the live
    /// graph, sort, place the ancestor closure of the previous window
    /// (everything, when `finalize`), and expire stale write records.
    fn seal(&mut self, finalize: bool) -> Result<(), CheckError> {
        let w = self.cur_window;
        // 1. The window's accesses were admitted into the live arena on
        // push (slots stay ascending by idx).
        let first_new_slot = self.fresh;

        // 2. po: per-core program order within the window, chained to the
        // carried per-core tail across windows.
        let mut per_core: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for slot in first_new_slot..self.arena.len() {
            per_core
                .entry(self.arena[slot].a.core)
                .or_default()
                .push(slot);
        }
        for (core, slots) in per_core.iter_mut() {
            slots.sort_by_key(|&s| self.arena[s].a.po);
            if self.cfg.model == MemoryModel::Tso {
                self.seal_po_tso(*core, slots)?;
                continue;
            }
            if let Some((tail, tail_placed)) = self.tails.get(core) {
                let first = self.arena[slots[0]].a;
                if first.po == tail.po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} has two accesses with program-order index {}",
                        first.po
                    )));
                }
                if first.po < tail.po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} access with program-order index {} arrived \
                         after index {} was sealed in an earlier window: windowed \
                         checking requires per-core po-monotone streams",
                        first.po, tail.po
                    )));
                }
                if *tail_placed {
                    self.edges += 1; // already satisfied by the prefix
                } else {
                    let from = self.slot_of.live(tail.idx);
                    add_edge(
                        &mut self.edge_list,
                        &mut self.edges,
                        from,
                        slots[0],
                        EdgeKind::Po,
                    );
                }
            }
            for pair in slots.windows(2) {
                let (a, b) = (self.arena[pair[0]].a, self.arena[pair[1]].a);
                if a.po == b.po {
                    return Err(CheckError::Malformed(format!(
                        "core {} has two accesses with program-order index {}",
                        a.core, a.po
                    )));
                }
                add_edge(
                    &mut self.edge_list,
                    &mut self.edges,
                    pair[0],
                    pair[1],
                    EdgeKind::Po,
                );
            }
            let last = self.arena[*slots.last().expect("nonempty group")].a;
            self.tails.insert(*core, (last, false));
        }

        // 3. co + write records, in arrival (= coherence) order. Also
        // discharges fr edges that were deferred until a coherence
        // successor existed.
        for slot in first_new_slot..self.arena.len() {
            let a = self.arena[slot].a;
            let Some(v) = a.published() else { continue };
            let st = self.addrs.entry(a.addr).or_default();
            let rank = st.writes;
            st.writes += 1;
            // Whether the previous write, of rank `rank - 1`, is placed.
            let prev_placed = rank <= st.placed;
            if rank == 0 {
                st.first_write = Some(a);
                for r in std::mem::take(&mut st.init_readers) {
                    match self.slot_of.get(r) {
                        Some(rs) => {
                            add_edge(&mut self.edge_list, &mut self.edges, rs, slot, EdgeKind::Fr)
                        }
                        None => self.edges += 1, // reader already placed
                    }
                }
            }
            if let Some(prev) = st.recs.back_mut() {
                for r in std::mem::take(&mut prev.readers) {
                    match self.slot_of.get(r) {
                        Some(rs) => {
                            add_edge(&mut self.edge_list, &mut self.edges, rs, slot, EdgeKind::Fr)
                        }
                        None => self.edges += 1, // reader already placed
                    }
                }
                if prev_placed {
                    self.edges += 1; // co edge satisfied by the prefix
                } else {
                    let from = self.slot_of.live(prev.a.idx);
                    add_edge(
                        &mut self.edge_list,
                        &mut self.edges,
                        from,
                        slot,
                        EdgeKind::Co,
                    );
                }
            }
            st.recs.push_back(WriteRec {
                a,
                window: w,
                readers: Vec::new(),
            });
            self.writers.entry((a.addr, v)).or_default().push(rank);
            if self.cfg.model == MemoryModel::Tso {
                self.coh.claim(CohRank::Write(rank + 1), &a);
                // Discharge reads that parked on this (addr, value): a
                // same-core read is store-buffer forwarding (internal
                // rf — no ghb edge, replay skipped, fr deferred on this
                // record); a cross-core read observed the store before
                // it was globally visible, which even TSO forbids.
                if let Some(waiters) = self.pending.remove(&(a.addr, v)) {
                    for rd in waiters {
                        if rd.core != a.core {
                            return Err(self.violate(
                                ViolationKind::UnsourcedRead,
                                vec![a, rd],
                                Vec::new(),
                                format!(
                                    "a read on core {} observed value {v} at 0x{:x} \
                                     before the only store publishing it (on core {}) \
                                     became visible: TSO forwarding lets a core read \
                                     its own buffered store early, never another \
                                     core's",
                                    rd.core, rd.addr, a.core
                                ),
                            ));
                        }
                        st.recs
                            .back_mut()
                            .expect("record just pushed")
                            .readers
                            .push(rd.idx);
                        if let Some(rs) = self.slot_of.get(rd.idx) {
                            self.arena[rs].res = Resolution::PinnedInternal;
                        }
                        self.coh.claim(CohRank::Read(rank + 1), &rd);
                    }
                }
            }
        }

        // 4. rf / fr: resolve the window's reads against the live write
        // records, in stream order. Each read is resolved just before its
        // outcome is applied: applying an outcome never changes what a
        // later resolution reads.
        let tso = self.cfg.model == MemoryModel::Tso;
        for slot in first_new_slot..self.arena.len() {
            let a = self.arena[slot].a;
            let Some(v) = a.observed() else { continue };
            let outcome = resolve_read(&self.addrs, &self.writers, &a);
            let is_rmw = matches!(a.kind, AccessKind::Rmw { .. });
            match outcome {
                ReadOutcome::Ambiguous => {
                    self.ambiguous += 1;
                    self.arena[slot].res = Resolution::Ambiguous;
                    if tso && !is_rmw {
                        self.coh.claim(CohRank::Skip, &a);
                    }
                }
                ReadOutcome::InitNoWriteYet => {
                    self.arena[slot].res = Resolution::Pinned;
                    self.addrs
                        .entry(a.addr)
                        .or_default()
                        .init_readers
                        .push(a.idx);
                    if tso {
                        self.coh.claim(CohRank::Read(0), &a);
                    }
                }
                ReadOutcome::InitEdge { first } => {
                    self.arena[slot].res = Resolution::Pinned;
                    let to = self.slot_of.live(first);
                    add_edge(&mut self.edge_list, &mut self.edges, slot, to, EdgeKind::Fr);
                    if tso {
                        self.coh.claim(CohRank::Read(0), &a);
                    }
                }
                ReadOutcome::InitRmwOk => {
                    // The RMW's write entry (step 3) carries its position
                    // in the TSO coherence scan.
                    self.arena[slot].res = Resolution::Pinned;
                }
                ReadOutcome::RfEdge {
                    w,
                    w_placed,
                    w_core,
                    w_rank,
                    fr,
                } => {
                    // TSO: a same-core rf is store-buffer forwarding —
                    // the read may precede its source's global
                    // visibility, so rf contributes no ghb edge and the
                    // replay check is skipped (rfe edges stay). RMWs
                    // drain the buffer first, so their rf is never a
                    // forward.
                    let internal = tso && w_core == a.core && !is_rmw;
                    self.arena[slot].res = if internal {
                        Resolution::PinnedInternal
                    } else {
                        Resolution::Pinned
                    };
                    if internal {
                        // rfi: not part of ppo ∪ rfe ∪ co ∪ fr.
                    } else if w_placed {
                        self.edges += 1; // rf satisfied by the prefix
                    } else {
                        let from = self.slot_of.live(w);
                        add_edge(
                            &mut self.edge_list,
                            &mut self.edges,
                            from,
                            slot,
                            EdgeKind::Rf,
                        );
                    }
                    match fr {
                        FrApply::None => {}
                        FrApply::Edge(succ) => {
                            let to = self.slot_of.live(succ);
                            add_edge(&mut self.edge_list, &mut self.edges, slot, to, EdgeKind::Fr);
                        }
                        FrApply::Register => {
                            let st = self.addrs.get_mut(&a.addr).expect("writer implies state");
                            let i = (w_rank - st.expired) as usize;
                            st.recs[i].readers.push(a.idx);
                        }
                    }
                    if tso && !is_rmw {
                        self.coh.claim(CohRank::Read(w_rank + 1), &a);
                    }
                }
                ReadOutcome::Unsourced { stale } => {
                    if tso && !is_rmw {
                        // Possibly a store-buffer forward whose store
                        // drains in a later window: park until the
                        // matching write arrives (step 3 discharges it;
                        // still parked at finish ⇒ violation below).
                        self.pending.entry((a.addr, v)).or_default().push(a);
                        self.coh.claim(CohRank::Pending, &a);
                        continue;
                    }
                    return Err(self.violate(
                        ViolationKind::UnsourcedRead,
                        vec![a],
                        Vec::new(),
                        unsourced_headline(&a, v, stale),
                    ));
                }
                ReadOutcome::StaleInit { first } => {
                    return Err(self.violate(
                        ViolationKind::StaleRead,
                        vec![first, a],
                        Vec::new(),
                        format!(
                            "a read observed the initial value 0 at 0x{:x}, but that \
                             address's first write is already in the certified witness \
                             prefix: the read is stale by more than a checking window",
                            a.addr
                        ),
                    ));
                }
                ReadOutcome::Stale { value, succ } => {
                    return Err(self.violate(
                        ViolationKind::StaleRead,
                        vec![succ, a],
                        Vec::new(),
                        format!(
                            "a read observed value {value} at 0x{:x}, but the write \
                             overwriting that value is already in the certified witness \
                             prefix: the read is stale by more than a checking window",
                            a.addr
                        ),
                    ));
                }
                ReadOutcome::TornRmwInit { first } => {
                    let mut set = vec![a];
                    if let Some(f) = first {
                        set.insert(0, f);
                    }
                    return Err(self.violate(
                        ViolationKind::TornRmw,
                        set,
                        Vec::new(),
                        "a read-modify-write observed the initial value but \
                         its own write is not first in coherence order: \
                         another write intervened"
                            .to_string(),
                    ));
                }
                ReadOutcome::TornRmw { w } => {
                    return Err(self.violate(
                        ViolationKind::TornRmw,
                        vec![w, a],
                        Vec::new(),
                        "a read-modify-write read from a write that is not its \
                         immediate coherence-order predecessor: another write \
                         intervened between its read and its write"
                            .to_string(),
                    ));
                }
            }
        }

        // 4b. TSO: a read still parked at the end of the trace has no
        // source anywhere — the standard unsourced violation, reported
        // for the earliest such read. Then advance the per-location
        // coherence scan over everything that became orderable.
        if self.cfg.model == MemoryModel::Tso {
            if finalize && !self.pending.is_empty() {
                let mut parked: Vec<Access> = self.pending.values().flatten().copied().collect();
                parked.sort_by_key(|p| p.idx);
                let p = parked[0];
                let pv = p.observed().expect("parked accesses are reads");
                let stale = self.addrs.get(&p.addr).map_or(0, |s| s.expired);
                return Err(self.violate(
                    ViolationKind::UnsourcedRead,
                    vec![p],
                    Vec::new(),
                    unsourced_headline(&p, pv, stale),
                ));
            }
            self.coh_advance(finalize)?;
        }

        // 5. Kahn's algorithm over the live graph; leftovers are a cycle.
        // `topo` doubles as the FIFO queue.
        let n = self.arena.len();
        let csr = Csr::new(n, &self.edge_list);
        let mut indeg = vec![0usize; n];
        for &(_, to, _) in &self.edge_list {
            indeg[to as usize] += 1;
        }
        let mut topo: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0;
        while let Some(&u) = topo.get(head) {
            head += 1;
            for &(to, _) in csr.out(u) {
                let to = to as usize;
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    topo.push(to);
                }
            }
        }
        if topo.len() < n {
            let (cycle, kinds) = find_cycle(&csr, &indeg);
            let offenders: Vec<Access> = cycle.iter().map(|&s| self.arena[s].a).collect();
            let headline = match self.cfg.model {
                MemoryModel::Sc => {
                    "po ∪ rf ∪ co ∪ fr is cyclic: no sequentially consistent \
                     interleaving explains the observed values"
                }
                MemoryModel::Tso => {
                    "ppo ∪ rfe ∪ co ∪ fr is cyclic: no TSO-conformant \
                     execution explains the observed values"
                }
            };
            return Err(self.violate(ViolationKind::Cycle, offenders, kinds, headline.to_string()));
        }

        self.peak_live = self.peak_live.max(n);
        let total_recs: usize = self.addrs.values().map(|s| s.recs.len()).sum();
        self.peak_recs = self.peak_recs.max(total_recs);

        // 6. Place the ancestor closure of everything older than the
        // current window (all of it, on finalize): a valid topological
        // prefix, emitted in topo order, replayed, and retired. Every
        // successor follows its predecessors in `topo`, so one backward
        // pass closes the older windows' accesses over their ancestors.
        let mut in_set: Vec<bool> = self
            .arena
            .iter()
            .map(|la| finalize || la.window < w)
            .collect();
        if !finalize {
            for &u in topo.iter().rev() {
                if !in_set[u] && csr.out(u).iter().any(|&(to, _)| in_set[to as usize]) {
                    in_set[u] = true;
                }
            }
        }
        for &u in &topo {
            if !in_set[u] {
                continue;
            }
            let la = &self.arena[u];
            let a = la.a;
            if la.res == Resolution::Pinned {
                let v = a.observed().expect("pinned implies read");
                let current = self.mem.get(&a.addr).copied().unwrap_or(0);
                if current != v {
                    return Err(CheckError::Malformed(format!(
                        "witness replay mismatch at access {}: observed {v} at \
                         0x{:x} but the witness memory holds {current} (oracle \
                         invariant broken)",
                        a.idx, a.addr
                    )));
                }
            }
            if let Some(v) = a.published() {
                self.mem.insert(a.addr, v);
                let st = self.addrs.get_mut(&a.addr).expect("write implies state");
                debug_assert_eq!(
                    st.rec(st.placed).a.idx,
                    a.idx,
                    "an address's writes are placed in coherence order"
                );
                st.placed += 1;
            }
            if let Some((tail, tail_placed)) = self.tails.get_mut(&a.core) {
                if tail.idx == a.idx {
                    *tail_placed = true;
                }
            }
            self.witness_hash = (self.witness_hash ^ a.idx as u64).wrapping_mul(FNV_PRIME);
            if let Some(witness) = &mut self.witness {
                witness.push(a.idx);
            }
        }

        // Compact: keep the survivors and their edges, renumbered.
        let mut remap = vec![PLACED; n];
        let mut survivors = 0;
        for (u, placed) in in_set.iter().enumerate() {
            if !placed {
                remap[u] = survivors;
                survivors += 1;
            }
        }
        let mut survives = in_set.iter().map(|&placed| !placed);
        self.arena
            .retain(|_| survives.next().expect("one placement flag per slot"));
        self.edge_list.retain_mut(|(from, to, _)| {
            if remap[*from as usize] == PLACED {
                return false;
            }
            // Edges from a survivor into the placed set cannot exist (the
            // placed set is ancestor-closed).
            debug_assert!(remap[*to as usize] != PLACED, "edge into the placed prefix");
            (*from, *to) = (remap[*from as usize], remap[*to as usize]);
            *to != PLACED
        });
        self.slot_of.rebuild(&self.arena, self.total);
        self.fresh = self.arena.len();

        // 7. Retention: expire write records whose coherence successor is
        // at least one full window old; the last write per address stays
        // resolvable forever.
        if !finalize {
            for (&addr, st) in self.addrs.iter_mut() {
                while st.recs.len() > 1 && st.recs[1].window < w {
                    let dead = st.recs.pop_front().expect("len checked");
                    let rank = st.expired;
                    st.expired += 1;
                    let v = dead.a.published().expect("records are writes");
                    if let Some(list) = self.writers.get_mut(&(addr, v)) {
                        list.retain(|&r| r != rank);
                        if list.is_empty() {
                            self.writers.remove(&(addr, v));
                        }
                    }
                }
            }
        }

        self.windows_sealed += 1;
        self.cur_window += 1;
        Ok(())
    }
}

/// Run the streaming checker over an in-memory access slice (the
/// streaming counterpart of [`crate::check`]).
pub fn check_stream(
    accesses: &[Access],
    lifecycle: &[LifecycleEvent],
    cfg: StreamConfig,
) -> Result<ScCertificate, CheckError> {
    let mut checker = StreamChecker::new(cfg);
    for e in lifecycle {
        checker.push_lifecycle(*e);
    }
    for a in accesses {
        checker.push(*a)?;
    }
    checker.finish()
}

/// Certify a trace read from `events`, JSONL or BTF alike: each event is
/// classified ([`crate::classify_event`]) and fed to the checker as it is
/// decoded, so the trace, the access vector and the full constraint graph
/// are never materialized. A decode error names the source's origin and
/// its line or block, and ends the check as [`StreamError::Input`].
pub fn check_events(
    events: EventSource<'_>,
    cfg: StreamConfig,
) -> Result<ScCertificate, StreamError> {
    let _prof = bulksc_prof::scope(bulksc_prof::Phase::Oracle);
    let mut checker = StreamChecker::new(cfg);
    let mut count = 0usize;
    for item in events {
        let (cycle, ev) = item.map_err(|e| StreamError::Input(e.to_string()))?;
        match crate::classify_event(cycle, &ev) {
            TraceLine::Access(mut a) => {
                a.idx = count;
                count += 1;
                checker.push(a).map_err(StreamError::Check)?;
            }
            TraceLine::Lifecycle(e) => checker.push_lifecycle(e),
            TraceLine::Skip => {}
        }
    }
    checker.finish().map_err(StreamError::Check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    /// Synthesize a legal (SC by construction) interleaved trace with the
    /// same shape as the million-access soak test: unique-value stores,
    /// loads of the current memory value, periodic RMWs.
    fn synth(n: usize, cores: u32, words: u64) -> Vec<Access> {
        let mut mem: HashMap<u64, u64> = HashMap::new();
        let mut po = vec![0u64; cores as usize];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let core = (i % cores as usize) as u32;
            let addr = (i as u64).wrapping_mul(0x9e37_79b9) % words * 8;
            let kind = if i % 35 == 4 {
                let old = mem.get(&addr).copied().unwrap_or(0);
                mem.insert(addr, i as u64 + 1);
                AccessKind::Rmw {
                    old,
                    new: i as u64 + 1,
                }
            } else if i % 5 < 2 {
                mem.insert(addr, i as u64 + 1);
                AccessKind::Store {
                    value: i as u64 + 1,
                }
            } else {
                AccessKind::Load {
                    value: mem.get(&addr).copied().unwrap_or(0),
                }
            };
            out.push(Access {
                idx: i,
                core,
                seq: (i / 100) as u64,
                po: po[core as usize],
                addr,
                kind,
                retired_at: 10 + i as u64,
                emitted_at: 20 + i as u64,
            });
            po[core as usize] += 1;
        }
        out
    }

    #[test]
    fn windowed_verdict_matches_batch_on_a_legal_trace() {
        let t = synth(8_000, 4, 32);
        let batch = check(&t, &[]).expect("legal by construction");
        let win = check_stream(&t, &[], StreamConfig::windowed(512))
            .expect("windowed certification agrees");
        assert_eq!(win.accesses, batch.accesses);
        assert_eq!(win.ambiguous_reads, batch.ambiguous_reads);
        assert_eq!(win.final_memory, batch.final_memory);
        assert!(win.windows > 1, "trace spans many windows");
        assert!(
            win.peak_live <= 2 * 512,
            "frontier bounded by two windows, got {}",
            win.peak_live
        );
        assert!(win.witness.is_none(), "windowed mode stores no witness");
    }

    #[test]
    fn peak_memory_is_flat_in_trace_length() {
        let short = check_stream(&synth(4_000, 4, 32), &[], StreamConfig::windowed(256))
            .expect("short certifies");
        let long = check_stream(&synth(16_000, 4, 32), &[], StreamConfig::windowed(256))
            .expect("long certifies");
        assert!(long.windows > 3 * short.windows);
        assert!(
            long.peak_live <= 2 * 256 && short.peak_live <= 2 * 256,
            "live set bounded by the window, not the trace: {} vs {}",
            short.peak_live,
            long.peak_live
        );
        assert!(
            long.peak_write_records <= short.peak_write_records + 64,
            "write records do not grow with trace length: {} vs {}",
            short.peak_write_records,
            long.peak_write_records
        );
    }

    #[test]
    fn stale_init_read_is_rejected_in_windowed_mode() {
        // A read of the initial 0 arriving two windows after the first
        // write was placed: batch would certify (order the read first),
        // windowed mode reports it — the documented divergence.
        let mk = |idx, core, po, addr, kind| Access {
            idx,
            core,
            seq: 0,
            po,
            addr,
            kind,
            retired_at: 10 + idx as u64,
            emitted_at: 20 + idx as u64,
        };
        let t = [
            mk(0, 0, 0, 0x8, AccessKind::Store { value: 1 }),
            mk(1, 0, 1, 0x10, AccessKind::Store { value: 2 }),
            mk(2, 0, 2, 0x18, AccessKind::Store { value: 3 }),
            mk(3, 1, 0, 0x8, AccessKind::Load { value: 0 }),
        ];
        check(&t, &[]).expect("batch orders the init read first");
        let err = check_stream(&t, &[], StreamConfig::windowed(1)).expect_err("stale in windows");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::StaleRead);
        assert!(v.report.contains("certified witness prefix"));
    }

    #[test]
    fn po_regression_across_windows_is_malformed() {
        let mut t = synth(4, 1, 4);
        t[2].po = 1; // duplicates the sealed window's tail po
        let err = check_stream(&t, &[], StreamConfig::windowed(2)).expect_err("duplicate po");
        assert!(matches!(err, CheckError::Malformed(_)));
        assert!(err
            .to_string()
            .contains("two accesses with program-order index 1"));
        let mut t = synth(4, 1, 4);
        t[3].po = 1; // older than the sealed tail, but not a duplicate
        let err = check_stream(&t, &[], StreamConfig::windowed(3)).expect_err("po regressed");
        assert!(err.to_string().contains("po-monotone"));
    }

    #[test]
    fn violations_inside_a_window_match_batch_reports() {
        // The forbidden SB outcome, streamed one access per push.
        let mk = |idx, core, po, addr, value, store| Access {
            idx,
            core,
            seq: 0,
            po,
            addr,
            kind: if store {
                AccessKind::Store { value }
            } else {
                AccessKind::Load { value }
            },
            retired_at: 10 + idx as u64,
            emitted_at: 20 + idx as u64,
        };
        let t = [
            mk(0, 0, 0, 0xa, 1, true),
            mk(1, 0, 1, 0xb, 0, false),
            mk(2, 1, 0, 0xb, 2, true),
            mk(3, 1, 1, 0xa, 0, false),
        ];
        let batch = check(&t, &[]).expect_err("forbidden SB");
        let stream = check_stream(&t, &[], StreamConfig::batch()).expect_err("forbidden SB");
        assert_eq!(
            batch.to_string(),
            stream.to_string(),
            "reports byte-identical"
        );
    }

    /// Certify `bytes` (either encoding) through [`check_events`].
    fn check_bytes(
        bytes: &[u8],
        origin: &str,
        cfg: StreamConfig,
    ) -> Result<ScCertificate, StreamError> {
        let events =
            EventSource::new(bytes, origin).map_err(|e| StreamError::Input(e.to_string()))?;
        check_events(events, cfg)
    }

    /// A trace's JSONL text and its BTF encoding.
    fn both_encodings(events: &[(u64, bulksc_trace::Event)]) -> (String, Vec<u8>) {
        let mut jsonl = bulksc_trace::jsonl_header();
        jsonl.push('\n');
        let mut btf = bulksc_trace::BtfWriter::new(Vec::new())
            .unwrap()
            .with_block_events(512);
        for (cycle, ev) in events {
            jsonl.push_str(&ev.jsonl(*cycle));
            jsonl.push('\n');
            btf.push(*cycle, ev).unwrap();
        }
        (jsonl, btf.finish().unwrap())
    }

    #[test]
    fn jsonl_reader_streams_and_names_lines() {
        use bulksc_trace::Event;
        let events = [
            (
                1,
                Event::ValStore {
                    core: 0,
                    seq: 0,
                    po: 0,
                    addr: 8,
                    value: 1,
                    retired_at: 1,
                },
            ),
            (
                2,
                Event::ValLoad {
                    core: 1,
                    seq: 0,
                    po: 0,
                    addr: 8,
                    value: 1,
                    retired_at: 2,
                },
            ),
        ];
        let (good, btf) = both_encodings(&events);
        for cfg in [StreamConfig::batch(), StreamConfig::windowed(1)] {
            for (bytes, origin) in [(good.as_bytes(), "in.jsonl"), (&btf[..], "in.btf")] {
                let cert = check_bytes(bytes, origin, cfg).expect("two-access trace");
                assert_eq!(cert.accesses, 2);
                assert_eq!(cert.final_memory, BTreeMap::from([(8, 1)]));
            }
            let bad = format!("{good}not json\n");
            let err = check_bytes(bad.as_bytes(), "in.jsonl", cfg).expect_err("line 4");
            let StreamError::Input(m) = err else {
                panic!("expected input error, got {err:?}");
            };
            assert_eq!(m, "in.jsonl: line 4: not valid JSON");
            let cut = check_bytes(&btf[..btf.len() - 1], "in.btf", cfg).expect_err("cut");
            assert!(cut.to_string().starts_with("in.btf: "), "{cut}");
        }
        let err = check_bytes(b"", "in.jsonl", StreamConfig::batch()).expect_err("empty");
        assert!(err.to_string().contains("empty trace"));
    }

    #[test]
    fn btf_reader_matches_jsonl_reader() {
        use bulksc_trace::Event;
        // Synthesize a legal trace, render it both ways, and demand the
        // two encodings produce identical certificates.
        let events: Vec<(u64, Event)> = synth(5_000, 4, 64)
            .iter()
            .map(|a| {
                let ev = match a.kind {
                    AccessKind::Load { value } => Event::ValLoad {
                        core: a.core,
                        seq: a.seq,
                        po: a.po,
                        addr: a.addr,
                        value,
                        retired_at: a.retired_at,
                    },
                    AccessKind::Store { value } => Event::ValStore {
                        core: a.core,
                        seq: a.seq,
                        po: a.po,
                        addr: a.addr,
                        value,
                        retired_at: a.retired_at,
                    },
                    AccessKind::Rmw { old, new } => Event::ValRmw {
                        core: a.core,
                        seq: a.seq,
                        po: a.po,
                        addr: a.addr,
                        old,
                        new,
                        retired_at: a.retired_at,
                    },
                };
                (a.emitted_at, ev)
            })
            .collect();
        let (jsonl, btf) = both_encodings(&events);
        for cfg in [StreamConfig::batch(), StreamConfig::windowed(512)] {
            let from_text = check_bytes(jsonl.as_bytes(), "t.jsonl", cfg).unwrap();
            let from_btf = check_bytes(&btf, "t.btf", cfg).unwrap();
            assert_eq!(from_text.accesses, from_btf.accesses);
            assert_eq!(from_text.witness_hash, from_btf.witness_hash);
            assert_eq!(from_text.final_memory, from_btf.final_memory);
            assert_eq!(from_text.witness, from_btf.witness);
            assert_eq!(from_text.summary(), from_btf.summary());
        }

        // Input errors carry the origin, like the JSONL path's do.
        let err = check_bytes(b"BTF1junk", "t.btf", StreamConfig::batch()).expect_err("garbage");
        assert!(err.to_string().starts_with("t.btf: "), "{err}");
    }

    #[test]
    fn jsonl_lines_btf_cannot_hold_are_refused() {
        // Each line reads back as an event BTF has no record for: an
        // unknown kind, an unknown squash cause, a core beyond u32. The
        // trace is refused at that line in every configuration, as its
        // BTF encoding would be.
        let header = bulksc_trace::jsonl_header();
        let store = bulksc_trace::Event::ValStore {
            core: 0,
            seq: 0,
            po: 0,
            addr: 8,
            value: 1,
            retired_at: 1,
        }
        .jsonl(1);
        for (line, want) in [
            (
                "{\"t\":2,\"ev\":\"future_event\",\"core\":0}",
                "unknown event kind \"future_event\"",
            ),
            (
                "{\"t\":2,\"ev\":\"squash\",\"core\":0,\"seq\":1,\"cause\":\"gremlins\",\"squashed_instrs\":3}",
                "unknown squash cause \"gremlins\"",
            ),
            (
                "{\"t\":2,\"ev\":\"val_load\",\"core\":4294967296,\"seq\":0,\"po\":1,\"addr\":8,\"value\":1,\"retired_at\":2}",
                "field \"core\" exceeds u32",
            ),
        ] {
            let text = format!("{header}\n{store}\n{line}\n");
            for cfg in [StreamConfig::batch(), StreamConfig::windowed(1)] {
                let err = check_bytes(text.as_bytes(), "p.jsonl", cfg).expect_err(line);
                let StreamError::Input(m) = err else {
                    panic!("expected input error, got {err:?}");
                };
                assert_eq!(m, format!("p.jsonl: line 3: {want}"));
            }
        }
    }
}
