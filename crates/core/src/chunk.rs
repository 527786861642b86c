//! Chunks: the unit BulkSC enforces consistency at (paper §3).
//!
//! A [`Chunk`] is a dynamically-delimited group of consecutive
//! instructions that executes speculatively and appears to commit
//! atomically. Each carries:
//!
//! * its R / W (and Wpriv) signatures, maintained by the BDM;
//! * the speculative store buffer (word → value), which is both the
//!   forwarding source for the chunk's own loads and the payload applied
//!   to committed memory when the arbiter grants the commit;
//! * the program checkpoint to restore on a squash;
//! * the [`PrivateBuffer`] bookkeeping of §5.2.

use bulksc_cpu::Checkpoint;
use bulksc_net::ChunkTag;
use bulksc_sig::{Addr, LineAddr, SigMode, SignatureConfig, TrackedSig};
use bulksc_stats::{IntMap, IntSet};
use bulksc_trace::Event;

/// Lifecycle of a chunk. Chunks leave the core's active list when the
/// commit is granted (their signatures are cleared at that point, §4.1.1),
/// so no state beyond `Arbitrating` appears here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkState {
    /// Instructions are still being fetched into the chunk.
    Open,
    /// The chunk boundary has been reached; instructions may still be
    /// in flight.
    Closed,
    /// A permission-to-commit request is with the arbiter.
    Arbitrating,
}

/// One speculative chunk.
pub struct Chunk {
    /// Machine-wide identity.
    pub tag: ChunkTag,
    /// Lifecycle state.
    pub state: ChunkState,
    /// Read-set signature.
    pub r: TrackedSig,
    /// Write-set signature (consistency-relevant writes only).
    pub w: TrackedSig,
    /// Private-write signature (§5).
    pub wpriv: TrackedSig,
    /// Speculative stores by word: the last write per word wins.
    pub stores: IntMap<Addr, u64>,
    /// Order of first-writes (for deterministic commit application).
    pub store_order: Vec<(Addr, u64)>,
    /// Program checkpoint taken when the chunk opened.
    pub checkpoint: Checkpoint,
    /// Lines this chunk touched that have not yet arrived in the L1;
    /// the chunk cannot request commit until this is empty (§6: the line
    /// has to be received before the chunk commits).
    pub pending_lines: IntSet<LineAddr>,
    /// Dynamic instructions retired into this chunk.
    pub retired: u64,
    /// Lines of this chunk's read set displaced from the L1 (Table 3:
    /// harmless under BulkSC, counted).
    pub read_displacements: u64,
    /// Cycle the chunk opened (latency accounting: the execute phase runs
    /// from here to the first commit request).
    pub t_start: u64,
    /// Cycle the first commit-permission request was sent, if any
    /// (arbitration latency counts retries from this first attempt).
    pub t_first_request: Option<u64>,
    /// Value-trace events buffered at retire (only while a tracer is
    /// attached), emitted in one block when the commit is granted — so a
    /// squash discards them along with the rest of the chunk and the
    /// trace never shows speculative work.
    pub accesses: Vec<Event>,
}

impl Chunk {
    /// A fresh open chunk with empty signatures.
    pub fn new(
        tag: ChunkTag,
        sig: &SignatureConfig,
        mode: SigMode,
        checkpoint: Checkpoint,
    ) -> Self {
        Chunk {
            tag,
            state: ChunkState::Open,
            r: TrackedSig::new(sig, mode),
            w: TrackedSig::new(sig, mode),
            wpriv: TrackedSig::new(sig, mode),
            stores: IntMap::default(),
            store_order: Vec::new(),
            checkpoint,
            pending_lines: IntSet::default(),
            retired: 0,
            read_displacements: 0,
            t_start: 0,
            t_first_request: None,
            accesses: Vec::new(),
        }
    }

    /// Record a speculative store.
    pub fn push_store(&mut self, addr: Addr, value: u64) {
        self.stores.insert(addr, value);
        self.store_order.push((addr, value));
    }

    /// The newest speculative value this chunk holds for `addr`, if any.
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        self.stores.get(&addr).copied()
    }

    /// True if an incoming committing W signature collides with this
    /// chunk (bulk disambiguation: `(Wc ∩ R) ∪ (Wc ∩ W)` non-empty).
    pub fn collides_with(&self, wc: &TrackedSig) -> bool {
        wc.intersects(&self.r) || wc.intersects(&self.w)
    }

    /// Like [`Chunk::collides_with`] but against the exact shadows: would
    /// an alias-free machine have collided? Distinguishes true-sharing
    /// squashes from aliasing squashes (Table 3).
    pub fn collides_exactly_with(&self, wc: &TrackedSig) -> bool {
        wc.intersects_exact(&self.r) || wc.intersects_exact(&self.w)
    }

    /// True if the chunk is closed and all its lines have arrived: it may
    /// request commit once no slot of it is left in the window.
    pub fn ready_to_commit(&self) -> bool {
        self.state == ChunkState::Closed && self.pending_lines.is_empty()
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("tag", &self.tag.to_string())
            .field("state", &self.state)
            .field("retired", &self.retired)
            .field("r", &self.r.len())
            .field("w", &self.w.len())
            .field("wpriv", &self.wpriv.len())
            .field("pending", &self.pending_lines.len())
            .finish()
    }
}

/// The Private Buffer of §5.2: per-core bookkeeping of lines whose old
/// version is retained so their writeback (and W-signature pollution) can
/// be skipped.
///
/// Values are not stored here: in this simulator the committed value of a
/// dirty non-speculative line is exactly what the global value store
/// already holds, so the buffer tracks membership, capacity, and the
/// "add back to W" protocol.
#[derive(Clone, Debug)]
pub struct PrivateBuffer {
    lines: Vec<LineAddr>,
    capacity: usize,
}

impl PrivateBuffer {
    /// An empty buffer holding up to `capacity` lines (paper: ≈24).
    pub fn new(capacity: u32) -> Self {
        PrivateBuffer {
            lines: Vec::new(),
            capacity: capacity as usize,
        }
    }

    /// True if `line`'s pre-image is retained here.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// Record `line`'s pre-image. Returns `false` if the buffer is full
    /// (the caller must fall back to the writeback-and-W path).
    pub fn insert(&mut self, line: LineAddr) -> bool {
        if self.contains(line) {
            return true;
        }
        if self.lines.len() >= self.capacity {
            return false;
        }
        self.lines.push(line);
        true
    }

    /// Remove `line` (external request took the old version, §5.2).
    pub fn remove(&mut self, line: LineAddr) -> bool {
        match self.lines.iter().position(|&l| l == line) {
            Some(i) => {
                self.lines.remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of retained lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if no lines are retained.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Drop everything (commit granted or chunk squashed).
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_cpu::FrontEnd;
    use bulksc_workloads::ScriptProgram;

    fn chunk(tag_seq: u64) -> Chunk {
        Chunk::new(
            ChunkTag {
                core: 0,
                seq: tag_seq,
            },
            &SignatureConfig::default(),
            SigMode::Bloom,
            FrontEnd::new(Box::new(ScriptProgram::new(vec![])), 0).checkpoint(),
        )
    }

    #[test]
    fn store_forwarding_last_write_wins() {
        let mut c = chunk(1);
        c.push_store(Addr(8), 1);
        c.push_store(Addr(8), 2);
        c.push_store(Addr(9), 7);
        assert_eq!(c.forward(Addr(8)), Some(2));
        assert_eq!(c.forward(Addr(9)), Some(7));
        assert_eq!(c.forward(Addr(10)), None);
        assert_eq!(c.store_order.len(), 3);
    }

    #[test]
    fn collision_uses_r_and_w() {
        let cfg = SignatureConfig::default();
        let mut c = chunk(1);
        c.r.insert(LineAddr(5));
        c.w.insert(LineAddr(9));
        let mut wc = TrackedSig::new(&cfg, SigMode::Bloom);
        wc.insert(LineAddr(5));
        assert!(c.collides_with(&wc));
        assert!(c.collides_exactly_with(&wc));
        let mut wc2 = TrackedSig::new(&cfg, SigMode::Bloom);
        wc2.insert(LineAddr(9));
        assert!(c.collides_with(&wc2), "write-write collisions count too");
        let mut wc3 = TrackedSig::new(&cfg, SigMode::Bloom);
        wc3.insert(LineAddr(1_000_003));
        assert!(!c.collides_exactly_with(&wc3));
    }

    #[test]
    fn wpriv_does_not_collide() {
        // Private writes are exempt from disambiguation (§5): only R and W
        // participate in collision checks.
        let cfg = SignatureConfig::default();
        let mut c = chunk(1);
        c.wpriv.insert(LineAddr(5));
        let mut wc = TrackedSig::new(&cfg, SigMode::Bloom);
        wc.insert(LineAddr(5));
        assert!(!c.collides_exactly_with(&wc));
    }

    #[test]
    fn readiness_requires_closed_and_no_pending() {
        let mut c = chunk(1);
        assert!(!c.ready_to_commit());
        c.state = ChunkState::Closed;
        assert!(c.ready_to_commit());
        c.pending_lines.insert(LineAddr(3));
        assert!(!c.ready_to_commit());
        c.pending_lines.clear();
        assert!(c.ready_to_commit());
    }

    #[test]
    fn private_buffer_capacity_and_membership() {
        let mut b = PrivateBuffer::new(2);
        assert!(b.is_empty());
        assert!(b.insert(LineAddr(1)));
        assert!(b.insert(LineAddr(1)), "re-insert is idempotent");
        assert!(b.insert(LineAddr(2)));
        assert!(!b.insert(LineAddr(3)), "full buffer rejects");
        assert_eq!(b.len(), 2);
        assert!(b.contains(LineAddr(1)));
        assert!(b.remove(LineAddr(1)));
        assert!(!b.remove(LineAddr(1)));
        assert!(b.insert(LineAddr(3)), "room again after removal");
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn debug_is_informative() {
        let c = chunk(3);
        let s = format!("{c:?}");
        assert!(s.contains("C0#3"));
    }
}
