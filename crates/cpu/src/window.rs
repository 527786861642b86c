//! The instruction window (ROB) shared by all core models.
//!
//! A [`InstrWindow`] holds fetched-but-not-retired instructions in program
//! order. Capacity is counted in *dynamic* instructions, so a
//! `Compute(50)` batch occupies 50 entries — that keeps the window
//! pressure realistic while letting programs emit computation in batches.
//!
//! The window owns every slot-state change: [`InstrWindow::issue`] moves
//! memory operations out of `Waiting`, [`InstrWindow::complete`] finishes
//! a load, and [`InstrWindow::reissue`] / [`InstrWindow::reissue_loads`]
//! send loads back. Because nothing else can return a slot to `Waiting`,
//! the issue scan resumes where it last stopped instead of rewalking the
//! window on every cycle.
//!
//! The window also counts its in-window stores and RMWs per word-hash
//! bucket, so [`InstrWindow::forward`] answers a load no older write can
//! hit without walking the window, and it counts its own mutations
//! ([`InstrWindow::changes`]) so a core can tell an idle tick.

use std::collections::VecDeque;

use bulksc_sig::{Addr, LineAddr};
use bulksc_workloads::Instr;

/// Identifies a slot for the lifetime of the window (monotonic, never
/// reused).
pub type SlotId = u64;

/// Execution state of a window slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// Not yet issued to the memory system (or compute not started).
    Waiting,
    /// Access in flight.
    Issued,
    /// Complete; for reads, `value` holds the loaded value.
    Done,
}

/// What an older in-window access forwards to a load (see
/// [`InstrWindow::forward`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forward {
    /// No older in-window store or RMW to this word.
    None,
    /// The youngest older same-word store's value.
    Value(u64),
    /// The youngest older same-word access is an RMW that has not
    /// performed yet: the value is unknown until it does.
    Unknown,
}

/// One in-flight instruction.
#[derive(Clone, Debug)]
pub struct Slot {
    /// Stable identity.
    pub id: SlotId,
    /// The instruction.
    pub instr: Instr,
    /// Execution state.
    pub state: SlotState,
    /// Result value (reads), captured at completion.
    pub value: Option<u64>,
    /// Dynamic instructions left to retire (compute batches drain over
    /// multiple cycles).
    pub remaining: u32,
    /// The model's tag, fixed at fetch: the BulkSC chunk or the SC++
    /// epoch the slot belongs to. Tags never decrease along the window,
    /// so the oldest slot carries the smallest.
    pub tag: u64,
}

/// Word-hash buckets of the store/RMW counts behind [`InstrWindow::forward`].
const WRITE_BUCKETS: usize = 256;

/// The bucket of word `addr` (Fibonacci hashing: the top byte of the
/// product, so strided addresses spread).
fn write_bucket(addr: Addr) -> usize {
    (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// The word a store or RMW writes.
fn written_word(instr: &Instr) -> Option<Addr> {
    match *instr {
        Instr::Store { addr, .. } | Instr::Rmw { addr, .. } => Some(addr),
        _ => None,
    }
}

/// How far the issue scan has looked: the oldest `slots` slots, which
/// fill `depth` issue-window entries (a slot counts `max(remaining, 1)`)
/// and hold `mem` memory operations. None of them is a `Waiting` memory
/// operation, so the next scan starts after them.
#[derive(Clone, Copy, Debug, Default)]
struct Scan {
    slots: usize,
    depth: u64,
    mem: usize,
}

/// Program-ordered window of in-flight instructions.
///
/// # Example
///
/// ```
/// use bulksc_cpu::window::{InstrWindow, SlotState};
/// use bulksc_workloads::Instr;
///
/// let mut w = InstrWindow::new(8);
/// let id = w.push(Instr::Compute(3), 0).unwrap();
/// assert_eq!(w.occupancy(), 3);
/// assert_eq!(w.oldest().unwrap().id, id);
/// ```
#[derive(Clone, Debug)]
pub struct InstrWindow {
    slots: VecDeque<Slot>,
    next_id: SlotId,
    capacity: u32,
    occupancy: u64,
    scan: Scan,
    /// In-window stores and RMWs per [`write_bucket`]. A store takes one
    /// dynamic instruction, so the capacity bounds every count.
    writes: [u16; WRITE_BUCKETS],
    changes: u64,
}

impl InstrWindow {
    /// An empty window holding up to `capacity` dynamic instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u16::MAX` (the per-bucket store
    /// counts would overflow).
    pub fn new(capacity: u32) -> Self {
        assert!(
            capacity <= u16::MAX as u32,
            "window capacity {capacity} exceeds {}",
            u16::MAX
        );
        InstrWindow {
            slots: VecDeque::new(),
            next_id: 0,
            capacity,
            occupancy: 0,
            scan: Scan::default(),
            writes: [0; WRITE_BUCKETS],
            changes: 0,
        }
    }

    /// How many times the window has changed: equal counts before and
    /// after some calls mean they changed nothing. Every method that
    /// alters a slot, the slot set or the ids counts itself; an `issue`
    /// that issues nothing does not, since resuming its scan from a later
    /// point returns what a rescan would.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The write-bucket count `instr` belongs to, if it is a store or RMW.
    fn write_count(&mut self, instr: &Instr) -> Option<&mut u16> {
        Some(&mut self.writes[write_bucket(written_word(instr)?)])
    }

    /// Dynamic instructions currently in flight.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// True if `instr` fits right now. A single instruction larger than
    /// the whole capacity is admitted into an empty window (a compute
    /// batch must not deadlock fetch).
    pub fn has_room(&self, instr: &Instr) -> bool {
        self.occupancy + instr.dynamic_count() <= self.capacity as u64 || self.slots.is_empty()
    }

    /// Append an instruction in program order with the model's `tag`;
    /// `None` if there is no room.
    pub fn push(&mut self, instr: Instr, tag: u64) -> Option<SlotId> {
        if !self.has_room(&instr) {
            return None;
        }
        debug_assert!(
            self.slots.back().is_none_or(|s| s.tag <= tag),
            "slot tags must not decrease along the window"
        );
        let id = self.next_id;
        self.next_id += 1;
        self.occupancy += instr.dynamic_count();
        let remaining = match instr {
            Instr::Compute(n) => n,
            _ => 1,
        };
        if let Some(n) = self.write_count(&instr) {
            *n += 1;
        }
        self.slots.push_back(Slot {
            id,
            instr,
            state: SlotState::Waiting,
            value: None,
            remaining,
            tag,
        });
        self.changes += 1;
        Some(id)
    }

    /// The oldest in-flight instruction.
    pub fn oldest(&self) -> Option<&Slot> {
        self.slots.front()
    }

    /// Retire the oldest instruction entirely, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn pop_oldest(&mut self) -> Slot {
        let slot = self.slots.pop_front().expect("pop from empty window");
        self.occupancy -= slot.remaining as u64; // remaining dynamic instrs
        if self.scan.slots > 0 {
            self.scan.slots -= 1;
            self.scan.depth -= slot.remaining.max(1) as u64;
            self.scan.mem -= slot.instr.addr().is_some() as usize;
        }
        if let Some(n) = self.write_count(&slot.instr) {
            *n -= 1;
        }
        self.changes += 1;
        slot
    }

    /// Account the partial retirement of `n` dynamic instructions from the
    /// oldest (compute) slot.
    ///
    /// # Panics
    ///
    /// Panics if the oldest slot has fewer than `n` remaining.
    pub fn drain_oldest_compute(&mut self, n: u32) {
        let slot = self.slots.front_mut().expect("no oldest slot");
        assert!(slot.remaining >= n, "draining more than remains");
        if self.scan.slots > 0 {
            self.scan.depth -= (slot.remaining.max(1) - (slot.remaining - n).max(1)) as u64;
        }
        slot.remaining -= n;
        self.occupancy -= n as u64;
        self.changes += 1;
    }

    /// Index of the slot `id`. Ids grow along the window, gap-free until a
    /// suffix squash, so index `id - oldest id` is tried before a binary
    /// search.
    fn position(&self, id: SlotId) -> Option<usize> {
        let guess = id.checked_sub(self.slots.front()?.id)? as usize;
        if self.slots.get(guess).is_some_and(|s| s.id == id) {
            return Some(guess);
        }
        let i = self.slots.partition_point(|s| s.id < id);
        (self.slots.get(i)?.id == id).then_some(i)
    }

    /// Look up a slot by id.
    pub fn get(&self, id: SlotId) -> Option<&Slot> {
        self.slots.get(self.position(id)?)
    }

    /// Issue the `Waiting` memory operations that lie within the first
    /// `issue_window` entries (a slot takes `max(remaining, 1)`) and among
    /// the first `mem_limit` memory operations, oldest first: a load
    /// becomes `Issued`, a store or RMW `Done` (it performs at the head).
    /// Appends them to `issued` for the caller's port actions; the buffer
    /// is the caller's, so issuing into a warm one allocates nothing.
    ///
    /// The scan resumes where the previous call stopped, so every call
    /// must pass the same limits.
    pub fn issue(
        &mut self,
        issue_window: u64,
        mem_limit: usize,
        issued: &mut Vec<(SlotId, Instr)>,
    ) {
        let before = issued.len();
        let Scan {
            mut slots,
            mut depth,
            mut mem,
        } = self.scan;
        for s in self.slots.range_mut(slots..) {
            let next = depth + s.remaining.max(1) as u64;
            if next > issue_window {
                break;
            }
            if s.instr.addr().is_some() {
                if mem >= mem_limit {
                    break;
                }
                mem += 1;
                if s.state == SlotState::Waiting {
                    s.state = match s.instr {
                        Instr::Load { .. } => SlotState::Issued,
                        _ => SlotState::Done,
                    };
                    issued.push((s.id, s.instr));
                }
            }
            depth = next;
            slots += 1;
        }
        self.scan = Scan { slots, depth, mem };
        self.changes += (issued.len() > before) as u64;
    }

    /// The load at `id` performed and observed `value`.
    pub fn complete(&mut self, id: SlotId, value: u64) {
        if let Some(i) = self.position(id) {
            let s = &mut self.slots[i];
            s.state = SlotState::Done;
            s.value = Some(value);
            self.changes += 1;
        }
    }

    /// Send the in-flight load at `id` back to `Waiting` (its fill was
    /// stale). Returns false, changing nothing, unless it was `Issued`.
    pub fn reissue(&mut self, id: SlotId) -> bool {
        let Some(i) = self.position(id) else {
            return false;
        };
        let s = &mut self.slots[i];
        if s.state != SlotState::Issued {
            return false;
        }
        s.state = SlotState::Waiting;
        s.value = None;
        self.scan = Scan::default();
        self.changes += 1;
        true
    }

    /// Send every completed load of `line` back to `Waiting` (the line
    /// left the cache before they retired). Returns true if there was one.
    pub fn reissue_loads(&mut self, line: LineAddr) -> bool {
        let mut hit = false;
        for s in self.slots.iter_mut() {
            if let Instr::Load { addr, .. } = s.instr {
                if addr.line() == line && s.state == SlotState::Done {
                    s.state = SlotState::Waiting;
                    s.value = None;
                    hit = true;
                }
            }
        }
        if hit {
            self.scan = Scan::default();
            self.changes += 1;
        }
        hit
    }

    /// What the load at `slot` forwards from the older in-window accesses
    /// to `addr`: the youngest of them decides. A load whose word bucket
    /// holds no in-window store or RMW gets `Forward::None` without a
    /// scan.
    pub fn forward(&self, slot: SlotId, addr: Addr) -> Forward {
        if self.writes[write_bucket(addr)] == 0 {
            return Forward::None;
        }
        let mut fwd = Forward::None;
        for s in self.slots.iter().take_while(|s| s.id < slot) {
            match s.instr {
                Instr::Store { addr: a, value } if a == addr => fwd = Forward::Value(value),
                Instr::Rmw { addr: a, .. } if a == addr => fwd = Forward::Unknown,
                _ => {}
            }
        }
        fwd
    }

    /// Iterate slots oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter()
    }

    /// Drop every in-flight instruction (window squash), returning how
    /// many dynamic instructions were discarded.
    pub fn squash_all(&mut self) -> u64 {
        let dropped = self.occupancy;
        self.slots.clear();
        self.occupancy = 0;
        self.scan = Scan::default();
        self.writes = [0; WRITE_BUCKETS];
        self.changes += 1;
        dropped
    }

    /// Drop the newest slots while `drop(slot)` holds (a program-order
    /// suffix squash, as when one chunk of several is discarded).
    /// Returns the dynamic instructions discarded.
    pub fn squash_newest_while(&mut self, drop: impl Fn(&Slot) -> bool) -> u64 {
        let mut dropped = 0u64;
        while let Some(back) = self.slots.back() {
            if !drop(back) {
                break;
            }
            let slot = self.slots.pop_back().expect("checked");
            dropped += slot.remaining as u64;
            if let Some(n) = self.write_count(&slot.instr) {
                *n -= 1;
            }
        }
        self.occupancy -= dropped;
        self.scan = Scan::default();
        self.changes += 1;
        dropped
    }

    /// Number of slots (not dynamic instructions).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issued(w: &mut InstrWindow, issue_window: u64, mem_limit: usize) -> Vec<(SlotId, Instr)> {
        let mut out = Vec::new();
        w.issue(issue_window, mem_limit, &mut out);
        out
    }
    use bulksc_sig::Addr;
    use bulksc_stats::SplitMix64;

    fn load(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            consume: false,
        }
    }

    #[test]
    fn capacity_counts_dynamic_instructions() {
        let mut w = InstrWindow::new(10);
        assert!(w.push(Instr::Compute(8), 0).is_some());
        assert!(w.push(load(0), 0).is_some());
        assert!(w.push(load(1), 0).is_some());
        assert_eq!(w.occupancy(), 10);
        assert!(w.push(load(2), 0).is_none(), "window full");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn oversized_batch_admitted_when_empty() {
        let mut w = InstrWindow::new(10);
        assert!(w.push(Instr::Compute(50), 0).is_some());
        assert_eq!(w.occupancy(), 50);
        assert!(w.push(load(0), 0).is_none());
    }

    #[test]
    fn pop_restores_capacity() {
        let mut w = InstrWindow::new(4);
        w.push(load(0), 0).unwrap();
        w.push(load(1), 0).unwrap();
        let s = w.pop_oldest();
        assert_eq!(s.instr, load(0));
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.oldest().unwrap().instr, load(1));
    }

    #[test]
    fn compute_drains_incrementally() {
        let mut w = InstrWindow::new(10);
        w.push(Instr::Compute(7), 0).unwrap();
        w.drain_oldest_compute(5);
        assert_eq!(w.occupancy(), 2);
        assert_eq!(w.oldest().unwrap().remaining, 2);
        w.drain_oldest_compute(2);
        assert_eq!(w.occupancy(), 0);
        let s = w.pop_oldest();
        assert_eq!(s.remaining, 0);
    }

    #[test]
    #[should_panic(expected = "draining more than remains")]
    fn overdrain_panics() {
        let mut w = InstrWindow::new(10);
        w.push(Instr::Compute(2), 0).unwrap();
        w.drain_oldest_compute(3);
    }

    #[test]
    fn ids_are_stable_and_lookup_works() {
        let mut w = InstrWindow::new(10);
        let a = w.push(load(0), 0).unwrap();
        let b = w.push(load(1), 0).unwrap();
        assert_ne!(a, b);
        assert_eq!(issued(&mut w, 10, usize::MAX), [(a, load(0)), (b, load(1))]);
        w.complete(b, 7);
        assert_eq!(w.get(b).unwrap().state, SlotState::Done);
        assert_eq!(w.get(b).unwrap().value, Some(7));
        assert_eq!(w.get(a).unwrap().state, SlotState::Issued);
        w.pop_oldest();
        assert!(w.get(a).is_none(), "retired slots are gone");
    }

    #[test]
    fn squash_suffix_drops_only_newest() {
        let mut w = InstrWindow::new(20);
        let a = w.push(load(0), 0).unwrap();
        let b = w.push(Instr::Compute(5), 0).unwrap();
        let c = w.push(load(1), 0).unwrap();
        let dropped = w.squash_newest_while(|s| s.id >= b);
        assert_eq!(dropped, 6);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.oldest().unwrap().id, a);
        assert!(w.get(c).is_none());
    }

    #[test]
    fn forward_takes_the_youngest_older_same_word_access() {
        let mut w = InstrWindow::new(20);
        let (a, b) = (Addr(8), Addr(9));
        w.push(Instr::Store { addr: a, value: 1 }, 0).unwrap();
        w.push(Instr::Store { addr: b, value: 2 }, 0).unwrap();
        let l1 = w.push(load(8), 0).unwrap();
        w.push(
            Instr::Rmw {
                addr: a,
                op: bulksc_workloads::RmwOp::Swap(3),
            },
            0,
        )
        .unwrap();
        let l2 = w.push(load(8), 0).unwrap();
        w.push(Instr::Store { addr: a, value: 4 }, 0).unwrap();
        assert_eq!(w.forward(l1, a), Forward::Value(1));
        assert_eq!(w.forward(l2, a), Forward::Unknown, "older RMW unperformed");
        assert_eq!(w.forward(l1, Addr(10)), Forward::None);
    }

    #[test]
    fn squash_drops_everything() {
        let mut w = InstrWindow::new(20);
        w.push(Instr::Compute(5), 0).unwrap();
        w.push(load(0), 0).unwrap();
        assert_eq!(w.squash_all(), 6);
        assert!(w.is_empty());
        assert_eq!(w.occupancy(), 0);
    }

    #[test]
    fn reissued_loads_issue_again_and_tags_stay_with_their_slots() {
        let mut w = InstrWindow::new(20);
        let a = w.push(load(0), 3).unwrap();
        let st = w
            .push(
                Instr::Store {
                    addr: Addr(8),
                    value: 1,
                },
                3,
            )
            .unwrap();
        let b = w.push(load(8), 4).unwrap();
        assert_eq!(issued(&mut w, 20, usize::MAX).len(), 3);
        assert!(
            issued(&mut w, 20, usize::MAX).is_empty(),
            "nothing is waiting"
        );
        assert!(w.reissue(a), "an issued load goes back");
        assert!(!w.reissue(st), "a store is never in flight");
        w.complete(b, 5);
        assert!(w.reissue_loads(Addr(8).line()));
        assert!(!w.reissue_loads(Addr(8).line()), "already waiting");
        assert_eq!(issued(&mut w, 20, usize::MAX), [(a, load(0)), (b, load(8))]);
        assert_eq!(w.get(b).unwrap().value, None);
        assert_eq!(w.squash_newest_while(|s| s.tag >= 4), 1);
        assert_eq!(w.oldest().unwrap().tag, 3);
    }

    /// The issue scan as a rewalk of the whole window from the head on
    /// every call, with the state changes the cursor scan makes itself:
    /// the reference [`InstrWindow::issue`] must match.
    fn rescan(w: &mut InstrWindow, issue_window: u64, mem_limit: usize) -> Vec<(SlotId, Instr)> {
        let mut to_start: Vec<(SlotId, Instr)> = Vec::new();
        let mut mem_seen = 0usize;
        let mut depth = 0u64;
        for slot in w.slots.iter() {
            depth += slot.remaining.max(1) as u64;
            if depth > issue_window {
                break;
            }
            let is_mem = matches!(
                slot.instr,
                Instr::Load { .. } | Instr::Store { .. } | Instr::Rmw { .. }
            );
            if !is_mem {
                continue;
            }
            if mem_seen >= mem_limit {
                break;
            }
            mem_seen += 1;
            if slot.state == SlotState::Waiting {
                to_start.push((slot.id, slot.instr));
            }
        }
        for &(id, instr) in &to_start {
            let s = w.slots.iter_mut().find(|s| s.id == id).unwrap();
            s.state = match instr {
                Instr::Load { .. } => SlotState::Issued,
                _ => SlotState::Done,
            };
        }
        to_start
    }

    fn states(w: &InstrWindow) -> Vec<(SlotId, SlotState, Option<u64>, u32)> {
        w.slots
            .iter()
            .map(|s| (s.id, s.state, s.value, s.remaining))
            .collect()
    }

    /// `forward` as a walk of every older slot: the reference for the
    /// write-bucket shortcut.
    fn forward_by_scan(w: &InstrWindow, slot: SlotId, addr: Addr) -> Forward {
        let mut fwd = Forward::None;
        for s in w.slots.iter().take_while(|s| s.id < slot) {
            match s.instr {
                Instr::Store { addr: a, value } if a == addr => fwd = Forward::Value(value),
                Instr::Rmw { addr: a, .. } if a == addr => fwd = Forward::Unknown,
                _ => {}
            }
        }
        fwd
    }

    #[test]
    fn write_buckets_and_slot_lookup_survive_every_window_change() {
        for case in 0..300u64 {
            let mut rng = SplitMix64::new(case);
            let mut w = InstrWindow::new(40);
            let mut tag = 0u64;
            for step in 0..300 {
                let ctx = format!("case {case}, step {step}");
                match rng.gen_range(0..10) {
                    0..=4 => {
                        tag += rng.gen_range(0..2);
                        let addr = Addr(rng.gen_range(0..24));
                        let instr = match rng.gen_range(0..4) {
                            0 => Instr::Compute(rng.gen_range(0..6) as u32),
                            1 => Instr::Store { addr, value: step },
                            2 => Instr::Rmw {
                                addr,
                                op: bulksc_workloads::RmwOp::Swap(step),
                            },
                            _ => load(addr.0),
                        };
                        let _ = w.push(instr, tag);
                    }
                    5 | 6 => {
                        let Some(head) = w.oldest() else { continue };
                        let r = head.remaining;
                        if r > 1 && rng.gen_range(0..2) == 0 {
                            w.drain_oldest_compute(rng.gen_range(1..r as u64) as u32);
                        } else {
                            w.pop_oldest();
                        }
                    }
                    7 | 8 => {
                        let cut = rng.gen_range(0..tag + 2);
                        w.squash_newest_while(|s| s.tag >= cut);
                    }
                    _ => {
                        if rng.gen_range(0..4) == 0 {
                            w.squash_all();
                        }
                    }
                }
                let mut recount = [0u16; WRITE_BUCKETS];
                for s in &w.slots {
                    if let Some(a) = written_word(&s.instr) {
                        recount[write_bucket(a)] += 1;
                    }
                }
                assert_eq!(w.writes, recount, "{ctx}: bucket counts drifted");
                for s in &w.slots {
                    assert_eq!(w.get(s.id).map(|g| g.id), Some(s.id), "{ctx}");
                }
                let probe = rng.gen_range(0..w.next_id + 2);
                let present = w.slots.iter().any(|s| s.id == probe);
                assert_eq!(w.get(probe).is_some(), present, "{ctx}: slot {probe}");
                for s in &w.slots {
                    for addr in [s.instr.addr(), Some(Addr(rng.gen_range(0..24)))] {
                        let Some(addr) = addr else { continue };
                        let want = forward_by_scan(&w, s.id, addr);
                        assert_eq!(w.forward(s.id, addr), want, "{ctx}: slot {}", s.id);
                    }
                }
            }
        }
    }

    #[test]
    fn resumed_issue_scan_matches_a_full_rescan() {
        const SCAN_DEPTH: u64 = 20;
        for mem_limit in [6, usize::MAX] {
            for case in 0..400u64 {
                let mut rng = SplitMix64::new(case);
                let mut w = InstrWindow::new(40);
                let mut tag = 0u64;
                for step in 0..300 {
                    let ctx = format!("limit {mem_limit}, case {case}, step {step}");
                    match rng.gen_range(0..12) {
                        0..=3 => {
                            tag += rng.gen_range(0..2);
                            let addr = Addr(rng.gen_range(0..16));
                            let instr = match rng.gen_range(0..3) {
                                0 => Instr::Compute(rng.gen_range(0..6) as u32),
                                1 => Instr::Store { addr, value: step },
                                _ => load(addr.0),
                            };
                            let _ = w.push(instr, tag);
                        }
                        4 | 5 => {
                            let Some(head) = w.oldest() else { continue };
                            let r = head.remaining;
                            if matches!(head.instr, Instr::Compute(_))
                                && r > 0
                                && rng.gen_range(0..2) == 0
                            {
                                w.drain_oldest_compute(rng.gen_range(1..r as u64 + 1) as u32);
                            } else {
                                w.pop_oldest();
                            }
                        }
                        6 => {
                            let cut = rng.gen_range(0..tag + 2);
                            w.squash_newest_while(|s| s.tag >= cut);
                        }
                        7 | 8 => {
                            let id = rng.gen_range(0..w.next_id + 1);
                            if rng.gen_range(0..2) == 0 {
                                w.reissue(id);
                            } else if w.get(id).is_some_and(|s| s.state == SlotState::Issued) {
                                w.complete(id, step);
                            }
                        }
                        9 => {
                            w.reissue_loads(Addr(rng.gen_range(0..16)).line());
                        }
                        _ => {
                            let mut reference = w.clone();
                            let want = rescan(&mut reference, SCAN_DEPTH, mem_limit);
                            assert_eq!(issued(&mut w, SCAN_DEPTH, mem_limit), want, "{ctx}");
                            assert_eq!(states(&w), states(&reference), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
