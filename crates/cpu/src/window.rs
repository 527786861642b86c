//! The instruction window (ROB) shared by all core models.
//!
//! A [`InstrWindow`] holds fetched-but-not-retired instructions in program
//! order. Capacity is counted in *dynamic* instructions, so a
//! `Compute(50)` batch occupies 50 entries — that keeps the window
//! pressure realistic while letting programs emit computation in batches.

use std::collections::VecDeque;

use bulksc_sig::Addr;
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
/// let id = w.push(Instr::Compute(3)).unwrap();
/// assert_eq!(w.occupancy(), 3);
/// assert_eq!(w.oldest().unwrap().id, id);
/// ```
#[derive(Clone, Debug)]
pub struct InstrWindow {
    slots: VecDeque<Slot>,
    next_id: SlotId,
    capacity: u32,
    occupancy: u64,
}

impl InstrWindow {
    /// An empty window holding up to `capacity` dynamic instructions.
    pub fn new(capacity: u32) -> Self {
        InstrWindow {
            slots: VecDeque::new(),
            next_id: 0,
            capacity,
            occupancy: 0,
        }
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

    /// Append an instruction in program order; `None` if there is no room.
    pub fn push(&mut self, instr: Instr) -> Option<SlotId> {
        if !self.has_room(&instr) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.occupancy += instr.dynamic_count();
        let remaining = match instr {
            Instr::Compute(n) => n,
            _ => 1,
        };
        self.slots.push_back(Slot {
            id,
            instr,
            state: SlotState::Waiting,
            value: None,
            remaining,
        });
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
        slot.remaining -= n;
        self.occupancy -= n as u64;
    }

    /// Look up a slot by id.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|s| s.id == id)
    }

    /// What the load at `slot` forwards from the older in-window accesses
    /// to `addr`: the youngest of them decides.
    pub fn forward(&self, slot: SlotId, addr: Addr) -> Forward {
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

    /// Iterate slots mutably, oldest-first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Slot> {
        self.slots.iter_mut()
    }

    /// Drop every in-flight instruction (window squash), returning how
    /// many dynamic instructions were discarded.
    pub fn squash_all(&mut self) -> u64 {
        let dropped = self.occupancy;
        self.slots.clear();
        self.occupancy = 0;
        dropped
    }

    /// Drop the newest slots while `drop(id)` holds (a program-order
    /// suffix squash, as when one chunk of several is discarded).
    /// Returns the dynamic instructions discarded.
    pub fn squash_newest_while(&mut self, drop: impl Fn(SlotId) -> bool) -> u64 {
        let mut dropped = 0u64;
        while let Some(back) = self.slots.back() {
            if !drop(back.id) {
                break;
            }
            let slot = self.slots.pop_back().expect("checked");
            dropped += slot.remaining as u64;
        }
        self.occupancy -= dropped;
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
    use bulksc_sig::Addr;

    fn load(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            consume: false,
        }
    }

    #[test]
    fn capacity_counts_dynamic_instructions() {
        let mut w = InstrWindow::new(10);
        assert!(w.push(Instr::Compute(8)).is_some());
        assert!(w.push(load(0)).is_some());
        assert!(w.push(load(1)).is_some());
        assert_eq!(w.occupancy(), 10);
        assert!(w.push(load(2)).is_none(), "window full");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn oversized_batch_admitted_when_empty() {
        let mut w = InstrWindow::new(10);
        assert!(w.push(Instr::Compute(50)).is_some());
        assert_eq!(w.occupancy(), 50);
        assert!(w.push(load(0)).is_none());
    }

    #[test]
    fn pop_restores_capacity() {
        let mut w = InstrWindow::new(4);
        w.push(load(0)).unwrap();
        w.push(load(1)).unwrap();
        let s = w.pop_oldest();
        assert_eq!(s.instr, load(0));
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.oldest().unwrap().instr, load(1));
    }

    #[test]
    fn compute_drains_incrementally() {
        let mut w = InstrWindow::new(10);
        w.push(Instr::Compute(7)).unwrap();
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
        w.push(Instr::Compute(2)).unwrap();
        w.drain_oldest_compute(3);
    }

    #[test]
    fn ids_are_stable_and_lookup_works() {
        let mut w = InstrWindow::new(10);
        let a = w.push(load(0)).unwrap();
        let b = w.push(load(1)).unwrap();
        assert_ne!(a, b);
        w.get_mut(b).unwrap().state = SlotState::Issued;
        assert_eq!(w.get_mut(b).unwrap().state, SlotState::Issued);
        assert_eq!(w.get_mut(a).unwrap().state, SlotState::Waiting);
        w.pop_oldest();
        assert!(w.get_mut(a).is_none(), "retired slots are gone");
    }

    #[test]
    fn squash_suffix_drops_only_newest() {
        let mut w = InstrWindow::new(20);
        let a = w.push(load(0)).unwrap();
        let b = w.push(Instr::Compute(5)).unwrap();
        let c = w.push(load(1)).unwrap();
        let dropped = w.squash_newest_while(|id| id >= b);
        assert_eq!(dropped, 6);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.oldest().unwrap().id, a);
        assert!(w.get_mut(c).is_none());
    }

    #[test]
    fn forward_takes_the_youngest_older_same_word_access() {
        let mut w = InstrWindow::new(20);
        let (a, b) = (Addr(8), Addr(9));
        w.push(Instr::Store { addr: a, value: 1 }).unwrap();
        w.push(Instr::Store { addr: b, value: 2 }).unwrap();
        let l1 = w.push(load(8)).unwrap();
        w.push(Instr::Rmw {
            addr: a,
            op: bulksc_workloads::RmwOp::Swap(3),
        })
        .unwrap();
        let l2 = w.push(load(8)).unwrap();
        w.push(Instr::Store { addr: a, value: 4 }).unwrap();
        assert_eq!(w.forward(l1, a), Forward::Value(1));
        assert_eq!(w.forward(l2, a), Forward::Unknown, "older RMW unperformed");
        assert_eq!(w.forward(l1, Addr(10)), Forward::None);
    }

    #[test]
    fn squash_drops_everything() {
        let mut w = InstrWindow::new(20);
        w.push(Instr::Compute(5)).unwrap();
        w.push(load(0)).unwrap();
        assert_eq!(w.squash_all(), 6);
        assert!(w.is_empty());
        assert_eq!(w.occupancy(), 0);
    }
}
