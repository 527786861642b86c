//! The front end both core kinds fetch through, and the checkpoint a
//! squash restores.
//!
//! A [`FrontEnd`] owns the thread program and the two pieces of state that
//! sit between it and the window: the value owed to the program (a
//! consuming load or RMW retired, and the program's next step must see
//! its result) and the held instruction (taken from the program but not
//! yet admitted, because the window was full or the model ended a chunk
//! in front of it). It also stalls fetch behind a consuming instruction
//! and stops fetching at the retire budget.
//!
//! A [`Checkpoint`] is exactly what a squash restores: the program, the
//! owed value and the held instruction. The BulkSC core takes one when it
//! opens a chunk (§4.1), the SC++ baseline when it opens an epoch; both
//! roll back through [`FrontEnd::restore`].

use bulksc_workloads::{Instr, ThreadProgram};

use crate::window::{InstrWindow, SlotId};

/// The architectural fetch state as of a chunk or epoch start.
pub struct Checkpoint {
    program: Box<dyn ThreadProgram>,
    owed: Option<u64>,
    held: Option<Instr>,
}

/// The thread program plus the fetch state around it.
///
/// # Example
///
/// ```
/// use bulksc_cpu::{FrontEnd, InstrWindow};
/// use bulksc_workloads::{Instr, ScriptOp, ScriptProgram};
///
/// let program = ScriptProgram::new(vec![ScriptOp::Op(Instr::Compute(2))]);
/// let mut front = FrontEnd::new(Box::new(program), 100);
/// let mut window = InstrWindow::new(8);
/// assert!(front.fetching(0));
/// let instr = front.take().unwrap();
/// assert!(front.admit(&mut window, instr, 0).is_some());
/// assert_eq!(front.take(), None);
/// assert!(front.drained());
/// ```
pub struct FrontEnd {
    program: Box<dyn ThreadProgram>,
    /// Value to hand the program on its next step.
    owed: Option<u64>,
    /// Instruction taken from the program but not yet in the window.
    held: Option<Instr>,
    /// Slot whose value the program waits for (fetch stalled).
    waiting_on: Option<SlotId>,
    /// No more instructions: the program ended or the budget was reached.
    done: bool,
    /// Retire-count budget: fetching stops once it is reached.
    budget: u64,
    changes: u64,
}

impl FrontEnd {
    /// A front end over `program` that fetches until `budget` dynamic
    /// instructions are retired or in flight.
    pub fn new(program: Box<dyn ThreadProgram>, budget: u64) -> Self {
        FrontEnd {
            program,
            owed: None,
            held: None,
            waiting_on: None,
            done: false,
            budget,
            changes: 0,
        }
    }

    /// How many times the fetch state has changed: equal counts before and
    /// after some calls mean they changed nothing. Taking the held
    /// instruction and putting it back (`hold`, or an `admit` into a full
    /// window) counts nothing, since the instruction only passed through
    /// the caller's hands; callers admit or hold every instruction they
    /// take.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The thread program (for reading observations after a run).
    pub fn program(&self) -> &dyn ThreadProgram {
        self.program.as_ref()
    }

    /// True while fetch waits for a consuming instruction to retire.
    pub fn stalled(&self) -> bool {
        self.waiting_on.is_some()
    }

    /// True once nothing is left to fetch: done, and no instruction held.
    pub fn drained(&self) -> bool {
        self.done && self.held.is_none()
    }

    /// A consuming instruction retired with `value`: fetch resumes, and the
    /// program's next step receives `value`.
    pub fn deliver(&mut self, value: u64) {
        self.owed = Some(value);
        self.waiting_on = None;
        self.changes += 1;
    }

    /// True if fetch may go on, given the `issued` dynamic instructions
    /// (retired plus in the window). Reaching the budget marks the front
    /// end done; the in-flight work drains.
    pub fn fetching(&mut self, issued: u64) -> bool {
        if self.drained() {
            return false;
        }
        if issued >= self.budget {
            self.changes += !self.done as u64;
            self.done = true;
            return false;
        }
        true
    }

    /// The next instruction: the held one first, else the program's next
    /// step (which consumes the owed value). `None` marks the front end
    /// done: the program has ended.
    pub fn take(&mut self) -> Option<Instr> {
        if let Some(instr) = self.held.take() {
            return Some(instr);
        }
        let instr = self.program.next(self.owed.take());
        self.done |= instr.is_none();
        self.changes += 1;
        instr
    }

    /// Keep `instr` for the next [`FrontEnd::take`]: taking it from the
    /// program consumed it, so it must not be lost.
    pub fn hold(&mut self, instr: Instr) {
        self.held = Some(instr);
    }

    /// Push `instr` into `window` with the model's `tag`. A full window
    /// holds the instruction instead (`None`); an admitted consuming
    /// instruction stalls fetch until it retires.
    pub fn admit(&mut self, window: &mut InstrWindow, instr: Instr, tag: u64) -> Option<SlotId> {
        let id = window.push(instr, tag);
        match id {
            None => self.held = Some(instr),
            Some(id) if instr.consumes_value() => {
                self.waiting_on = Some(id);
                self.changes += 1;
            }
            Some(_) => {}
        }
        id
    }

    /// Snapshot what a squash restores. Taken before the next
    /// [`FrontEnd::take`], so it sees the owed value and the held
    /// instruction that step would consume.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            program: self.program.clone_box(),
            owed: self.owed,
            held: self.held,
        }
    }

    /// Roll back to `cp`: the program, owed value and held instruction
    /// return to the checkpoint, and fetch resumes (not done, not
    /// stalled — the squashed slots are gone).
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.program = cp.program.clone_box();
        self.owed = cp.owed;
        self.held = cp.held;
        self.done = false;
        self.waiting_on = None;
        self.changes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_sig::Addr;
    use bulksc_workloads::{ScriptOp, ScriptProgram};

    fn front(ops: Vec<ScriptOp>, budget: u64) -> FrontEnd {
        FrontEnd::new(Box::new(ScriptProgram::new(ops)), budget)
    }

    #[test]
    fn restore_replays_the_held_instruction_then_the_owed_value() {
        let mut f = front(
            vec![ScriptOp::Record(Addr(8)), ScriptOp::Op(Instr::Compute(3))],
            100,
        );
        let mut window = InstrWindow::new(8);
        let load = f.take().expect("the recorded load");
        assert!(f.admit(&mut window, load, 0).is_some());
        f.deliver(42);
        f.hold(Instr::Fence);
        let cp = f.checkpoint();

        // Move on: the held fence goes first, then the program consumes 42.
        assert_eq!(f.take(), Some(Instr::Fence));
        assert_eq!(f.take(), Some(Instr::Compute(3)));
        assert_eq!(f.take(), None);
        assert!(f.drained());
        assert_eq!(f.program().observations(), vec![42]);
        assert!(f.admit(&mut window, load, 0).is_some() && f.stalled());

        f.restore(&cp);
        assert!(!f.drained() && !f.stalled());
        assert!(f.program().observations().is_empty());
        assert_eq!(f.take(), Some(Instr::Fence));
        assert_eq!(f.take(), Some(Instr::Compute(3)));
        assert!(!f.drained(), "the restored program has not ended yet");
        assert_eq!(f.program().observations(), vec![42]);
    }

    #[test]
    fn fetching_marks_done_at_the_budget_and_drained_waits_for_the_held() {
        let mut f = front(
            vec![
                ScriptOp::Op(Instr::Compute(5)),
                ScriptOp::Op(Instr::Compute(5)),
            ],
            10,
        );
        assert!(f.fetching(9));
        let instr = f.take().expect("first compute");
        f.hold(instr);
        assert!(!f.fetching(10), "the budget is reached");
        assert!(!f.drained(), "a held instruction is still to fetch");
        assert_eq!(f.take(), Some(instr));
        assert!(f.drained());
        assert!(!f.fetching(0), "done stays done until a restore");
    }

    #[test]
    fn admit_holds_on_a_full_window_and_stalls_on_a_consumer() {
        let mut f = front(vec![], 100);
        let mut window = InstrWindow::new(4);
        assert!(f.admit(&mut window, Instr::Compute(3), 0).is_some());
        assert!(!f.stalled());
        assert_eq!(f.admit(&mut window, Instr::Compute(2), 0), None);
        assert_eq!(
            f.take(),
            Some(Instr::Compute(2)),
            "the rejected one is held"
        );
        let load = Instr::Load {
            addr: Addr(8),
            consume: true,
        };
        let id = f.admit(&mut window, load, 0);
        assert!(id.is_some());
        assert!(f.stalled(), "fetch waits for the consuming load");
        f.deliver(7);
        assert!(!f.stalled());
    }
}
