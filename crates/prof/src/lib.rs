//! Self-profiling for the simulator itself: where does *host* time go?
//!
//! The rest of the workspace observes the simulated machine; this crate
//! observes the simulator. Components wrap their hot regions in scoped
//! RAII timers keyed by a static registry of [`Phase`] IDs (the step
//! loop, core execution, signature ops, the arbiter, the directory, the
//! fabric, trace emission, the SC oracle, ...). When a run finishes, the
//! collected [`ProfReport`] attributes wall-clock host nanoseconds per
//! subsystem — total (inclusive) and self (exclusive of nested scopes) —
//! so the `benchmark/` package can report a per-phase breakdown of where
//! the host cycles went, and `bulksc-perf` can time its tracing-tax runs.
//!
//! # Design constraints
//!
//! * **Off by default, and cheap when off.** [`scope`] first reads one
//!   `const`-initialized thread-local flag; disabled, it returns a
//!   disarmed guard without reading the clock or touching any state.
//!   Profiling never feeds back into the simulation: enabling it cannot
//!   change a single simulated cycle, event, or report byte (enforced by
//!   `tests/prof_determinism.rs` at the workspace root).
//! * **Single-threaded, like the simulator.** All state is thread-local;
//!   each test thread profiles independently. That is exactly what the
//!   host-parallel sweep engine (`bulksc_bench::pool`) needs: each worker
//!   thread brackets its own run with [`enable`]/[`disable`], no worker
//!   sees another's scopes, and the per-run [`ProfReport`]s — plain
//!   `Send` data — are combined after the join with [`ProfReport::merge`].
//! * **Nest-aware.** Scopes form a stack. A closing scope charges its
//!   elapsed time to its phase's *total*, its elapsed-minus-children time
//!   to its phase's *self*, and adds itself to its parent's children — so
//!   summing self times over all phases recovers the wall time covered by
//!   the outermost scopes without double counting. Re-entering the phase
//!   currently on top of the stack is a no-op (recursion does not double
//!   count either).
//!
//! # Example
//!
//! ```
//! use bulksc_prof::{enable, disable, scope, Phase};
//!
//! enable();
//! {
//!     let _run = scope(Phase::Run);
//!     {
//!         let _exec = scope(Phase::Execute);
//!         // ... simulate ...
//!     }
//! }
//! let report = disable();
//! assert_eq!(report.phase(Phase::Run).unwrap().count, 1);
//! // Execute's elapsed time is Run's child time, not Run's self time.
//! assert!(report.phase(Phase::Run).unwrap().total_ns
//!     >= report.phase(Phase::Execute).unwrap().total_ns);
//! ```

use std::cell::{Cell, RefCell};

use bulksc_stats::Table;

pub mod clock {
    //! The workspace's one monotonic host clock.
    //!
    //! Everything that measures host time — the profiler's scopes and the
    //! harnesses that time whole runs — reads this single nanosecond
    //! counter, anchored at the first call in the process.

    use std::sync::OnceLock;
    use std::time::Instant;

    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Monotonic nanoseconds since the first call in this process.
    #[inline]
    pub fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The static registry of profiled simulator subsystems.
///
/// Fixed IDs so scope entry is an array index, not a hash lookup; the
/// names below are stable, since the benchmark's `prof.*_pct` metric
/// names are built from them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// `System::new`: building cores, directories, arbiters.
    Setup,
    /// `System::run`: the step loop itself (self time = loop overhead,
    /// finish checks, and the stuck-run watchdog).
    Run,
    /// Core work: `BulkNode`/`BaselineNode` tick and message handling.
    Execute,
    /// Chunk-granular signature operations: intersect, union, expand.
    SigOps,
    /// Arbiter and G-arbiter message handling.
    Arbiter,
    /// Directory message handling (including DirBDM work).
    Directory,
    /// Interconnect: message enqueue and due-delivery pops.
    Fabric,
    /// Event construction and sink recording in `TraceHandle::emit`.
    TraceEmit,
    /// Interval metric sampling (`System::drive_sampler`).
    Sampler,
    /// The `bulksc-check` SC conformance oracle (parse + verify).
    Oracle,
    /// `SimReport::collect` after a run.
    Collect,
}

/// Number of registered phases.
pub const PHASE_COUNT: usize = 11;

impl Phase {
    /// Every phase, in registry order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Setup,
        Phase::Run,
        Phase::Execute,
        Phase::SigOps,
        Phase::Arbiter,
        Phase::Directory,
        Phase::Fabric,
        Phase::TraceEmit,
        Phase::Sampler,
        Phase::Oracle,
        Phase::Collect,
    ];

    /// The stable name artifacts carry.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "step_loop",
            Phase::Execute => "execute",
            Phase::SigOps => "sig_ops",
            Phase::Arbiter => "arbiter",
            Phase::Directory => "directory",
            Phase::Fabric => "fabric",
            Phase::TraceEmit => "trace_emit",
            Phase::Sampler => "sampler",
            Phase::Oracle => "oracle",
            Phase::Collect => "collect",
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Slot {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

struct OpenScope {
    phase: u8,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct ProfState {
    slots: [Slot; PHASE_COUNT],
    stack: Vec<OpenScope>,
    started_ns: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<ProfState> = RefCell::new(ProfState::default());
}

/// Start profiling on this thread, discarding any previous collection.
pub fn enable() {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        *st = ProfState::default();
        st.started_ns = clock::now_ns();
    });
    ENABLED.with(|e| e.set(true));
}

/// True if [`enable`] is active on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Stop profiling and return what was collected since [`enable`].
///
/// Scopes still open at this point are charged up to now (they will
/// *also* be charged in full when their guards drop if profiling is
/// re-enabled — don't disable mid-scope in normal use).
pub fn disable() -> ProfReport {
    ENABLED.with(|e| e.set(false));
    STATE.with(|s| {
        let st = s.borrow();
        let wall_ns = clock::now_ns().saturating_sub(st.started_ns);
        let mut phases = Vec::new();
        for (i, slot) in st.slots.iter().enumerate() {
            if slot.count > 0 {
                phases.push(PhaseStat {
                    phase: Phase::ALL[i],
                    count: slot.count,
                    total_ns: slot.total_ns,
                    self_ns: slot.self_ns,
                });
            }
        }
        ProfReport { wall_ns, phases }
    })
}

/// An armed scope charges its phase on drop; a disarmed one is free.
///
/// Bind it to a named variable (`let _prof = scope(...)`): `let _ = ...`
/// drops immediately and times nothing.
pub struct Scope {
    armed: bool,
}

impl Drop for Scope {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            close_scope();
        }
    }
}

/// Open a scoped timer for `phase`.
///
/// Disabled (the default), this reads one thread-local flag and returns;
/// no clock read, no allocation. Enabled, it pushes onto the scope stack
/// unless `phase` is already on top (re-entry is free and uncounted).
#[inline]
pub fn scope(phase: Phase) -> Scope {
    if !ENABLED.with(|e| e.get()) {
        return Scope { armed: false };
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        if st.stack.last().map(|o| o.phase) == Some(phase as u8) {
            return Scope { armed: false };
        }
        st.stack.push(OpenScope {
            phase: phase as u8,
            start_ns: clock::now_ns(),
            child_ns: 0,
        });
        Scope { armed: true }
    })
}

fn close_scope() {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let Some(open) = st.stack.pop() else { return };
        let elapsed = clock::now_ns().saturating_sub(open.start_ns);
        let slot = &mut st.slots[open.phase as usize];
        slot.count += 1;
        slot.total_ns += elapsed;
        slot.self_ns += elapsed.saturating_sub(open.child_ns);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    });
}

/// Collected host time for one phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// Which subsystem.
    pub phase: Phase,
    /// Completed scopes.
    pub count: u64,
    /// Inclusive nanoseconds (children counted).
    pub total_ns: u64,
    /// Exclusive nanoseconds (children subtracted).
    pub self_ns: u64,
}

/// Everything collected between [`enable`] and [`disable`].
#[derive(Clone, Debug, Default)]
pub struct ProfReport {
    /// Host nanoseconds between enable and disable.
    pub wall_ns: u64,
    /// Per-phase stats, registry order, phases with zero scopes omitted.
    pub phases: Vec<PhaseStat>,
}

impl ProfReport {
    /// The stats for one phase, if any scope of it completed.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Sum of per-phase self times: the instrumented share of the wall.
    pub fn covered_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Instrumented self time as a percentage of the enable→disable wall
    /// (100 when nothing ran, so empty reports don't read as gaps).
    pub fn coverage_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 100.0;
        }
        100.0 * self.covered_ns() as f64 / self.wall_ns as f64
    }

    /// Merge another report into this one (summing a scenario's reps).
    pub fn merge(&mut self, other: &ProfReport) {
        self.wall_ns += other.wall_ns;
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.phase == p.phase) {
                Some(q) => {
                    q.count += p.count;
                    q.total_ns += p.total_ns;
                    q.self_ns += p.self_ns;
                }
                None => self.phases.push(*p),
            }
        }
        self.phases.sort_by_key(|p| p.phase as u8);
    }

    /// The per-phase breakdown as an aligned text table.
    pub fn table(&self) -> String {
        let mut t = Table::new(
            ["phase", "scopes", "total ms", "self ms", "self %"]
                .map(str::to_string)
                .to_vec(),
        );
        for p in &self.phases {
            t.row(vec![
                p.phase.name().to_string(),
                p.count.to_string(),
                format!("{:.3}", p.total_ns as f64 / 1e6),
                format!("{:.3}", p.self_ns as f64 / 1e6),
                format!(
                    "{:.1}",
                    if self.wall_ns == 0 {
                        0.0
                    } else {
                        100.0 * p.self_ns as f64 / self.wall_ns as f64
                    }
                ),
            ]);
        }
        t.row(vec![
            "(wall)".to_string(),
            String::new(),
            format!("{:.3}", self.wall_ns as f64 / 1e6),
            format!("{:.3}", self.covered_ns() as f64 / 1e6),
            format!("{:.1}", self.coverage_pct()),
        ]);
        t.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = clock::now_ns();
        while clock::now_ns() - t0 < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_scopes_collect_nothing() {
        assert!(!is_enabled());
        {
            let _g = scope(Phase::Execute);
            spin(1_000);
        }
        enable();
        let r = disable();
        assert!(r.phases.is_empty(), "scope before enable must not count");
    }

    #[test]
    fn nested_scopes_split_self_and_children() {
        enable();
        {
            let _run = scope(Phase::Run);
            spin(200_000);
            {
                let _exec = scope(Phase::Execute);
                spin(400_000);
            }
            spin(200_000);
        }
        let r = disable();
        let run = *r.phase(Phase::Run).expect("run collected");
        let exec = *r.phase(Phase::Execute).expect("execute collected");
        assert_eq!(run.count, 1);
        assert_eq!(exec.count, 1);
        // Run's total includes Execute; Run's self excludes it.
        assert!(run.total_ns >= exec.total_ns + 300_000);
        assert!(run.self_ns >= 300_000);
        assert!(run.self_ns <= run.total_ns - exec.total_ns);
        // Self times sum to ≈ the outermost scope's total.
        let covered = r.covered_ns();
        assert!(covered <= run.total_ns);
        assert!(covered >= run.total_ns - run.total_ns / 10);
    }

    #[test]
    fn same_phase_reentry_is_not_double_counted() {
        enable();
        {
            let _outer = scope(Phase::SigOps);
            spin(100_000);
            {
                let _inner = scope(Phase::SigOps); // disarmed: same phase on top
                spin(100_000);
            }
        }
        let r = disable();
        let sig = r.phase(Phase::SigOps).expect("collected");
        assert_eq!(sig.count, 1, "re-entry must not count a second scope");
        assert_eq!(sig.total_ns, sig.self_ns, "no phantom children");
    }

    #[test]
    fn coverage_tracks_instrumented_share() {
        // Long spins, so one scheduler preemption on a busy host cannot
        // tip the split.
        enable();
        {
            let _g = scope(Phase::Run);
            spin(20_000_000);
        }
        spin(20_000_000); // uninstrumented
        let r = disable();
        let pct = r.coverage_pct();
        assert!(pct > 20.0 && pct < 80.0, "roughly half covered: {pct}");
        assert!(r.table().contains("step_loop"));
        assert!(r.table().contains("(wall)"));
    }

    #[test]
    fn merge_sums_reports() {
        enable();
        {
            let _g = scope(Phase::Directory);
            spin(50_000);
        }
        let a = disable();
        enable();
        {
            let _g = scope(Phase::Directory);
            spin(50_000);
        }
        {
            let _g = scope(Phase::Fabric);
            spin(10_000);
        }
        let b = disable();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.phase(Phase::Directory).unwrap().count, 2);
        assert_eq!(m.phase(Phase::Fabric).unwrap().count, 1);
        assert_eq!(m.wall_ns, a.wall_ns + b.wall_ns);
        assert_eq!(
            m.phase(Phase::Directory).unwrap().total_ns,
            a.phase(Phase::Directory).unwrap().total_ns
                + b.phase(Phase::Directory).unwrap().total_ns
        );
    }

    #[test]
    fn phase_registry_is_consistent() {
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "registry order matches discriminants");
            assert!(!p.name().is_empty());
        }
        // Names are unique (they key JSON artifacts).
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = clock::now_ns();
        let b = clock::now_ns();
        assert!(b >= a);
    }
}
