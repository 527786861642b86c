//! SC conformance oracle: certify (or refute) that one simulated
//! execution is sequentially consistent.
//!
//! The timing simulator, when value tracing is on, emits one `val_load` /
//! `val_store` / `val_rmw` event per retired-and-committed memory access:
//! the value every load observed and the value every store published,
//! tagged with the owning core, chunk sequence number, per-core program
//! order, and retire cycle. This crate consumes that stream — live
//! through a [`CollectingTracer`] sink, or offline from a JSONL file —
//! and answers the only question that matters for a consistency-model
//! reproduction: *was this execution SC?*
//!
//! # The witness order
//!
//! Following Shasha–Snir, an execution is SC iff the union of four
//! relations over its accesses is acyclic:
//!
//! * **po** — per-core program order (the `po` index stamped on every
//!   access);
//! * **co** — coherence order: the total order of writes per location.
//!   In this simulator all values live in one global value store, so the
//!   trace-stream order of `val_store`/`val_rmw` events at one address
//!   *is* co — no inference needed;
//! * **rf** — reads-from: derived by matching each load's observed value
//!   against the writes at that address (memory starts zeroed, so a load
//!   of 0 with no zero-writer reads from a virtual initial store);
//! * **fr** — from-reads: each read precedes the co-successor of the
//!   write it read from.
//!
//! If several writes to one address published the same value the read's
//! source is ambiguous; the oracle then *skips* that read's rf/fr edges
//! (sound — dropping edges can only under-approximate, never fabricate,
//! a cycle) and reports the count, so workloads that want airtight
//! checking use distinct store values.
//!
//! A topological sort of the union yields a **witness**: one global
//! interleaving that explains every observed value. The oracle replays
//! it against a fresh memory image as a final cross-check and returns
//! the end state. A cycle, an observed value no write ever published, or
//! a torn read-modify-write yields an [`ScViolation`] naming the minimal
//! offending access set, with the chunk-lifecycle events around it for
//! context.
//!
//! Complexity: `O(n log n)` to order accesses plus `O(n + e)` for the
//! sort itself, with `e ≤ 4n` edges — a million-access trace checks in
//! well under a second. Memory is `O(n)` in batch mode; for traces that
//! outgrow it, the [`stream`] module certifies the same witness order
//! window by window in memory bounded by the window size ([`check`] is
//! itself the single-window special case, and both return one
//! [`ScCertificate`]). [`check_events`] is the one trace reader: it
//! feeds either encoding, event by event from an [`EventSource`], into
//! the checker, so the trace never has to be materialized at all.

use std::cell::RefCell;
use std::rc::Rc;

use bulksc_trace::{Event, EventSource, Tracer};

mod order;
pub mod stream;

pub use order::{
    check, check_model, CheckError, EdgeKind, MemoryModel, ScCertificate, ScViolation,
    ViolationKind,
};
pub use stream::{check_events, check_stream, StreamChecker, StreamConfig, StreamError};

/// What one traced access did at its address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Observed `value`.
    Load { value: u64 },
    /// Published `value`.
    Store { value: u64 },
    /// Atomically observed `old` and published `new`.
    Rmw { old: u64, new: u64 },
}

/// One memory access from the value trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Position in the global trace stream (the co tiebreaker).
    pub idx: usize,
    /// Issuing core.
    pub core: u32,
    /// Owning chunk sequence number (0 for baseline models).
    pub seq: u64,
    /// Per-core program-order index.
    pub po: u64,
    /// Word address.
    pub addr: u64,
    /// Load / store / RMW and the values involved.
    pub kind: AccessKind,
    /// Cycle the access retired at its core.
    pub retired_at: u64,
    /// Cycle the event entered the trace (commit-grant cycle for BulkSC).
    pub emitted_at: u64,
}

impl Access {
    /// The value this access observed, if it reads.
    pub fn observed(&self) -> Option<u64> {
        match self.kind {
            AccessKind::Load { value } => Some(value),
            AccessKind::Rmw { old, .. } => Some(old),
            AccessKind::Store { .. } => None,
        }
    }

    /// The value this access published, if it writes.
    pub fn published(&self) -> Option<u64> {
        match self.kind {
            AccessKind::Store { value } => Some(value),
            AccessKind::Rmw { new, .. } => Some(new),
            AccessKind::Load { .. } => None,
        }
    }

    /// One-line rendering used in violation reports.
    pub fn describe(&self) -> String {
        let what = match self.kind {
            AccessKind::Load { value } => format!("load  0x{:x} -> {}", self.addr, value),
            AccessKind::Store { value } => format!("store 0x{:x} <- {}", self.addr, value),
            AccessKind::Rmw { old, new } => {
                format!("rmw   0x{:x}: {} -> {}", self.addr, old, new)
            }
        };
        format!(
            "core{} chunk#{} po={} {} (retired @{}, visible @{})",
            self.core, self.seq, self.po, what, self.retired_at, self.emitted_at
        )
    }
}

/// A chunk-lifecycle event kept alongside the accesses so a violation
/// report can show what the machine was doing around the offending
/// accesses (which chunk committed, what squashed and why).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Emission cycle.
    pub t: u64,
    /// Core the event happened at.
    pub core: u32,
    /// Chunk sequence number.
    pub seq: u64,
    /// Stable label: `chunk_start`, `commit_grant`, `commit_deny`,
    /// `chunk_commit`, `chunk_abandon`, or `squash(<cause>)`.
    pub what: &'static str,
}

/// What the oracle makes of one trace event, as [`classify_event`]
/// classifies it: a value access (with `idx` left at 0 for the caller to
/// assign from its own stream position), a lifecycle event, or an event
/// the oracle ignores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLine {
    /// A `val_load` / `val_store` / `val_rmw` event.
    Access(Access),
    /// A chunk-lifecycle event.
    Lifecycle(LifecycleEvent),
    /// An event kind the oracle does not track.
    Skip,
}

/// The lifecycle label for a squash cause (static so [`LifecycleEvent`]
/// stays `Copy`).
fn squash_label(cause: bulksc_trace::SquashCause) -> &'static str {
    match cause {
        bulksc_trace::SquashCause::Alias => "squash(alias)",
        bulksc_trace::SquashCause::TrueSharing => "squash(true-sharing)",
        bulksc_trace::SquashCause::Overflow => "squash(overflow)",
    }
}

/// Classify one decoded simulator event. This is the oracle's single
/// event policy: the live [`CollectingTracer`] sink and [`check_events`],
/// which reads both trace encodings, route through it, so the formats
/// cannot drift in what the checker sees. Accesses come back with `idx`
/// 0 — the caller assigns stream positions.
pub fn classify_event(cycle: u64, event: &Event) -> TraceLine {
    let access = |core, seq, po, addr, kind, retired_at| {
        TraceLine::Access(Access {
            idx: 0,
            core,
            seq,
            po,
            addr,
            kind,
            retired_at,
            emitted_at: cycle,
        })
    };
    let lifecycle = |core, seq, what| {
        TraceLine::Lifecycle(LifecycleEvent {
            t: cycle,
            core,
            seq,
            what,
        })
    };
    match *event {
        Event::ValLoad {
            core,
            seq,
            po,
            addr,
            value,
            retired_at,
        } => access(core, seq, po, addr, AccessKind::Load { value }, retired_at),
        Event::ValStore {
            core,
            seq,
            po,
            addr,
            value,
            retired_at,
        } => access(core, seq, po, addr, AccessKind::Store { value }, retired_at),
        Event::ValRmw {
            core,
            seq,
            po,
            addr,
            old,
            new,
            retired_at,
        } => access(
            core,
            seq,
            po,
            addr,
            AccessKind::Rmw { old, new },
            retired_at,
        ),
        Event::ChunkStart { core, seq } => lifecycle(core, seq, "chunk_start"),
        Event::CommitGrant { core, seq } => lifecycle(core, seq, "commit_grant"),
        Event::CommitDeny { core, seq, .. } => lifecycle(core, seq, "commit_deny"),
        Event::ChunkCommit { core, seq, .. } => lifecycle(core, seq, "chunk_commit"),
        Event::ChunkAbandon { core, seq } => lifecycle(core, seq, "chunk_abandon"),
        Event::Squash {
            core, seq, cause, ..
        } => lifecycle(core, seq, squash_label(cause)),
        _ => TraceLine::Skip,
    }
}

/// A full value trace of one execution: every committed memory access in
/// global visibility order, plus the chunk-lifecycle context.
#[derive(Clone, Debug, Default)]
pub struct ValueTrace {
    /// Accesses in trace-stream order (`idx` is the position here).
    pub accesses: Vec<Access>,
    /// Chunk lifecycle events, in stream order.
    pub lifecycle: Vec<LifecycleEvent>,
}

impl ValueTrace {
    /// Absorb one simulator event (value events become accesses,
    /// lifecycle events become context, everything else is ignored).
    pub fn absorb(&mut self, cycle: u64, event: &Event) {
        match classify_event(cycle, event) {
            TraceLine::Access(mut a) => {
                a.idx = self.accesses.len();
                self.accesses.push(a);
            }
            TraceLine::Lifecycle(e) => self.lifecycle.push(e),
            TraceLine::Skip => {}
        }
    }

    /// Load a JSONL event stream (as written by `JsonlTracer`) into a
    /// value trace, through the same [`EventSource`] decoder every trace
    /// consumer reads with. `origin` names the stream (a file path, a test
    /// label) and is quoted, with a 1-based line number, in every error.
    pub fn from_jsonl(text: &str, origin: &str) -> Result<ValueTrace, String> {
        let mut trace = ValueTrace::default();
        for item in EventSource::new(text.as_bytes(), origin).map_err(|e| e.to_string())? {
            let (cycle, ev) = item.map_err(|e| e.to_string())?;
            trace.absorb(cycle, &ev);
        }
        Ok(trace)
    }

    /// Run the oracle on this trace.
    pub fn verify(&self) -> Result<ScCertificate, CheckError> {
        self.verify_model(MemoryModel::Sc)
    }

    /// Run the oracle on this trace under an explicit memory model.
    pub fn verify_model(&self, model: MemoryModel) -> Result<ScCertificate, CheckError> {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Oracle);
        check_model(&self.accesses, &self.lifecycle, model)
    }
}

/// A [`Tracer`] sink that collects the value trace of a live run.
///
/// Attach it (alongside any other sinks) before `System::run`, then
/// [`CollectingTracer::take`] the trace and [`ValueTrace::verify`] it.
#[derive(Debug, Default)]
pub struct CollectingTracer {
    trace: ValueTrace,
}

impl CollectingTracer {
    /// A fresh shared sink, ready for `TraceHandle::attach`.
    pub fn shared() -> Rc<RefCell<CollectingTracer>> {
        Rc::new(RefCell::new(CollectingTracer::default()))
    }

    /// Take the collected trace, leaving the sink empty.
    pub fn take(&mut self) -> ValueTrace {
        std::mem::take(&mut self.trace)
    }
}

impl Tracer for CollectingTracer {
    fn record(&mut self, cycle: u64, event: &Event) {
        self.trace.absorb(cycle, event);
    }

    /// The oracle classifies network events as `Skip`.
    fn wants_net(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_trace::TraceHandle;

    #[test]
    fn collecting_tracer_absorbs_value_and_lifecycle_events() {
        let sink = CollectingTracer::shared();
        let mut trace = TraceHandle::off();
        trace.attach(sink.clone());
        trace.emit(10, || Event::ChunkStart { core: 0, seq: 1 });
        trace.emit(12, || Event::ValStore {
            core: 0,
            seq: 1,
            po: 0,
            addr: 0x100,
            value: 7,
            retired_at: 11,
        });
        trace.emit(12, || Event::ValLoad {
            core: 1,
            seq: 0,
            po: 0,
            addr: 0x100,
            value: 7,
            retired_at: 12,
        });
        trace.emit(13, || Event::ValRmw {
            core: 1,
            seq: 0,
            po: 1,
            addr: 0x108,
            old: 0,
            new: 1,
            retired_at: 13,
        });
        trace.emit(14, || Event::CommitDeny {
            core: 0,
            seq: 2,
            xray: None,
        });
        trace.emit(15, || Event::NetDeliver {
            src: bulksc_trace::Endpoint::core(0),
            dst: bulksc_trace::Endpoint::dir(0),
            kind: "ignored",
        });
        trace.emit_net(16, || panic!("the oracle's sink declines net events"));
        let vt = sink.borrow_mut().take();
        assert_eq!(vt.accesses.len(), 3);
        assert_eq!(vt.lifecycle.len(), 2);
        assert_eq!(vt.accesses[0].published(), Some(7));
        assert_eq!(vt.accesses[1].observed(), Some(7));
        assert_eq!(vt.accesses[2].kind, AccessKind::Rmw { old: 0, new: 1 });
        assert_eq!(vt.accesses[2].idx, 2);
        let drained = sink.borrow_mut().take();
        assert!(
            drained.accesses.is_empty() && drained.lifecycle.is_empty(),
            "take drained the sink"
        );
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let events: Vec<(u64, Event)> = vec![
            (5, Event::ChunkStart { core: 0, seq: 1 }),
            (
                9,
                Event::ValStore {
                    core: 0,
                    seq: 1,
                    po: 0,
                    addr: 0x1_0000,
                    value: 3,
                    retired_at: 7,
                },
            ),
            (
                9,
                Event::ValLoad {
                    core: 0,
                    seq: 1,
                    po: 1,
                    addr: 0x1_0008,
                    value: 0,
                    retired_at: 8,
                },
            ),
            (
                11,
                Event::ValRmw {
                    core: 1,
                    seq: 0,
                    po: 0,
                    addr: 0x1_0000,
                    old: 3,
                    new: 4,
                    retired_at: 11,
                },
            ),
            (
                12,
                Event::Squash {
                    core: 1,
                    seq: 3,
                    cause: bulksc_trace::SquashCause::Alias,
                    squashed_instrs: 9,
                    xray: None,
                },
            ),
        ];
        let mut text = bulksc_trace::jsonl_header();
        text.push('\n');
        let mut direct = ValueTrace::default();
        for (t, ev) in &events {
            text.push_str(&ev.jsonl(*t));
            text.push('\n');
            direct.absorb(*t, ev);
        }
        let parsed = ValueTrace::from_jsonl(&text, "test").expect("parses");
        assert_eq!(parsed.accesses, direct.accesses);
        assert_eq!(parsed.lifecycle, direct.lifecycle);
        assert_eq!(parsed.lifecycle[1].what, "squash(alias)");
    }

    #[test]
    fn jsonl_parser_rejects_bad_input() {
        assert!(ValueTrace::from_jsonl("", "t").is_err());
        assert!(ValueTrace::from_jsonl("{\"schema\":\"other\"}\n", "t").is_err());
        assert!(
            ValueTrace::from_jsonl("{\"schema\":\"bulksc-trace\",\"version\":2}\n", "t").is_err()
        );
        let header = bulksc_trace::jsonl_header();
        assert!(ValueTrace::from_jsonl(&format!("{header}\nnot json\n"), "t").is_err());
        assert!(ValueTrace::from_jsonl(
            &format!("{header}\n{{\"t\":1,\"ev\":\"val_load\",\"core\":0}}\n"),
            "t"
        )
        .is_err());
        // Blank lines are fine; an unknown event kind is refused, as BTF
        // has no record for it.
        let ok = format!(
            "{header}\n\n{}\n",
            Event::ChunkStart { core: 0, seq: 0 }.jsonl(1)
        );
        assert_eq!(ValueTrace::from_jsonl(&ok, "t").unwrap().lifecycle.len(), 1);
        let unknown = format!("{header}\n\n{{\"t\":1,\"ev\":\"future_event\",\"core\":0}}\n");
        assert_eq!(
            ValueTrace::from_jsonl(&unknown, "t").unwrap_err(),
            "t: line 3: unknown event kind \"future_event\""
        );
    }

    #[test]
    fn jsonl_parse_errors_name_origin_and_line() {
        let header = bulksc_trace::jsonl_header();
        let text = format!("{header}\n\nnot json\n");
        let err = ValueTrace::from_jsonl(&text, "results/run.jsonl").unwrap_err();
        assert!(
            err.starts_with("results/run.jsonl: line 3:"),
            "error must carry file + 1-based line, got: {err}"
        );
        // A value event with a missing field is located the same way.
        let text = format!("{header}\n{{\"t\":1,\"ev\":\"val_store\",\"core\":0}}\n");
        let err = ValueTrace::from_jsonl(&text, "x.jsonl").unwrap_err();
        assert!(err.starts_with("x.jsonl: line 2:"), "{err}");
        assert!(
            err.ends_with("missing or non-integer field \"seq\""),
            "{err}"
        );
        // Header problems name the origin too.
        let err = ValueTrace::from_jsonl("", "empty.jsonl").unwrap_err();
        assert!(err.contains("empty.jsonl"), "{err}");
    }
}
