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
//! itself the single-window special case), consuming JSONL
//! incrementally via [`check_jsonl_reader`] so the trace never has to
//! be materialized at all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::rc::Rc;

use bulksc_trace::json::{self, RawValue};
use bulksc_trace::{Event, Json, Tracer, SCHEMA_VERSION};

mod order;
pub mod stream;

pub use order::{
    check, check_model, CheckError, EdgeKind, MemoryModel, ScCertificate, ScViolation,
    ViolationKind,
};
pub use stream::{
    check_btf_reader, check_jsonl_reader, check_stream, Checkpoint, StreamCertificate,
    StreamChecker, StreamConfig, StreamError,
};

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

/// One parsed line of a JSONL event stream, as classified by
/// [`parse_trace_line`]: a value access (with `idx` left at 0 for the
/// caller to assign from its own stream position), a lifecycle event, or
/// a line the oracle ignores (blank, or an event kind it doesn't track).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLine {
    /// A `val_load` / `val_store` / `val_rmw` event.
    Access(Access),
    /// A chunk-lifecycle event.
    Lifecycle(LifecycleEvent),
    /// Blank line or untracked event kind.
    Skip,
}

/// Validate the stream's schema header (its first line). Errors name
/// `origin` so a bad file is identifiable among many.
pub fn parse_header_line(header: &str, origin: &str) -> Result<(), String> {
    let h =
        Json::parse(header).ok_or_else(|| format!("{origin}: trace header is not valid JSON"))?;
    if h.get("schema").and_then(Json::as_str) != Some("bulksc-trace") {
        return Err(format!(
            "{origin}: not a bulksc-trace stream (bad schema header)"
        ));
    }
    let version = h.get("version").and_then(Json::as_u64).unwrap_or(0);
    if !bulksc_trace::schema_supported(version) {
        return Err(format!(
            "{origin}: trace schema version {version} outside supported range \
             {}..={SCHEMA_VERSION} (value events appeared in version 3)",
            bulksc_trace::MIN_SCHEMA_VERSION
        ));
    }
    Ok(())
}

/// Parse one body line of a JSONL event stream. `lineno` is the 1-based
/// line number within the stream (the header is line 1); every error
/// names `origin` and that line so a bad line in a multi-GB trace is
/// found without bisecting.
///
/// The line is scanned in place ([`json::scan_object`]), not built into a
/// [`Json`] tree: it accepts the same lines, reads the same fields and
/// gives the same errors as `Json::parse` followed by `get` lookups.
pub fn parse_trace_line(line: &str, lineno: usize, origin: &str) -> Result<TraceLine, String> {
    if line.trim().is_empty() {
        return Ok(TraceLine::Skip);
    }
    let mut fields = EventFields::default();
    if !json::scan_object(line, |key, value| fields.note(&key, value)) {
        // Valid JSON that is not an object has no cycle stamp either.
        return Err(match Json::parse(line) {
            Some(_) => format!("{origin}: line {lineno}: event without cycle stamp"),
            None => format!("{origin}: line {lineno}: not valid JSON: {line}"),
        });
    }
    let t = fields
        .t
        .and_then(RawValue::as_u64)
        .ok_or_else(|| format!("{origin}: line {lineno}: event without cycle stamp"))?;
    let name = fields.ev.and_then(RawValue::as_str).unwrap_or_default();
    let field = |value: Option<RawValue>, key: &str| -> Result<u64, String> {
        value
            .and_then(RawValue::as_u64)
            .ok_or_else(|| format!("{origin}: line {lineno}: {name} event missing field {key:?}"))
    };
    let kind = match &*name {
        "val_load" => Some(AccessKind::Load {
            value: field(fields.value, "value")?,
        }),
        "val_store" => Some(AccessKind::Store {
            value: field(fields.value, "value")?,
        }),
        "val_rmw" => Some(AccessKind::Rmw {
            old: field(fields.old, "old")?,
            new: field(fields.new, "new")?,
        }),
        _ => None,
    };
    if let Some(kind) = kind {
        return Ok(TraceLine::Access(Access {
            idx: 0,
            core: field(fields.core, "core")? as u32,
            seq: field(fields.seq, "seq")?,
            po: field(fields.po, "po")?,
            addr: field(fields.addr, "addr")?,
            kind,
            retired_at: field(fields.retired_at, "retired_at")?,
            emitted_at: t,
        }));
    }
    let what = match &*name {
        "chunk_start" => Some("chunk_start"),
        "commit_grant" => Some("commit_grant"),
        "commit_deny" => Some("commit_deny"),
        "chunk_commit" => Some("chunk_commit"),
        "chunk_abandon" => Some("chunk_abandon"),
        "squash" => Some(match fields.cause.and_then(RawValue::as_str).as_deref() {
            Some("alias") => "squash(alias)",
            Some("true-sharing") => "squash(true-sharing)",
            _ => "squash(overflow)",
        }),
        _ => None,
    };
    Ok(match what {
        Some(what) => TraceLine::Lifecycle(LifecycleEvent {
            t,
            core: field(fields.core, "core")? as u32,
            seq: field(fields.seq, "seq")?,
            what,
        }),
        None => TraceLine::Skip,
    })
}

/// The fields of one JSONL event that [`parse_trace_line`] reads, each
/// the first occurrence of its key, as [`Json::get`] would find it.
#[derive(Default)]
struct EventFields<'a> {
    t: Option<RawValue<'a>>,
    ev: Option<RawValue<'a>>,
    core: Option<RawValue<'a>>,
    seq: Option<RawValue<'a>>,
    po: Option<RawValue<'a>>,
    addr: Option<RawValue<'a>>,
    value: Option<RawValue<'a>>,
    old: Option<RawValue<'a>>,
    new: Option<RawValue<'a>>,
    retired_at: Option<RawValue<'a>>,
    cause: Option<RawValue<'a>>,
}

impl<'a> EventFields<'a> {
    fn note(&mut self, key: &str, value: RawValue<'a>) {
        let slot = match key {
            "t" => &mut self.t,
            "ev" => &mut self.ev,
            "core" => &mut self.core,
            "seq" => &mut self.seq,
            "po" => &mut self.po,
            "addr" => &mut self.addr,
            "value" => &mut self.value,
            "old" => &mut self.old,
            "new" => &mut self.new,
            "retired_at" => &mut self.retired_at,
            "cause" => &mut self.cause,
            _ => return,
        };
        slot.get_or_insert(value);
    }
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

/// Classify one decoded simulator event exactly as [`parse_trace_line`]
/// classifies its JSONL rendering. This is the oracle's single event
/// policy: the live [`CollectingTracer`] sink, the batch loaders, and the
/// BTF ingestion path all route through it, so the two trace formats
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

    /// Parse a JSONL event stream (as written by `JsonlTracer`) into a
    /// value trace. Validates the schema header; unknown event names are
    /// ignored so the oracle stays compatible with richer streams.
    ///
    /// `origin` names the stream (a file path, `"-"`, a test label) and
    /// is quoted, with a 1-based line number, in every parse error.
    pub fn from_jsonl(text: &str, origin: &str) -> Result<ValueTrace, String> {
        Self::from_jsonl_reader(text.as_bytes(), origin)
    }

    /// [`ValueTrace::from_jsonl`], but consuming the stream one line at a
    /// time from any [`BufRead`] — a multi-GB trace file never has to be
    /// materialized as a single `String`. Read errors, like parse errors,
    /// name `origin` and the last complete line.
    pub fn from_jsonl_reader<R: BufRead>(mut r: R, origin: &str) -> Result<ValueTrace, String> {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Oracle);
        let mut line = String::new();
        let mut read_one = |line: &mut String, lineno: usize| -> Result<bool, String> {
            line.clear();
            let n = r
                .read_line(line)
                .map_err(|e| format!("{origin}: read error after line {lineno}: {e}"))?;
            Ok(n > 0)
        };
        if !read_one(&mut line, 0)? {
            return Err(format!("{origin}: empty trace"));
        }
        parse_header_line(line.trim_end(), origin)?;
        let mut trace = ValueTrace::default();
        let mut lineno = 1usize;
        while read_one(&mut line, lineno)? {
            lineno += 1;
            match parse_trace_line(line.trim_end(), lineno, origin)? {
                TraceLine::Access(mut a) => {
                    a.idx = trace.accesses.len();
                    trace.accesses.push(a);
                }
                TraceLine::Lifecycle(e) => trace.lifecycle.push(e),
                TraceLine::Skip => {}
            }
        }
        Ok(trace)
    }

    /// [`ValueTrace::from_jsonl_reader`]'s binary sibling: load a BTF
    /// artifact block by block. Same event policy (both routes go through
    /// [`classify_event`] via [`ValueTrace::absorb`]), same error shape —
    /// `origin` names the stream in every message.
    pub fn from_btf_reader<R: std::io::Read>(r: R, origin: &str) -> Result<ValueTrace, String> {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Oracle);
        let mut reader = bulksc_trace::BtfReader::new(r).map_err(|e| format!("{origin}: {e}"))?;
        let mut trace = ValueTrace::default();
        while let Some(block) = reader.next_block().map_err(|e| format!("{origin}: {e}"))? {
            for (cycle, ev) in block {
                trace.absorb(cycle, &ev);
            }
        }
        Ok(trace)
    }

    /// The final value per traced address (the last write in co), as the
    /// witness replay would leave memory. Addresses only ever read map to
    /// nothing here (they stayed at their initial 0).
    pub fn final_writes(&self) -> BTreeMap<u64, u64> {
        let mut mem = BTreeMap::new();
        for a in &self.accesses {
            if let Some(v) = a.published() {
                mem.insert(a.addr, v);
            }
        }
        mem
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

    /// Number of accesses collected so far.
    pub fn accesses(&self) -> usize {
        self.trace.accesses.len()
    }

    /// Take the collected trace, leaving the sink empty.
    pub fn take(&mut self) -> ValueTrace {
        std::mem::take(&mut self.trace)
    }

    /// Borrow the collected trace without consuming it.
    pub fn trace(&self) -> &ValueTrace {
        &self.trace
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
        assert_eq!(vt.final_writes(), BTreeMap::from([(0x100, 7), (0x108, 1)]));
        assert_eq!(sink.borrow().accesses(), 0, "take drained the sink");
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
        // Unknown events and blank lines are fine.
        let ok = format!("{header}\n\n{{\"t\":1,\"ev\":\"future_event\",\"core\":0}}\n");
        assert!(ValueTrace::from_jsonl(&ok, "t")
            .unwrap()
            .accesses
            .is_empty());
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
        assert!(err.contains("val_store"), "{err}");
        // Header problems name the origin too.
        let err = ValueTrace::from_jsonl("", "empty.jsonl").unwrap_err();
        assert!(err.contains("empty.jsonl"), "{err}");
    }
}
