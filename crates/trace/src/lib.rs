//! Observability for the BulkSC reproduction: cycle-stamped structured
//! events, pluggable sinks, interval metrics, and hand-rolled JSON.
//!
//! The simulator's end-of-run aggregates (`SimReport`) answer *what*
//! happened; this crate answers *when* and *why*: every interesting step of
//! the chunk lifecycle — chunk start, commit permission request / grant /
//! deny, commit, squash (with cause), W-signature expansion in the
//! directory, cache and directory displacements, Private Buffer supplies —
//! plus raw network send/deliver hops, is an [`Event`] a component can emit
//! through a [`TraceHandle`].
//!
//! # Zero cost when off
//!
//! Tracing must never perturb the simulation it observes, and an untraced
//! run must not pay for the instrumentation. Two layers guarantee that:
//!
//! * [`TraceHandle`] is the *handle* components hold. With no sinks
//!   attached (the default), [`TraceHandle::emit`] is one inlined
//!   `Vec::is_empty` check and the event-constructing closure is never
//!   called — no allocation, no formatting, no dynamic dispatch.
//! * [`NopTracer`] is the do-nothing [`Tracer`] implementation; its
//!   `record` is an inlined empty body. Attaching it (or nothing at all)
//!   leaves simulated cycle counts bit-identical to an untraced build.
//!
//! Events never feed back into simulation state, so any sink combination
//! observes the same execution: traced and untraced runs retire the same
//! instructions in the same cycles.
//!
//! # Sinks
//!
//! * [`RingTracer`] — bounded last-K buffer, dumped with
//!   `System::debug_state()` when a run gets stuck;
//! * [`JsonlTracer`] — one JSON object per event, byte-deterministic for
//!   same-seed runs;
//! * [`ChromeTracer`] — Chrome trace-event JSON loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! # Thread confinement
//!
//! A [`TraceHandle`] shares its sinks through `Rc<RefCell<...>>`, which
//! makes it deliberately `!Send`: a handle — and therefore the `System`
//! holding it — is confined to the thread that built it. That is the
//! type-level guarantee the host-parallel sweep engine
//! (`bulksc_bench::pool`) leans on: each worker constructs its own
//! `System` + `TraceHandle` + sinks, the compiler rejects any attempt to
//! smuggle a handle across the scope boundary, and there is no locking on
//! the per-event hot path. Only the *rendered* results (strings,
//! [`Json`] values, reports) cross threads — those are plain data and
//! `Send`.
//!
//! ```compile_fail
//! // A TraceHandle cannot move to another thread (Rc<RefCell<...>> sinks).
//! let handle = bulksc_trace::TraceHandle::off();
//! std::thread::spawn(move || drop(handle));
//! ```
//!
//! # Example
//!
//! ```
//! use bulksc_trace::{Event, JsonlTracer, RingTracer, TraceHandle};
//!
//! let ring = RingTracer::shared(64);
//! let jsonl = JsonlTracer::shared();
//! let mut trace = TraceHandle::off();
//! assert!(!trace.enabled());
//! trace.attach(ring.clone());
//! trace.attach(jsonl.clone());
//!
//! trace.emit(17, || Event::ChunkStart { core: 0, seq: 0 });
//! assert_eq!(ring.borrow().seen(), 1);
//! // Line 1 is the schema header; events follow, one object per line.
//! let text = jsonl.borrow().contents().to_string();
//! assert!(text.starts_with("{\"schema\":\"bulksc-trace\""));
//! assert!(text.lines().nth(1).unwrap().starts_with("{\"t\":17"));
//! ```

use std::cell::RefCell;
use std::rc::Rc;

pub mod btf;
pub mod event;
pub mod json;
pub mod sampler;
pub mod sinks;
pub mod source;

pub use btf::{BlockMeta, BtfError, BtfReader, BtfTracer, BtfWriter, IndexedBtf};
pub use event::{ConflictAttr, Endpoint, EndpointKind, Event, SquashCause, XRAY_WITNESS_CAP};
pub use json::Json;
pub use sampler::{GaugeSnapshot, IntervalSample, IntervalSeries};
pub use sinks::{ChromeTracer, JsonlTracer, RingTracer};
pub use source::{EventSource, Format, SourceError};

/// Version of every on-disk artifact schema this workspace emits: the
/// JSONL event stream header, the sampler series header, and the
/// `results/*.json` RunLog. Bump it when an event's fields, an event
/// name, or an artifact's layout changes incompatibly; `bulksc-analyze`
/// refuses artifacts whose version it does not understand.
///
/// Version history: 3 introduced value events; 4 added the monotonic
/// `wall_ns` field to interval-sampler rows and the sweep-metrics
/// artifacts (`*.metrics.jsonl`); 5 added the optional xray conflict
/// attribution fields (`agg_core`/`agg_seq`/`site`/`witness`) to `squash`
/// and `commit_deny` events and the per-cause squash fields to heartbeat
/// snapshots.
pub const SCHEMA_VERSION: u64 = 5;

/// Oldest artifact schema version current tooling still reads. Version-5
/// readers accept version-3 and version-4 artifacts (the v4/v5 additions
/// are new fields, which loaders treat as optional), so committed
/// baselines survive the bump; anything older is refused.
pub const MIN_SCHEMA_VERSION: u64 = 3;

/// True if tooling built at [`SCHEMA_VERSION`] can read an artifact
/// stamped `version` (shared by every loader so the acceptance window
/// cannot drift between them).
pub fn schema_supported(version: u64) -> bool {
    (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version)
}

/// The first line of every JSONL event stream:
/// `{"schema":"bulksc-trace","version":N}`.
pub fn jsonl_header() -> String {
    Json::obj([
        ("schema", "bulksc-trace".into()),
        ("version", SCHEMA_VERSION.into()),
    ])
    .to_string()
}

/// A consumer of cycle-stamped events.
///
/// Implementations must not observe or influence simulation state; they
/// only receive immutable event descriptions.
pub trait Tracer {
    /// Record one event at `cycle`.
    fn record(&mut self, cycle: u64, event: &Event);

    /// Does this sink want the per-message `net_send` / `net_deliver`
    /// events? A sink that ignores them says no, and once no attached
    /// sink wants them the fabric and the system stop building them
    /// (see [`TraceHandle::emit_net`]). Sampled once, at attach.
    fn wants_net(&self) -> bool {
        true
    }

    /// If this sink buffers a recent-event tail, render it (used by
    /// `System::debug_state` for stuck-run dumps).
    fn ring_dump(&self) -> Option<String> {
        None
    }
}

/// The default tracer: does nothing, costs nothing.
///
/// Exists so APIs can demand "some tracer" and callers can opt out; the
/// usual way to run untraced, though, is a sink-less [`TraceHandle`],
/// which skips even the dynamic dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NopTracer;

impl Tracer for NopTracer {
    #[inline(always)]
    fn record(&mut self, _cycle: u64, _event: &Event) {}
}

/// The handle simulator components hold and emit through.
///
/// Cloning is cheap and shares the underlying sinks: the `System` keeps
/// one handle and hands clones to every node, directory, arbiter, and the
/// fabric, so one attached sink sees the globally-ordered event stream.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sinks: Vec<Rc<RefCell<dyn Tracer>>>,
    /// Some attached sink wants network events ([`Tracer::wants_net`]).
    net: bool,
}

impl TraceHandle {
    /// A handle with no sinks: tracing off, zero cost.
    pub fn off() -> TraceHandle {
        TraceHandle::default()
    }

    /// Attach a sink. All subsequent events (from every clone of this
    /// handle made *after* the attach) reach it.
    pub fn attach<T: Tracer + 'static>(&mut self, sink: Rc<RefCell<T>>) {
        self.net |= sink.borrow().wants_net();
        self.sinks.push(sink);
    }

    /// Is at least one sink attached?
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emit an event. `make` runs only if a sink is attached, so hot paths
    /// pay nothing for the event construction when tracing is off.
    #[inline]
    pub fn emit(&self, cycle: u64, make: impl FnOnce() -> Event) {
        if self.sinks.is_empty() {
            return;
        }
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::TraceEmit);
        let event = make();
        for sink in &self.sinks {
            sink.borrow_mut().record(cycle, &event);
        }
    }

    /// [`TraceHandle::emit`] for a network event: `make` runs only if
    /// some attached sink wants network events, and then every sink
    /// receives it.
    #[inline]
    pub fn emit_net(&self, cycle: u64, make: impl FnOnce() -> Event) {
        if self.net {
            self.emit(cycle, make);
        }
    }

    /// The first attached sink's recent-event dump, if any sink keeps one.
    pub fn ring_dump(&self) -> Option<String> {
        self.sinks.iter().find_map(|s| s.borrow().ring_dump())
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceHandle({} sinks)", self.sinks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_builds_events() {
        let trace = TraceHandle::off();
        assert!(!trace.enabled());
        trace.emit(1, || panic!("event constructed while tracing off"));
        assert!(trace.ring_dump().is_none());
    }

    #[test]
    fn clones_share_sinks() {
        let ring = RingTracer::shared(8);
        let mut trace = TraceHandle::off();
        trace.attach(ring.clone());
        let clone = trace.clone();
        trace.emit(1, || Event::ChunkStart { core: 0, seq: 0 });
        clone.emit(2, || Event::ChunkStart { core: 1, seq: 0 });
        assert_eq!(ring.borrow().seen(), 2);
        assert!(trace.ring_dump().unwrap().contains("chunk_start"));
    }

    #[test]
    fn multiple_sinks_see_every_event() {
        let ring = RingTracer::shared(8);
        let jsonl = JsonlTracer::shared();
        let mut trace = TraceHandle::off();
        trace.attach(ring.clone());
        trace.attach(jsonl.clone());
        assert!(trace.enabled());
        trace.emit(5, || Event::CommitGrant { core: 2, seq: 3 });
        assert_eq!(ring.borrow().seen(), 1);
        assert_eq!(jsonl.borrow().lines(), 1);
    }

    #[test]
    fn rendered_outputs_are_send_even_though_handles_are_not() {
        // The pool-based sweep engine moves finished results between
        // threads; events and JSON values must stay plain data. (The
        // matching negative — TraceHandle is !Send — is the compile_fail
        // doctest in the crate docs.)
        fn assert_send<T: Send>() {}
        assert_send::<Event>();
        assert_send::<Json>();
        assert_send::<String>();
    }

    #[test]
    fn network_events_are_built_only_for_a_sink_that_wants_them() {
        struct NoNet(u64);
        impl Tracer for NoNet {
            fn record(&mut self, _cycle: u64, _event: &Event) {
                self.0 += 1;
            }
            fn wants_net(&self) -> bool {
                false
            }
        }
        let net = || Event::NetDeliver {
            src: Endpoint::core(0),
            dst: Endpoint::dir(0),
            kind: "ReadShared",
        };
        let quiet = Rc::new(RefCell::new(NoNet(0)));
        let mut trace = TraceHandle::off();
        trace.attach(quiet.clone());
        trace.emit_net(1, || panic!("net event built for a sink that declined it"));
        trace.emit(2, || Event::ChunkStart { core: 0, seq: 0 });
        assert_eq!(quiet.borrow().0, 1);
        // A ring sink wants them: now every sink receives them.
        let ring = RingTracer::shared(8);
        trace.attach(ring.clone());
        trace.emit_net(3, net);
        assert_eq!((quiet.borrow().0, ring.borrow().seen()), (2, 1));
        TraceHandle::off().emit_net(4, || panic!("built with no sink"));
    }

    #[test]
    fn nop_tracer_is_attachable_and_silent() {
        let nop = Rc::new(RefCell::new(NopTracer));
        let mut trace = TraceHandle::off();
        trace.attach(nop);
        assert!(trace.enabled());
        trace.emit(1, || Event::CommitDeny {
            core: 0,
            seq: 0,
            xray: None,
        });
        assert!(trace.ring_dump().is_none());
    }
}
