//! The three concrete tracer sinks: ring buffer, JSONL writer, and Chrome
//! trace-event exporter.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::Path;
use std::rc::Rc;

use crate::event::Event;
use crate::{Json, Tracer};

/// A bounded last-K ring buffer of events.
///
/// Cheap enough to leave attached on long runs; its [`RingTracer::dump`]
/// is appended to `System::debug_state()` so a stuck simulation shows the
/// last things that happened, not just the final component states.
#[derive(Debug)]
pub struct RingTracer {
    capacity: usize,
    /// Total events seen (including ones the ring has already dropped).
    seen: u64,
    buf: VecDeque<(u64, Event)>,
}

impl RingTracer {
    /// A ring keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> RingTracer {
        RingTracer {
            capacity: capacity.max(1),
            seen: 0,
            buf: VecDeque::new(),
        }
    }

    /// A shareable ring, ready for [`crate::TraceHandle::attach`].
    pub fn shared(capacity: usize) -> Rc<RefCell<RingTracer>> {
        Rc::new(RefCell::new(RingTracer::new(capacity)))
    }

    /// Total events recorded, including those no longer buffered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The buffered `(cycle, event)` pairs, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.buf.iter()
    }

    /// Human-readable dump of the buffered tail, one event per line.
    pub fn dump(&self) -> String {
        let mut out = format!(
            "trace ring: last {} of {} events\n",
            self.buf.len(),
            self.seen
        );
        for (cycle, ev) in &self.buf {
            out.push_str(&format!("  [{cycle:>8}] {ev}\n"));
        }
        out
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, cycle: u64, event: &Event) {
        self.seen += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((cycle, event.clone()));
    }

    fn ring_dump(&self) -> Option<String> {
        Some(self.dump())
    }
}

/// A JSONL (one JSON object per line) event writer.
///
/// Accumulates in memory — the event volume of a simulation run is modest
/// and buffering keeps recording deterministic and infallible — and is
/// written out with [`JsonlTracer::write_to`] (or read back with
/// [`JsonlTracer::contents`]) after the run. The first line is always the
/// schema header ([`crate::jsonl_header`]); [`JsonlTracer::lines`] counts
/// events only.
#[derive(Debug)]
pub struct JsonlTracer {
    out: String,
    lines: u64,
}

impl Default for JsonlTracer {
    fn default() -> JsonlTracer {
        JsonlTracer::new()
    }
}

impl JsonlTracer {
    pub fn new() -> JsonlTracer {
        let mut out = crate::jsonl_header();
        out.push('\n');
        JsonlTracer { out, lines: 0 }
    }

    /// A shareable writer, ready for [`crate::TraceHandle::attach`].
    pub fn shared() -> Rc<RefCell<JsonlTracer>> {
        Rc::new(RefCell::new(JsonlTracer::new()))
    }

    /// The JSONL text so far (each line a complete JSON object).
    pub fn contents(&self) -> &str {
        &self.out
    }

    /// Number of lines (= events) recorded.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write the stream to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, &self.out)
    }
}

impl Tracer for JsonlTracer {
    fn record(&mut self, cycle: u64, event: &Event) {
        event.write_jsonl(cycle, &mut self.out);
        self.out.push('\n');
        self.lines += 1;
    }
}

/// A Chrome trace-event exporter (the JSON Array Format understood by
/// `chrome://tracing` and <https://ui.perfetto.dev>).
///
/// Every simulator event becomes an *instant* event (`"ph":"i"`): `ts` is
/// the simulated cycle, `pid` the component kind, and `tid` the component
/// index, so Perfetto lays cores, directories, and arbiters out as
/// separate tracks. Chunk commits additionally emit a per-core counter
/// (`"ph":"C"`) of committed chunks, giving a cumulative-progress plot.
#[derive(Debug, Default)]
pub struct ChromeTracer {
    entries: Vec<String>,
    commits_per_core: Vec<u64>,
}

impl ChromeTracer {
    pub fn new() -> ChromeTracer {
        ChromeTracer::default()
    }

    /// A shareable exporter, ready for [`crate::TraceHandle::attach`].
    pub fn shared() -> Rc<RefCell<ChromeTracer>> {
        Rc::new(RefCell::new(ChromeTracer::new()))
    }

    /// The complete trace file contents (`{"traceEvents":[...]}`).
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    /// Write the trace file to `path` (open it in Perfetto).
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.finish())
    }

    /// Number of trace entries emitted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Tracer for ChromeTracer {
    fn record(&mut self, cycle: u64, event: &Event) {
        let actor = event.actor();
        let mut args = Json::Obj(Vec::new());
        for (k, v) in event.fields() {
            args.push(k, v);
        }
        let entry = Json::obj([
            ("name", event.name().into()),
            ("cat", format!("{:?}", actor.kind).to_lowercase().into()),
            ("ph", "i".into()),
            ("s", "t".into()),
            ("ts", cycle.into()),
            ("pid", Json::U64(0)),
            ("tid", actor.to_string().into()),
            ("args", args),
        ]);
        self.entries.push(entry.to_string());

        if let Event::ChunkCommit { core, .. } = *event {
            let idx = core as usize;
            if self.commits_per_core.len() <= idx {
                self.commits_per_core.resize(idx + 1, 0);
            }
            self.commits_per_core[idx] += 1;
            let counter = Json::obj([
                ("name", format!("chunks_committed core{core}").into()),
                ("ph", "C".into()),
                ("ts", cycle.into()),
                ("pid", Json::U64(0)),
                (
                    "args",
                    Json::obj([("count", self.commits_per_core[idx].into())]),
                ),
            ]);
            self.entries.push(counter.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SquashCause;
    use crate::json::is_valid;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ChunkStart { core: 0, seq: 0 },
            Event::ChunkCommit {
                core: 0,
                seq: 0,
                read_lines: 5,
                write_lines: 1,
                priv_lines: 2,
            },
            Event::Squash {
                core: 1,
                seq: 4,
                cause: SquashCause::TrueSharing,
                squashed_instrs: 9,
                xray: None,
            },
        ]
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut ring = RingTracer::new(2);
        for (i, ev) in sample_events().iter().enumerate() {
            ring.record(i as u64, ev);
        }
        assert_eq!(ring.seen(), 3);
        let cycles: Vec<u64> = ring.events().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![1, 2]);
        let dump = ring.dump();
        assert!(dump.contains("last 2 of 3 events"));
        assert!(dump.contains("squash"));
        assert!(ring.ring_dump().is_some());
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let mut w = JsonlTracer::new();
        for (i, ev) in sample_events().iter().enumerate() {
            w.record(i as u64 * 10, ev);
        }
        assert_eq!(w.lines(), 3, "lines() counts events, not the header");
        let lines: Vec<&str> = w.contents().lines().collect();
        assert_eq!(lines.len(), 4, "schema header + one line per event");
        assert!(lines[0].contains("\"schema\":\"bulksc-trace\""));
        assert!(lines[0].contains(&format!("\"version\":{}", crate::SCHEMA_VERSION)));
        for line in lines {
            assert!(is_valid(line), "bad line: {line}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_counters() {
        let mut c = ChromeTracer::new();
        for (i, ev) in sample_events().iter().enumerate() {
            c.record(i as u64, ev);
        }
        // 3 instants + 1 counter for the commit.
        assert_eq!(c.len(), 4);
        let out = c.finish();
        assert!(is_valid(&out), "bad chrome trace: {out}");
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"tid\":\"core1\""));
    }
}
