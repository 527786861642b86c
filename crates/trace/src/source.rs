//! [`EventSource`]: one streaming reader of `(cycle, Event)` pairs over
//! either trace encoding, shared by every trace consumer.
//!
//! The format is sniffed once from the buffered head of the input
//! ([`Format::sniff`], so a pipe works as well as a file), then decoded
//! incrementally: the JSONL arm reads one line at a time into a reused
//! buffer, the BTF arm holds one decoded block at a time. Memory is
//! bounded by a block (or a line) whatever the trace length. Blank JSONL
//! lines are skipped. Every error names the input's origin and the
//! position it was found at — a 1-based line or a 0-based block — and
//! ends the stream: the iterator yields `None` after an error.
//!
//! On a seekable BTF input, [`EventSource::indexed`] consults the footer
//! index and decodes only the blocks a predicate keeps;
//! [`EventSource::blocks`] reports the total / decoded / skipped counts.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, Write};

use crate::btf::{self, BlockMeta, BtfError, BtfReader, BtfWriter, IndexedBtf};
use crate::{Event, Json};

/// Longest JSONL line accepted. Event lines are well under 1 KiB; the cap
/// keeps a newline-free garbage input from growing the line buffer
/// without bound.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// A trace encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// One JSON object per line, schema header first.
    Jsonl,
    /// The binary trace format ([`crate::btf`]).
    Btf,
}

impl Format {
    /// Sniff the encoding from the buffered head of `input` without
    /// consuming it. Input that starts like [`btf::MAGIC`] is BTF — a
    /// short first read holding only a prefix of the magic included —
    /// and everything else is JSONL.
    pub fn sniff<R: BufRead + ?Sized>(input: &mut R) -> io::Result<Format> {
        let head = input.fill_buf()?;
        let n = head.len().min(btf::MAGIC.len());
        Ok(if n > 0 && head[..n] == btf::MAGIC[..n] {
            Format::Btf
        } else {
            Format::Jsonl
        })
    }
}

/// Open a trace for buffered reading — a file, or stdin for `-` — for
/// [`EventSource::new`], which sniffs its format.
pub fn open(path: &str) -> io::Result<Box<dyn BufRead + Send>> {
    Ok(if path == "-" {
        Box::new(BufReader::with_capacity(1 << 16, io::stdin()))
    } else {
        Box::new(BufReader::with_capacity(1 << 16, File::open(path)?))
    })
}

/// How a path is named in messages: `<stdin>` for `-`.
pub fn origin_of(path: &str) -> &str {
    if path == "-" {
        "<stdin>"
    } else {
        path
    }
}

/// Where in its input a [`SourceError`] was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Position {
    /// The BTF container framing: magic and version, plus the trailer and
    /// footer index for an indexed source.
    Header,
    /// A 1-based JSONL line (the schema header is line 1).
    Line(u64),
    /// A 0-based BTF block, in file order.
    Block(usize),
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Position::Header => write!(f, "header"),
            Position::Line(n) => write!(f, "line {n}"),
            Position::Block(i) => write!(f, "block {i}"),
        }
    }
}

/// What went wrong at a [`Position`].
#[derive(Debug)]
pub enum Cause {
    /// The BTF codec refused the bytes (or the read under it failed).
    Btf(BtfError),
    /// A JSONL line did not read, parse, or decode.
    Jsonl(String),
}

/// A named decode failure: origin, position, and cause.
#[derive(Debug)]
pub struct SourceError {
    /// The input's name (a path, `<stdin>`, a test label).
    pub origin: String,
    /// Where in the input the failure was found.
    pub at: Position,
    pub cause: Cause,
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: ", self.origin, self.at)?;
        match &self.cause {
            Cause::Btf(e) => write!(f, "{e}"),
            Cause::Jsonl(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Why [`EventSource::write_jsonl`] / [`EventSource::write_btf`] stopped.
#[derive(Debug)]
pub enum TranscodeError {
    /// The input failed to decode.
    Input(SourceError),
    /// The output refused bytes.
    Output(io::Error),
}

impl fmt::Display for TranscodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranscodeError::Input(e) => write!(f, "{e}"),
            TranscodeError::Output(e) => write!(f, "write error: {e}"),
        }
    }
}

/// Block accounting of a BTF source. A JSONL source reports all zeros; a
/// streaming BTF source decodes every block it meets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks in the artifact (for a streaming source: met so far).
    pub total: usize,
    /// Blocks decoded.
    pub decoded: usize,
    /// Blocks the index predicate skipped without decoding.
    pub skipped: usize,
}

/// The next decoded block (`None` at the end), or the failing block's
/// position and the codec's error.
type Pulled = Result<Option<Vec<(u64, Event)>>, (usize, BtfError)>;

/// A supply of decoded BTF blocks: in stream order, or filtered by index.
trait Blocks {
    /// The next block to decode, or `None` at the end. Errors carry the
    /// block's position.
    fn pull(&mut self, stats: &mut BlockStats) -> Pulled;
}

impl<R: Read> Blocks for BtfReader<R> {
    fn pull(&mut self, stats: &mut BlockStats) -> Pulled {
        let block = self.next_block().map_err(|e| (stats.total, e))?;
        if block.is_some() {
            stats.total += 1;
            stats.decoded += 1;
        }
        Ok(block)
    }
}

/// An indexed artifact read in file order, skipping blocks `keep` rejects.
struct Skipping<R: Read + Seek, F> {
    btf: IndexedBtf<R>,
    keep: F,
    next: usize,
}

impl<R: Read + Seek, F: FnMut(&BlockMeta) -> bool> Blocks for Skipping<R, F> {
    fn pull(&mut self, stats: &mut BlockStats) -> Pulled {
        while let Some(&meta) = self.btf.index().get(self.next) {
            let i = self.next;
            self.next += 1;
            if (self.keep)(&meta) {
                stats.decoded += 1;
                return self.btf.read_block(i).map(Some).map_err(|e| (i, e));
            }
            stats.skipped += 1;
        }
        Ok(None)
    }
}

enum Arm<'a> {
    Jsonl {
        input: Box<dyn BufRead + 'a>,
        line: String,
        lineno: u64,
    },
    Btf {
        blocks: Box<dyn Blocks + 'a>,
        block: std::vec::IntoIter<(u64, Event)>,
    },
    /// Exhausted, or stopped at an error.
    Done,
}

/// A streaming iterator of `(cycle, Event)` over a JSONL or BTF trace.
pub struct EventSource<'a> {
    origin: String,
    format: Format,
    version: u64,
    blocks: BlockStats,
    arm: Arm<'a>,
}

impl<'a> EventSource<'a> {
    /// Sniff `input`'s format and validate its header. Reads sequentially
    /// (no seeking), so pipes and stdin work.
    pub fn new(mut input: impl BufRead + 'a, origin: &str) -> Result<EventSource<'a>, SourceError> {
        match sniff(&mut input, origin)? {
            Format::Jsonl => EventSource::jsonl(Box::new(input), origin),
            Format::Btf => {
                let reader = BtfReader::new(input).map_err(|e| header_error(origin, e))?;
                let version = reader.version();
                Ok(EventSource::btf(
                    origin,
                    version,
                    Box::new(reader),
                    BlockStats::default(),
                ))
            }
        }
    }

    /// Like [`EventSource::new`], but a BTF input is read through its
    /// footer index and only blocks `keep` accepts are decoded. `keep`
    /// must be conservative — a rejected block's events are never seen.
    /// JSONL input has no index and streams in full.
    pub fn indexed<R: BufRead + Seek + 'a>(
        mut input: R,
        origin: &str,
        keep: impl FnMut(&BlockMeta) -> bool + 'a,
    ) -> Result<EventSource<'a>, SourceError> {
        match sniff(&mut input, origin)? {
            Format::Jsonl => EventSource::jsonl(Box::new(input), origin),
            Format::Btf => {
                let btf = IndexedBtf::new(input).map_err(|e| header_error(origin, e))?;
                let (version, total) = (btf.version(), btf.index().len());
                let blocks = Box::new(Skipping { btf, keep, next: 0 });
                let stats = BlockStats {
                    total,
                    ..BlockStats::default()
                };
                Ok(EventSource::btf(origin, version, blocks, stats))
            }
        }
    }

    fn jsonl(
        mut input: Box<dyn BufRead + 'a>,
        origin: &str,
    ) -> Result<EventSource<'a>, SourceError> {
        let fail = |m: String| SourceError {
            origin: origin.to_string(),
            at: Position::Line(1),
            cause: Cause::Jsonl(m),
        };
        let mut line = String::new();
        if !read_line_capped(&mut *input, &mut line).map_err(fail)? {
            return Err(fail("empty trace (not even a schema header)".to_string()));
        }
        let version = btf::parse_jsonl_header(&line).map_err(fail)?;
        Ok(EventSource {
            origin: origin.to_string(),
            format: Format::Jsonl,
            version,
            blocks: BlockStats::default(),
            arm: Arm::Jsonl {
                input,
                line,
                lineno: 1,
            },
        })
    }

    fn btf(
        origin: &str,
        version: u64,
        blocks: Box<dyn Blocks + 'a>,
        stats: BlockStats,
    ) -> EventSource<'a> {
        EventSource {
            origin: origin.to_string(),
            format: Format::Btf,
            version,
            blocks: stats,
            arm: Arm::Btf {
                blocks,
                block: Vec::new().into_iter(),
            },
        }
    }

    /// The input's name, as every error quotes it.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// The sniffed encoding.
    pub fn format(&self) -> Format {
        self.format
    }

    /// The artifact's schema version, from its header.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Block accounting so far (final once the stream has ended).
    pub fn blocks(&self) -> BlockStats {
        self.blocks
    }

    /// Stream the remaining events into `out` as JSONL, header first and
    /// stamped with this source's version (a v3 artifact stays v3).
    /// Returns the bytes written.
    pub fn write_jsonl(self, out: impl Write) -> Result<u64, TranscodeError> {
        let mut out = Counted {
            inner: out,
            bytes: 0,
        };
        // One line buffer for the whole stream, so no event allocates.
        let mut line = Json::obj([
            ("schema", "bulksc-trace".into()),
            ("version", self.version.into()),
        ])
        .to_string();
        line.push('\n');
        out.write_all(line.as_bytes())
            .map_err(TranscodeError::Output)?;
        for item in self {
            let (cycle, ev) = item.map_err(TranscodeError::Input)?;
            line.clear();
            ev.write_jsonl(cycle, &mut line);
            line.push('\n');
            out.write_all(line.as_bytes())
                .map_err(TranscodeError::Output)?;
        }
        out.flush().map_err(TranscodeError::Output)?;
        Ok(out.bytes)
    }

    /// Stream the remaining events into `out` as BTF stamped with this
    /// source's version. Returns the bytes written.
    pub fn write_btf(self, out: impl Write) -> Result<u64, TranscodeError> {
        let out = Counted {
            inner: out,
            bytes: 0,
        };
        let mut w = BtfWriter::with_version(out, self.version).map_err(TranscodeError::Output)?;
        for item in self {
            let (cycle, ev) = item.map_err(TranscodeError::Input)?;
            w.push(cycle, &ev).map_err(TranscodeError::Output)?;
        }
        Ok(w.finish().map_err(TranscodeError::Output)?.bytes)
    }
}

impl Iterator for EventSource<'_> {
    type Item = Result<(u64, Event), SourceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = match &mut self.arm {
            Arm::Done => return None,
            Arm::Jsonl {
                input,
                line,
                lineno,
            } => next_jsonl(&mut **input, line, lineno),
            Arm::Btf { blocks, block } => loop {
                if let Some(ev) = block.next() {
                    break Ok(Some(ev));
                }
                match blocks.pull(&mut self.blocks) {
                    Ok(Some(decoded)) => *block = decoded.into_iter(),
                    Ok(None) => break Ok(None),
                    Err((i, e)) => break Err((Position::Block(i), Cause::Btf(e))),
                }
            },
        };
        match step {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => {
                self.arm = Arm::Done;
                None
            }
            Err((at, cause)) => {
                self.arm = Arm::Done;
                Some(Err(SourceError {
                    origin: self.origin.clone(),
                    at,
                    cause,
                }))
            }
        }
    }
}

fn sniff<R: BufRead + ?Sized>(input: &mut R, origin: &str) -> Result<Format, SourceError> {
    Format::sniff(input).map_err(|e| header_error(origin, BtfError::Io(e)))
}

fn header_error(origin: &str, e: BtfError) -> SourceError {
    SourceError {
        origin: origin.to_string(),
        at: Position::Header,
        cause: Cause::Btf(e),
    }
}

/// Read one line (newline included) into the reused `line` buffer. False
/// at end of input; a line over [`MAX_LINE_BYTES`] is an error.
fn read_line_capped(input: &mut dyn BufRead, line: &mut String) -> Result<bool, String> {
    line.clear();
    let n = input
        .take(MAX_LINE_BYTES)
        .read_line(line)
        .map_err(|e| format!("read error: {e}"))?;
    if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
    }
    Ok(n > 0)
}

/// The next event of a JSONL stream, skipping blank lines.
fn next_jsonl(
    input: &mut dyn BufRead,
    line: &mut String,
    lineno: &mut u64,
) -> Result<Option<(u64, Event)>, (Position, Cause)> {
    loop {
        *lineno += 1;
        let at = Position::Line(*lineno);
        if !read_line_capped(input, line).map_err(|m| (at, Cause::Jsonl(m)))? {
            return Ok(None);
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        return Event::from_jsonl(text)
            .map(Some)
            .map_err(|m| (at, Cause::Jsonl(m)));
    }
}

/// A writer that counts the bytes it passes on.
struct Counted<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl_header;

    fn jsonl_text() -> String {
        format!(
            "{}\n{}\n\n{}\n",
            jsonl_header(),
            Event::ChunkStart { core: 1, seq: 4 }.jsonl(10),
            Event::ChunkAbandon { core: 1, seq: 4 }.jsonl(12),
        )
    }

    fn collect(src: EventSource<'_>) -> Result<Vec<(u64, Event)>, String> {
        src.map(|r| r.map_err(|e| e.to_string())).collect()
    }

    #[test]
    fn both_formats_yield_the_same_events_and_skip_blank_lines() {
        let text = jsonl_text();
        let from_jsonl = EventSource::new(text.as_bytes(), "t.jsonl").unwrap();
        assert_eq!(from_jsonl.format(), Format::Jsonl);
        let events = collect(from_jsonl).unwrap();
        assert_eq!(events.len(), 2, "the blank line is skipped");

        let bytes = btf::jsonl_to_btf(&text).unwrap();
        let from_btf = EventSource::new(bytes.as_slice(), "t.btf").unwrap();
        assert_eq!(
            (from_btf.format(), from_btf.version()),
            (Format::Btf, crate::SCHEMA_VERSION)
        );
        assert_eq!(collect(from_btf).unwrap(), events);
    }

    #[test]
    fn errors_name_origin_and_position_then_end_the_stream() {
        let text = format!(
            "{}\nnot json\n{}\n",
            jsonl_header(),
            Event::ChunkStart { core: 0, seq: 0 }.jsonl(1)
        );
        let mut src = EventSource::new(text.as_bytes(), "bad.jsonl").unwrap();
        let e = src.next().unwrap().unwrap_err();
        assert_eq!(e.at, Position::Line(2));
        assert_eq!(e.to_string(), "bad.jsonl: line 2: not valid JSON");
        assert!(src.next().is_none(), "an error ends the stream");

        for (input, want) in [
            ("", "empty trace"),
            ("{\"schema\":\"other\"}\n", "not a trace stream"),
            ("{\"schema\":\"bulksc-trace\",\"version\":999}\n", "999"),
        ] {
            let e = EventSource::new(input.as_bytes(), "h.jsonl").err().unwrap();
            let msg = e.to_string();
            assert!(
                msg.starts_with("h.jsonl: line 1: ") && msg.contains(want),
                "{msg}"
            );
        }

        let bytes = btf::jsonl_to_btf(&jsonl_text()).unwrap();
        let e = EventSource::new(&bytes[..6], "cut.btf").err().unwrap();
        assert_eq!(e.at, Position::Header);
        let cut = &bytes[..bytes.len() - 20];
        let e = collect(EventSource::new(cut, "cut.btf").unwrap()).unwrap_err();
        assert!(e.starts_with("cut.btf: block 1: truncated"), "{e}");
    }

    #[test]
    fn indexed_source_skips_blocks_and_counts_them() {
        let mut w = BtfWriter::new(Vec::new()).unwrap().with_block_events(2);
        for i in 0..10u64 {
            w.push(i, &Event::ChunkStart { core: 0, seq: i }).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut src =
            EventSource::indexed(io::Cursor::new(bytes), "x.btf", |m| m.min_cycle >= 4).unwrap();
        let cycles: Vec<u64> = src.by_ref().map(|r| r.unwrap().0).collect();
        assert_eq!(cycles, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(
            src.blocks(),
            BlockStats {
                total: 5,
                decoded: 3,
                skipped: 2
            }
        );
    }

    #[test]
    fn sniff_routes_a_partial_magic_to_btf() {
        assert_eq!(Format::sniff(&mut &b"BT"[..]).unwrap(), Format::Btf);
        assert_eq!(
            Format::sniff(&mut &b"{\"schema\""[..]).unwrap(),
            Format::Jsonl
        );
        assert_eq!(Format::sniff(&mut &b""[..]).unwrap(), Format::Jsonl);
    }

    #[test]
    fn an_overlong_line_is_a_named_error() {
        let mut text = format!("{}\n", jsonl_header());
        text.push_str(&"x".repeat(MAX_LINE_BYTES as usize + 10));
        let e = collect(EventSource::new(text.as_bytes(), "long.jsonl").unwrap()).unwrap_err();
        assert!(e.contains("line 2") && e.contains("longer than"), "{e}");
    }
}
