//! BTF: the binary trace format — a schema-stamped, blocked, indexed
//! encoding of the JSONL event stream.
//!
//! JSONL is text: a long certification through it pays for parsing, not
//! checking. BTF keeps the *same* event vocabulary and the same
//! schema-version window ([`crate::schema_supported`]) but encodes each
//! event as a tagged varint record, groups records into blocks, and
//! appends a per-block footer index (byte offset, cycle range, core
//! bitmap, event-kind bitmap, address range) so readers can *skip* blocks
//! a query cannot match instead of decoding them.
//!
//! # Wire layout
//!
//! ```text
//! header   b"BTF1" | u32 LE schema_version                      (8 bytes)
//! blocks   0xB0 | u32 LE payload_len | u32 LE event_count | payload   (*)
//! index    0xB1 | u32 LE payload_len | u32 LE n_blocks | n × 64-byte meta
//! trailer  u64 LE index_offset | b"BTFE"                       (12 bytes)
//! ```
//!
//! Block payloads are self-contained: the per-block string table resets at
//! every block boundary (string-define records re-emitted), so any block
//! decodes with no state from earlier blocks — that is what makes the
//! index's random access sound. Within a block the first record carries an
//! absolute cycle; subsequent records carry zigzag varint deltas (cycles
//! are *not* assumed monotone — deltas wrap).
//!
//! Records: a tag byte that is either an event kind id
//! ([`Event::kind_id`], 0..16) or `0xFE` (string define: varint length +
//! UTF-8 bytes, appended to the block-local string table, placed in front
//! of the first record that refers to the string). Event fields follow the
//! tag in the order the event table in [`crate::event`] lists them:
//! integers as varints, a bool, a [`SquashCause`] and an [`EndpointKind`]
//! as single bytes, strings (net message kinds, xray sites) as table ids.
//!
//! The codec has a magic + header, a small error taxonomy ([`BtfError`]),
//! strict rejection of truncated or garbage input, and round-trip tests.
//! Conversion to and from JSONL is lossless — `jsonl → btf → jsonl`
//! re-emission is byte-identical, including the artifact's *original*
//! schema version, which rides in the BTF header so converted v3/v4
//! traces do not get silently restamped.

use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::{Mutex, OnceLock};

use crate::event::{
    ConflictAttr, Endpoint, EndpointKind, Event, FieldReader, FieldWriter, Key, SquashCause,
};
use crate::source::{Cause, EventSource, SourceError, TranscodeError};
use crate::Json;

/// File magic: the first 4 bytes of every BTF artifact.
pub const MAGIC: &[u8; 4] = b"BTF1";
/// Trailer magic: the last 4 bytes of every complete BTF artifact.
pub const TRAILER_MAGIC: &[u8; 4] = b"BTFE";
/// Tag byte opening a block.
const TAG_BLOCK: u8 = 0xB0;
/// Tag byte opening the index footer.
const TAG_INDEX: u8 = 0xB1;
/// In-block tag: string-define record (varint len + UTF-8 bytes).
const TAG_STR: u8 = 0xFE;
/// Events per block before the writer seals it. Small enough that a
/// skipped block saves real work, large enough that per-block overhead
/// (9-byte header, string re-defines, 64-byte index row) stays noise.
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;
/// Upper bound accepted for a single block/index payload: rejects absurd
/// length prefixes from corrupt input before allocating.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Everything that can go wrong reading a BTF artifact.
#[derive(Debug)]
pub enum BtfError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The input does not start with [`MAGIC`] / end with [`TRAILER_MAGIC`].
    BadMagic,
    /// Header schema version outside the [`crate::schema_supported`] window.
    UnsupportedSchema(u64),
    /// Input ended mid-structure; the payload names what was being read.
    Truncated(&'static str),
    /// A tag byte that is neither an event kind, a string define, a block,
    /// nor the index.
    UnknownTag(u8),
    /// A record's fields don't decode (bad varint, bad enum byte, bad
    /// string id, UTF-8 failure, count mismatch...).
    InvalidRecord(String),
    /// The footer index is internally inconsistent or missing.
    BadIndex(String),
}

impl std::fmt::Display for BtfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BtfError::Io(e) => write!(f, "i/o error: {e}"),
            BtfError::BadMagic => write!(f, "not a BTF artifact (bad magic)"),
            BtfError::UnsupportedSchema(v) => write!(
                f,
                "unsupported schema version {v} (this tool reads {}..={})",
                crate::MIN_SCHEMA_VERSION,
                crate::SCHEMA_VERSION
            ),
            BtfError::Truncated(what) => write!(f, "truncated input while reading {what}"),
            BtfError::UnknownTag(t) => write!(f, "unknown record tag 0x{t:02x}"),
            BtfError::InvalidRecord(msg) => write!(f, "invalid record: {msg}"),
            BtfError::BadIndex(msg) => write!(f, "bad block index: {msg}"),
        }
    }
}

impl std::error::Error for BtfError {}

impl From<io::Error> for BtfError {
    fn from(e: io::Error) -> BtfError {
        BtfError::Io(e)
    }
}

/// Is this byte prefix a BTF artifact? (Format sniffing: JSONL starts with
/// `{`, BTF with [`MAGIC`].)
pub fn is_btf(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------- varints

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint at `*pos`. Forced inline: a decoded event reads
/// several, and `check` decodes on the thread that certifies, so the call
/// cost shows (the error arms stay out of line).
#[inline(always)]
fn get_varint(b: &[u8], pos: &mut usize) -> Result<u64, BtfError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = b.get(*pos) else {
            return Err(BtfError::Truncated("varint"));
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(invalid_varint("varint overflows u64"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(invalid_varint("varint longer than 10 bytes"));
        }
    }
}

#[cold]
fn invalid_varint(why: &str) -> BtfError {
    BtfError::InvalidRecord(why.to_string())
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------- intern

/// Declare [`known`] over the strings the decoder expects to see in
/// traces, matched at compile time.
macro_rules! known {
    ($($s:literal),* $(,)?) => {
        /// `s` as one of the known strings: xray conflict sites and net
        /// message kinds. Anything else (future emitters) falls through to
        /// a leak-once intern table so decoded events still carry
        /// `&'static str`.
        fn known(s: &str) -> Option<&'static str> {
            match s {
                $($s => Some($s),)*
                _ => None,
            }
        }
    };
}

known! {
    // xray sites (ConflictAttr::site)
    "wsig",
    "displacement",
    "overflow",
    "arb",
    "prearb",
    "garb-fast",
    "garb-vote",
    // net message kinds (Event::NetSend/NetDeliver::kind)
    "ArbCheck",
    "ArbCheckResp",
    "ArbDone",
    "ArbRelease",
    "CommitComplete",
    "CommitReq",
    "CommitResp",
    "Data",
    "DirDone",
    "DisplaceSig",
    "Fetch",
    "FetchResp",
    "Inv",
    "InvAck",
    "Nack",
    "PreArbGrant",
    "PreArbReq",
    "PrivSigToDir",
    "RSigReq",
    "RSigResp",
    "ReadExcl",
    "ReadShared",
    "Upgrade",
    "UpgradeAck",
    "WSigInv",
    "WSigInvAck",
    "WSigToDir",
    "Writeback",
}

/// Most distinct strings outside [`known`] a process will intern. A real
/// emitter adds a handful; a corrupt trace could otherwise leak one string
/// per garbage record.
pub const INTERN_CAP: usize = 256;

/// Map a decoded string to a `&'static str` (the event vocabulary stores
/// net kinds and xray sites as statics). Known strings cost one compiled
/// match ([`known`]); unknown ones are leaked exactly once into a process-wide
/// table of at most [`INTERN_CAP`] entries. A novel string past the cap is
/// an error naming it.
pub fn intern(s: &str) -> Result<&'static str, String> {
    if let Some(k) = known(s) {
        return Ok(k);
    }
    static EXTRA: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = EXTRA
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("intern table poisoned");
    if let Some(&leaked) = map.get(s) {
        return Ok(leaked);
    }
    if map.len() >= INTERN_CAP {
        let shown: String = s.chars().take(64).collect();
        return Err(format!(
            "string {shown:?} would exceed the {INTERN_CAP}-entry intern table \
             (unknown net kind or xray site)"
        ));
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    map.insert(s.to_string(), leaked);
    Ok(leaked)
}

// ------------------------------------------------------------ block meta

/// One row of the footer index: everything a query needs to decide whether
/// a block *can* match without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// File offset of the block's `0xB0` tag byte.
    pub offset: u64,
    /// Payload length in bytes (excludes the 9-byte block header).
    pub len: u32,
    /// Events in the block.
    pub count: u32,
    /// Smallest cycle stamp in the block.
    pub min_cycle: u64,
    /// Largest cycle stamp in the block.
    pub max_cycle: u64,
    /// Bit `min(core, 63)` set for every event carrying a core id; cores
    /// ≥ 63 share the top bit (saturating, conservative).
    pub core_mask: u64,
    /// Bit [`Event::kind_id`] set for every event kind present.
    pub kind_mask: u32,
    /// Smallest line/word address in the block (`u64::MAX` if none).
    pub min_addr: u64,
    /// Largest line/word address in the block (`0` if none).
    pub max_addr: u64,
}

/// Serialized size of one index row.
const META_BYTES: usize = 64;

impl BlockMeta {
    fn empty(offset: u64) -> BlockMeta {
        BlockMeta {
            offset,
            len: 0,
            count: 0,
            min_cycle: u64::MAX,
            max_cycle: 0,
            core_mask: 0,
            kind_mask: 0,
            min_addr: u64::MAX,
            max_addr: 0,
        }
    }

    /// Conservative membership test: could this block contain an event
    /// from `core`? (Never a false negative; cores ≥ 63 alias.)
    pub fn may_contain_core(&self, core: u32) -> bool {
        self.core_mask & (1u64 << core.min(63)) != 0
    }

    /// Could this block contain an event of kind id `kind`?
    pub fn may_contain_kind(&self, kind: u8) -> bool {
        (kind as usize) < Event::KIND_COUNT && self.kind_mask & (1u32 << kind) != 0
    }

    /// Does the block's cycle range intersect `[lo, hi]` (inclusive)?
    pub fn overlaps_cycles(&self, lo: u64, hi: u64) -> bool {
        self.count > 0 && self.min_cycle <= hi && lo <= self.max_cycle
    }

    /// Could this block contain an event touching `addr`?
    pub fn may_contain_addr(&self, addr: u64) -> bool {
        self.min_addr <= addr && addr <= self.max_addr
    }

    fn absorb(&mut self, cycle: u64, ev: &Event) {
        self.count += 1;
        self.min_cycle = self.min_cycle.min(cycle);
        self.max_cycle = self.max_cycle.max(cycle);
        self.kind_mask |= 1u32 << ev.kind_id();
        if let Some(core) = ev.core_id() {
            self.core_mask |= 1u64 << core.min(63);
        }
        if let Some(addr) = ev.line_addr() {
            self.min_addr = self.min_addr.min(addr);
            self.max_addr = self.max_addr.max(addr);
        }
    }

    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.min_cycle.to_le_bytes());
        out.extend_from_slice(&self.max_cycle.to_le_bytes());
        out.extend_from_slice(&self.core_mask.to_le_bytes());
        out.extend_from_slice(&self.kind_mask.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // pad to 64
        out.extend_from_slice(&self.min_addr.to_le_bytes());
        out.extend_from_slice(&self.max_addr.to_le_bytes());
    }

    fn deserialize(b: &[u8]) -> BlockMeta {
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        BlockMeta {
            offset: u64_at(0),
            len: u32_at(8),
            count: u32_at(12),
            min_cycle: u64_at(16),
            max_cycle: u64_at(24),
            core_mask: u64_at(32),
            kind_mask: u32_at(40),
            // bytes 44..48 are padding
            min_addr: u64_at(48),
            max_addr: u64_at(56),
        }
    }
}

// ---------------------------------------------------------------- writer

/// Streaming BTF encoder over any `Write` sink (file, pipe, `Vec<u8>`).
///
/// Accumulates one block at a time, seals it at
/// [`BtfWriter::with_block_events`] events (default
/// [`DEFAULT_BLOCK_EVENTS`]), and writes the index + trailer on
/// [`BtfWriter::finish`]. Dropping a writer without `finish` leaves a
/// truncated artifact that readers reject — there is no silent partial
/// success.
pub struct BtfWriter<W: Write> {
    out: W,
    block_events: usize,
    /// Bytes written to `out` so far (the next block's offset).
    pos: u64,
    payload: Payload,
    meta: BlockMeta,
    prev_cycle: u64,
    index: Vec<BlockMeta>,
}

impl<W: Write> BtfWriter<W> {
    /// A writer stamping the current [`crate::SCHEMA_VERSION`].
    pub fn new(out: W) -> io::Result<BtfWriter<W>> {
        BtfWriter::with_version(out, crate::SCHEMA_VERSION)
    }

    /// A writer stamping an explicit schema version — used by the JSONL
    /// converter so a v3 artifact stays v3 through a round trip.
    pub fn with_version(mut out: W, version: u64) -> io::Result<BtfWriter<W>> {
        out.write_all(MAGIC)?;
        out.write_all(&(version as u32).to_le_bytes())?;
        Ok(BtfWriter {
            out,
            block_events: DEFAULT_BLOCK_EVENTS,
            pos: 8,
            payload: Payload::default(),
            meta: BlockMeta::empty(8),
            prev_cycle: 0,
            index: Vec::new(),
        })
    }

    /// Override the block size (events per block). Mostly for tests, which
    /// want many small blocks from few events.
    pub fn with_block_events(mut self, n: usize) -> BtfWriter<W> {
        self.block_events = n.max(1);
        self
    }

    /// Total events pushed so far.
    pub fn events(&self) -> u64 {
        self.index.iter().map(|m| m.count as u64).sum::<u64>() + self.meta.count as u64
    }

    /// Append one event.
    pub fn push(&mut self, cycle: u64, ev: &Event) -> io::Result<()> {
        let stamp = if self.meta.count == 0 {
            cycle
        } else {
            zigzag(cycle.wrapping_sub(self.prev_cycle) as i64)
        };
        self.prev_cycle = cycle;
        self.payload.record(stamp, ev);
        self.meta.absorb(cycle, ev);

        if self.meta.count as usize >= self.block_events {
            self.seal_block()?;
        }
        Ok(())
    }

    fn seal_block(&mut self) -> io::Result<()> {
        if self.meta.count == 0 {
            return Ok(());
        }
        self.meta.len = self.payload.bytes.len() as u32;
        self.out.write_all(&[TAG_BLOCK])?;
        self.out.write_all(&self.meta.len.to_le_bytes())?;
        self.out.write_all(&self.meta.count.to_le_bytes())?;
        self.out.write_all(&self.payload.bytes)?;
        self.pos += 9 + self.meta.len as u64;
        self.index.push(self.meta);
        self.payload.bytes.clear();
        self.payload.strings.clear();
        self.meta = BlockMeta::empty(self.pos);
        Ok(())
    }

    /// Seal the partial block, write the index footer and trailer, flush,
    /// and hand back the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.seal_block()?;
        let index_offset = self.pos;
        let mut payload = Vec::with_capacity(4 + META_BYTES * self.index.len());
        payload.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for meta in &self.index {
            meta.serialize(&mut payload);
        }
        self.out.write_all(&[TAG_INDEX])?;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&payload)?;
        self.out.write_all(&index_offset.to_le_bytes())?;
        self.out.write_all(TRAILER_MAGIC)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

// -------------------------------------------------------- record codecs

/// Endpoint kind on the wire. Append-only, mirrors [`EndpointKind`].
fn endpoint_kind_u8(k: EndpointKind) -> u8 {
    match k {
        EndpointKind::Core => 0,
        EndpointKind::Dir => 1,
        EndpointKind::Arbiter => 2,
        EndpointKind::GArbiter => 3,
    }
}

fn endpoint_kind_from_u8(b: u8) -> Result<EndpointKind, BtfError> {
    Ok(match b {
        0 => EndpointKind::Core,
        1 => EndpointKind::Dir,
        2 => EndpointKind::Arbiter,
        3 => EndpointKind::GArbiter,
        _ => return Err(BtfError::InvalidRecord(format!("endpoint kind byte {b}"))),
    })
}

fn get_u32(b: &[u8], pos: &mut usize, what: &str) -> Result<u32, BtfError> {
    let v = get_varint(b, pos)?;
    u32::try_from(v).map_err(|_| BtfError::InvalidRecord(format!("{what} {v} exceeds u32")))
}

fn cause_u8(c: SquashCause) -> u8 {
    SquashCause::ALL
        .iter()
        .position(|&x| x == c)
        .expect("cause in ALL") as u8
}

/// The block being filled: its payload bytes and its string table.
#[derive(Default)]
struct Payload {
    bytes: Vec<u8>,
    strings: HashMap<&'static str, u64>,
    /// Where in `bytes` the record being written starts.
    record: usize,
}

impl Payload {
    /// Append `ev`'s record: its tag, its cycle `stamp` (absolute or a
    /// zigzag delta), and its fields. Not generic over the writer's sink,
    /// so the field writes inline here, once.
    fn record(&mut self, stamp: u64, ev: &Event) {
        self.record = self.bytes.len();
        self.bytes.push(ev.kind_id());
        put_varint(&mut self.bytes, stamp);
        ev.write_fields(self);
    }

    /// Intern `s` into the block's string table. On first use a define
    /// record goes in front of the record being written, so a reader
    /// meets the define before the id.
    fn string_id(&mut self, s: &'static str) -> u64 {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let id = self.strings.len() as u64;
        let end = self.bytes.len();
        self.bytes.push(TAG_STR);
        put_varint(&mut self.bytes, s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
        let define = self.bytes.len() - end;
        self.bytes[self.record..].rotate_right(define);
        self.record += define;
        self.strings.insert(s, id);
        id
    }
}

// The record writer: the event table's write walk calls these once per
// field, so they are forced inline.
impl FieldWriter for Payload {
    #[inline(always)]
    fn int(&mut self, _key: &'static str, v: u64) {
        put_varint(&mut self.bytes, v);
    }

    #[inline(always)]
    fn bool(&mut self, _key: &'static str, v: bool) {
        self.bytes.push(v as u8);
    }

    #[inline(always)]
    fn cause(&mut self, _key: &'static str, v: SquashCause) {
        self.bytes.push(cause_u8(v));
    }

    #[inline(always)]
    fn endpoint(&mut self, _key: &'static str, v: Endpoint) {
        self.bytes.push(endpoint_kind_u8(v.kind));
        put_varint(&mut self.bytes, v.index as u64);
    }

    #[inline(always)]
    fn net_kind(&mut self, _key: &'static str, v: &'static str) {
        let id = self.string_id(v);
        put_varint(&mut self.bytes, id);
    }

    /// A flags byte (0 = absent; bit0 present, bit1 agg_core follows,
    /// bit2 agg_seq follows), then the optional varints, the site string
    /// id, and the witness list.
    #[inline(always)]
    fn xray(&mut self, v: Option<&ConflictAttr>) {
        let Some(attr) = v else {
            self.bytes.push(0);
            return;
        };
        let flags = 1 | (attr.agg_core.is_some() as u8) << 1 | (attr.agg_seq.is_some() as u8) << 2;
        self.bytes.push(flags);
        if let Some(c) = attr.agg_core {
            put_varint(&mut self.bytes, c as u64);
        }
        if let Some(s) = attr.agg_seq {
            put_varint(&mut self.bytes, s);
        }
        let site = self.string_id(attr.site);
        put_varint(&mut self.bytes, site);
        put_varint(&mut self.bytes, attr.witnesses.len() as u64);
        for &w in &attr.witnesses {
            put_varint(&mut self.bytes, w);
        }
    }
}

/// A block payload being decoded: the read position and the strings
/// defined so far.
struct Record<'b> {
    b: &'b [u8],
    pos: usize,
    strings: Vec<&'static str>,
}

impl Record<'_> {
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, BtfError> {
        get_varint(self.b, &mut self.pos)
    }

    #[inline(always)]
    fn byte(&mut self, what: &'static str) -> Result<u8, BtfError> {
        let byte = *self.b.get(self.pos).ok_or(BtfError::Truncated(what))?;
        self.pos += 1;
        Ok(byte)
    }

    fn string(&mut self, what: &str) -> Result<&'static str, BtfError> {
        let id = self.varint()? as usize;
        self.strings
            .get(id)
            .copied()
            .ok_or_else(|| BtfError::InvalidRecord(format!("{what}: string id {id} undefined")))
    }
}

// The record reader: the event table's read walk calls these once per
// field.
impl FieldReader for Record<'_> {
    type Error = BtfError;

    #[inline(always)]
    fn int(&mut self, _key: Key) -> Result<u64, BtfError> {
        self.varint()
    }

    #[inline(always)]
    fn u32(&mut self, key: Key) -> Result<u32, BtfError> {
        get_u32(self.b, &mut self.pos, key.name)
    }

    #[inline(always)]
    fn bool(&mut self, key: Key) -> Result<bool, BtfError> {
        match self.byte(key.name)? {
            flag @ (0 | 1) => Ok(flag == 1),
            flag => Err(BtfError::InvalidRecord(format!("bool byte {flag}"))),
        }
    }

    #[inline(always)]
    fn cause(&mut self, _key: Key) -> Result<SquashCause, BtfError> {
        let b = self.byte("squash cause")?;
        SquashCause::ALL
            .get(b as usize)
            .copied()
            .ok_or_else(|| BtfError::InvalidRecord(format!("squash cause byte {b}")))
    }

    #[inline(always)]
    fn endpoint(&mut self, _key: Key) -> Result<Endpoint, BtfError> {
        let kind = endpoint_kind_from_u8(self.byte("endpoint kind")?)?;
        let index = get_u32(self.b, &mut self.pos, "endpoint index")?;
        Ok(Endpoint { kind, index })
    }

    #[inline(always)]
    fn net_kind(&mut self, _key: Key) -> Result<&'static str, BtfError> {
        self.string("net kind")
    }

    fn xray(&mut self) -> Result<Option<Box<ConflictAttr>>, BtfError> {
        let flags = self.byte("xray flags")?;
        if flags == 0 {
            return Ok(None);
        }
        if flags & 1 == 0 || flags & !0b111 != 0 {
            return Err(BtfError::InvalidRecord(format!(
                "xray flags byte {flags:#x}"
            )));
        }
        let agg_core = if flags & 2 != 0 {
            Some(get_u32(self.b, &mut self.pos, "agg_core")?)
        } else {
            None
        };
        let agg_seq = if flags & 4 != 0 {
            Some(self.varint()?)
        } else {
            None
        };
        let site = self.string("xray site")?;
        let n = self.varint()? as usize;
        // Witness lists are emitter-capped; a huge count is corruption.
        if n > 4096 {
            return Err(BtfError::InvalidRecord(format!("witness count {n}")));
        }
        let witnesses = (0..n).map(|_| self.varint()).collect::<Result<_, _>>()?;
        Ok(Some(Box::new(ConflictAttr {
            agg_core,
            agg_seq,
            site,
            witnesses,
        })))
    }
}

/// Decode one complete block payload into `(cycle, event)` pairs.
///
/// Self-contained by construction: the string table starts empty and is
/// populated only by this payload's define records.
pub fn decode_block(payload: &[u8], expect_count: u32) -> Result<Vec<(u64, Event)>, BtfError> {
    let mut r = Record {
        b: payload,
        pos: 0,
        strings: Vec::new(),
    };
    // Every record takes at least two bytes, so a corrupt count cannot
    // reserve more than the payload could hold.
    let mut events = Vec::with_capacity((expect_count as usize).min(payload.len() / 2));
    let mut prev_cycle = 0u64;
    while r.pos < payload.len() {
        let tag = payload[r.pos];
        r.pos += 1;
        if tag == TAG_STR {
            let len = r.varint()? as usize;
            let end = r
                .pos
                .checked_add(len)
                .filter(|&e| e <= payload.len())
                .ok_or(BtfError::Truncated("string define"))?;
            let s = std::str::from_utf8(&payload[r.pos..end])
                .map_err(|_| BtfError::InvalidRecord("string define is not UTF-8".into()))?;
            r.strings.push(intern(s).map_err(BtfError::InvalidRecord)?);
            r.pos = end;
            continue;
        }
        if tag as usize >= Event::KIND_COUNT {
            return Err(BtfError::UnknownTag(tag));
        }
        let cycle = if events.is_empty() {
            r.varint()?
        } else {
            prev_cycle.wrapping_add(unzigzag(r.varint()?) as u64)
        };
        prev_cycle = cycle;
        events.push((cycle, Event::read_fields(tag, &mut r)?));
    }
    if events.len() != expect_count as usize {
        return Err(BtfError::InvalidRecord(format!(
            "block header promised {expect_count} events, payload held {}",
            events.len()
        )));
    }
    Ok(events)
}

// ---------------------------------------------------------------- reader

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), BtfError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            BtfError::Truncated(what)
        } else {
            BtfError::Io(e)
        }
    })
}

/// Read a `len`-byte payload, growing the buffer only as bytes arrive, so
/// a corrupt length prefix cannot allocate past the real input.
fn read_payload(r: &mut impl Read, len: usize, what: &'static str) -> Result<Vec<u8>, BtfError> {
    let mut payload = Vec::with_capacity(len.min(1 << 16));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(BtfError::Truncated(what));
    }
    Ok(payload)
}

fn checked_payload_len(len: u32, what: &'static str) -> Result<usize, BtfError> {
    if len > MAX_PAYLOAD {
        return Err(BtfError::BadIndex(format!(
            "{what} length {len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    Ok(len as usize)
}

/// Sequential (pipe-friendly) BTF reader: no `Seek`, one block at a time,
/// bounded memory. This is what the streaming checker consumes from stdin.
pub struct BtfReader<R: Read> {
    inner: R,
    version: u64,
    done: bool,
}

impl<R: Read> BtfReader<R> {
    /// Read and validate the 8-byte header.
    pub fn new(mut inner: R) -> Result<BtfReader<R>, BtfError> {
        let mut header = [0u8; 8];
        read_exact_or(&mut inner, &mut header, "header")?;
        if &header[..4] != MAGIC {
            return Err(BtfError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap()) as u64;
        if !crate::schema_supported(version) {
            return Err(BtfError::UnsupportedSchema(version));
        }
        Ok(BtfReader {
            inner,
            version,
            done: false,
        })
    }

    /// The schema version stamped in the header.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The next block's events, or `None` once the index footer has been
    /// reached (and the trailer validated). A stream that ends without an
    /// index is reported as truncated — a killed writer never passes for a
    /// complete artifact.
    pub fn next_block(&mut self) -> Result<Option<Vec<(u64, Event)>>, BtfError> {
        if self.done {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        read_exact_or(
            &mut self.inner,
            &mut tag,
            "block tag (stream ends before index)",
        )?;
        match tag[0] {
            TAG_BLOCK => {
                let mut head = [0u8; 8];
                read_exact_or(&mut self.inner, &mut head, "block header")?;
                let len = checked_payload_len(
                    u32::from_le_bytes(head[0..4].try_into().unwrap()),
                    "block",
                )?;
                let count = u32::from_le_bytes(head[4..8].try_into().unwrap());
                let payload = read_payload(&mut self.inner, len, "block payload")?;
                Ok(Some(decode_block(&payload, count)?))
            }
            TAG_INDEX => {
                // Drain and discard the index, then validate the trailer.
                let mut lenb = [0u8; 4];
                read_exact_or(&mut self.inner, &mut lenb, "index header")?;
                let len = checked_payload_len(u32::from_le_bytes(lenb), "index")?;
                read_payload(&mut self.inner, len, "index payload")?;
                let mut trailer = [0u8; 12];
                read_exact_or(&mut self.inner, &mut trailer, "trailer")?;
                if &trailer[8..12] != TRAILER_MAGIC {
                    return Err(BtfError::BadMagic);
                }
                self.done = true;
                Ok(None)
            }
            other => Err(BtfError::UnknownTag(other)),
        }
    }
}

/// Random-access BTF reader: loads the footer index up front, then decodes
/// only the blocks asked for. This is what `bulksc-analyze query` uses to
/// skip non-matching blocks.
pub struct IndexedBtf<R: Read + Seek> {
    inner: R,
    version: u64,
    file_len: u64,
    index: Vec<BlockMeta>,
}

impl<R: Read + Seek> IndexedBtf<R> {
    /// Validate header + trailer and load the block index.
    pub fn new(mut inner: R) -> Result<IndexedBtf<R>, BtfError> {
        let file_len = inner.seek(SeekFrom::End(0))?;
        if file_len < 8 + 5 + 12 {
            return Err(BtfError::Truncated(
                "artifact (shorter than header + empty index + trailer)",
            ));
        }
        inner.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; 8];
        read_exact_or(&mut inner, &mut header, "header")?;
        if &header[..4] != MAGIC {
            return Err(BtfError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap()) as u64;
        if !crate::schema_supported(version) {
            return Err(BtfError::UnsupportedSchema(version));
        }
        inner.seek(SeekFrom::End(-12))?;
        let mut trailer = [0u8; 12];
        read_exact_or(&mut inner, &mut trailer, "trailer")?;
        if &trailer[8..12] != TRAILER_MAGIC {
            return Err(BtfError::BadMagic);
        }
        let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        if index_offset < 8 || index_offset > file_len - 12 - 5 {
            return Err(BtfError::BadIndex(format!(
                "index offset {index_offset} outside artifact of {file_len} bytes"
            )));
        }
        inner.seek(SeekFrom::Start(index_offset))?;
        let mut head = [0u8; 5];
        read_exact_or(&mut inner, &mut head, "index header")?;
        if head[0] != TAG_INDEX {
            return Err(BtfError::BadIndex(format!(
                "index offset points at tag 0x{:02x}, not the index",
                head[0]
            )));
        }
        let len = checked_payload_len(u32::from_le_bytes(head[1..5].try_into().unwrap()), "index")?;
        if index_offset + 5 + len as u64 + 12 != file_len {
            return Err(BtfError::BadIndex(format!(
                "index of {len} bytes at offset {index_offset} does not end at the trailer"
            )));
        }
        let payload = read_payload(&mut inner, len, "index payload")?;
        if payload.len() < 4 {
            return Err(BtfError::BadIndex(
                "index payload shorter than its count".into(),
            ));
        }
        let n = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
        if payload.len() != 4 + n * META_BYTES {
            return Err(BtfError::BadIndex(format!(
                "index payload is {} bytes, expected {} for {n} blocks",
                payload.len(),
                4 + n * META_BYTES
            )));
        }
        let mut index = Vec::with_capacity(n);
        for i in 0..n {
            let meta =
                BlockMeta::deserialize(&payload[4 + i * META_BYTES..4 + (i + 1) * META_BYTES]);
            if meta.offset.saturating_add(9 + meta.len as u64) > index_offset {
                return Err(BtfError::BadIndex(format!(
                    "block {i} at offset {} overruns the index",
                    meta.offset
                )));
            }
            index.push(meta);
        }
        Ok(IndexedBtf {
            inner,
            version,
            file_len,
            index,
        })
    }

    /// The schema version stamped in the header.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total artifact size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The block index, in file order.
    pub fn index(&self) -> &[BlockMeta] {
        &self.index
    }

    /// Decode block `i` (by index position). Seeks straight to the block;
    /// no other block is read.
    pub fn read_block(&mut self, i: usize) -> Result<Vec<(u64, Event)>, BtfError> {
        let meta = *self
            .index
            .get(i)
            .ok_or_else(|| BtfError::BadIndex(format!("block {i} out of range")))?;
        self.inner.seek(SeekFrom::Start(meta.offset))?;
        let mut head = [0u8; 9];
        read_exact_or(&mut self.inner, &mut head, "block header")?;
        if head[0] != TAG_BLOCK {
            return Err(BtfError::BadIndex(format!(
                "block {i}: offset {} holds tag 0x{:02x}, not a block",
                meta.offset, head[0]
            )));
        }
        let len = u32::from_le_bytes(head[1..5].try_into().unwrap());
        let count = u32::from_le_bytes(head[5..9].try_into().unwrap());
        if len != meta.len || count != meta.count {
            return Err(BtfError::BadIndex(format!(
                "block {i}: header says {len}B/{count} events, index says {}B/{}",
                meta.len, meta.count
            )));
        }
        let payload = read_payload(
            &mut self.inner,
            checked_payload_len(len, "block")?,
            "block payload",
        )?;
        decode_block(&payload, count)
    }
}

// ---------------------------------------------------------------- tracer

/// A [`crate::Tracer`] sink that accumulates a BTF artifact in memory —
/// the binary sibling of [`crate::JsonlTracer`]. Recording is infallible
/// (`Vec<u8>` sink); call [`BtfTracer::write_to`] (or take
/// [`BtfTracer::finish_bytes`]) once after the run.
pub struct BtfTracer {
    writer: Option<BtfWriter<Vec<u8>>>,
    events: u64,
}

impl Default for BtfTracer {
    fn default() -> BtfTracer {
        BtfTracer::new()
    }
}

impl BtfTracer {
    pub fn new() -> BtfTracer {
        BtfTracer {
            writer: Some(BtfWriter::new(Vec::new()).expect("Vec write is infallible")),
            events: 0,
        }
    }

    /// A shareable sink, ready for [`crate::TraceHandle::attach`].
    pub fn shared() -> std::rc::Rc<std::cell::RefCell<BtfTracer>> {
        std::rc::Rc::new(std::cell::RefCell::new(BtfTracer::new()))
    }

    /// Number of events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Seal the artifact and return its bytes. Further `record` calls
    /// panic — finishing is the end of the sink's life, matching how the
    /// harnesses write artifacts exactly once after a run.
    pub fn finish_bytes(&mut self) -> Vec<u8> {
        self.writer
            .take()
            .expect("BtfTracer already finished")
            .finish()
            .expect("Vec write is infallible")
    }

    /// Seal the artifact and write it to `path`.
    pub fn write_to(&mut self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        std::fs::write(path, self.finish_bytes())
    }
}

impl crate::Tracer for BtfTracer {
    fn record(&mut self, cycle: u64, event: &Event) {
        self.writer
            .as_mut()
            .expect("BtfTracer already finished")
            .push(cycle, event)
            .expect("Vec write is infallible");
        self.events += 1;
    }
}

// ------------------------------------------------------- jsonl ↔ btf

/// Parse the JSONL schema header line; returns the artifact version.
pub fn parse_jsonl_header(line: &str) -> Result<u64, String> {
    let obj = Json::parse(line.trim()).ok_or_else(|| "header line is not JSON".to_string())?;
    match obj.get("schema").and_then(Json::as_str) {
        Some("bulksc-trace") => {}
        Some(other) => return Err(format!("not a trace stream (schema {other:?})")),
        None => return Err("header has no \"schema\" field".to_string()),
    }
    let version = obj
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| "header has no \"version\" field".to_string())?;
    if !crate::schema_supported(version) {
        return Err(format!(
            "unsupported schema version {version} (this tool reads {}..={})",
            crate::MIN_SCHEMA_VERSION,
            crate::SCHEMA_VERSION
        ));
    }
    Ok(version)
}

/// Convert a JSONL trace to BTF bytes, carrying the artifact's original
/// schema version through. A thin wrapper over
/// [`EventSource::write_btf`](crate::EventSource::write_btf).
pub fn jsonl_to_btf(text: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    EventSource::new(text.as_bytes(), "<jsonl>")
        .map_err(|e| e.to_string())?
        .write_btf(&mut out)
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// Convert BTF bytes back to the JSONL text they came from. Byte-identical
/// to the original for any stream this workspace's tools emitted (the
/// header re-renders from the stored version; every event re-renders
/// through [`Event::jsonl`]). A thin wrapper over
/// [`EventSource::write_jsonl`](crate::EventSource::write_jsonl).
pub fn btf_to_jsonl(bytes: &[u8]) -> Result<String, BtfError> {
    if !is_btf(bytes) {
        return Err(BtfError::BadMagic);
    }
    let into_btf = |e: SourceError| match e.cause {
        Cause::Btf(e) => e,
        Cause::Jsonl(m) => BtfError::InvalidRecord(m),
    };
    let mut out = Vec::new();
    match EventSource::new(bytes, "<btf>")
        .map_err(into_btf)?
        .write_jsonl(&mut out)
    {
        Ok(_) => Ok(String::from_utf8(out).expect("JSONL rendering is UTF-8")),
        Err(TranscodeError::Input(e)) => Err(into_btf(e)),
        Err(TranscodeError::Output(e)) => Err(BtfError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use std::io::Cursor;

    /// One of every event kind, with awkward values: non-monotone cycles
    /// are exercised separately.
    fn sample_events() -> Vec<(u64, Event)> {
        let xray = Some(Box::new(ConflictAttr {
            agg_core: Some(3),
            agg_seq: Some(41),
            site: "wsig",
            witnesses: vec![0x100, 0x9e37_79b9_7f4a_7c15],
        }));
        let no_agg = Some(Box::new(ConflictAttr {
            agg_core: None,
            agg_seq: None,
            site: "overflow",
            witnesses: Vec::new(),
        }));
        vec![
            (10, Event::ChunkStart { core: 0, seq: 1 }),
            (
                11,
                Event::CommitRequest {
                    core: 0,
                    seq: 1,
                    w_lines: 3,
                    carries_rsig: true,
                },
            ),
            (12, Event::CommitGrant { core: 0, seq: 1 }),
            (
                13,
                Event::CommitDeny {
                    core: 1,
                    seq: 9,
                    xray: xray.clone(),
                },
            ),
            (
                14,
                Event::ChunkCommit {
                    core: 0,
                    seq: 1,
                    read_lines: 20,
                    write_lines: 3,
                    priv_lines: 8,
                },
            ),
            (15, Event::ChunkAbandon { core: 3, seq: 40 }),
            (
                16,
                Event::Squash {
                    core: 1,
                    seq: 9,
                    cause: SquashCause::TrueSharing,
                    squashed_instrs: 412,
                    xray,
                },
            ),
            (
                17,
                Event::Squash {
                    core: 2,
                    seq: 5,
                    cause: SquashCause::Overflow,
                    squashed_instrs: 10,
                    xray: no_agg,
                },
            ),
            (
                18,
                Event::SigExpand {
                    dir: 0,
                    core: 0,
                    seq: 1,
                    lookups: 4,
                    updates: 2,
                    inv_targets: 1,
                },
            ),
            (
                19,
                Event::DirDisplacement {
                    dir: 0,
                    line: 0xfeed,
                },
            ),
            (
                20,
                Event::CacheDisplacement {
                    core: 2,
                    line: 0xbeef,
                },
            ),
            (
                21,
                Event::PrivSupply {
                    core: 2,
                    line: 0xcafe,
                },
            ),
            (
                22,
                Event::ValLoad {
                    core: 1,
                    seq: 4,
                    po: 17,
                    addr: 0x1_0008,
                    value: u64::MAX,
                    retired_at: 99,
                },
            ),
            (
                23,
                Event::ValStore {
                    core: 0,
                    seq: 2,
                    po: 3,
                    addr: 0x1_0000,
                    value: 1,
                    retired_at: 80,
                },
            ),
            (
                24,
                Event::ValRmw {
                    core: 2,
                    seq: 0,
                    po: 9,
                    addr: 0x1_0010,
                    old: 0,
                    new: 1,
                    retired_at: 120,
                },
            ),
            (
                25,
                Event::NetSend {
                    src: Endpoint::core(0),
                    dst: Endpoint::arbiter(0),
                    kind: "CommitReq",
                    bytes: 264,
                },
            ),
            (
                26,
                Event::NetDeliver {
                    src: Endpoint::arbiter(0),
                    dst: Endpoint::garbiter(),
                    kind: "CommitReq",
                },
            ),
            (
                27,
                Event::CommitDeny {
                    core: 4,
                    seq: 2,
                    xray: None,
                },
            ),
        ]
    }

    fn encode(events: &[(u64, Event)], block_events: usize) -> Vec<u8> {
        let mut w = BtfWriter::new(Vec::new())
            .unwrap()
            .with_block_events(block_events);
        for (cycle, ev) in events {
            w.push(*cycle, ev).unwrap();
        }
        w.finish().unwrap()
    }

    fn decode_all(bytes: &[u8]) -> Vec<(u64, Event)> {
        let mut r = BtfReader::new(bytes).unwrap();
        let mut out = Vec::new();
        while let Some(block) = r.next_block().unwrap() {
            out.extend(block);
        }
        out
    }

    #[test]
    fn round_trips_every_event_kind_across_blocks() {
        let events = sample_events();
        // Block size 4 → several full blocks plus a partial tail.
        let bytes = encode(&events, 4);
        let back = decode_all(&bytes);
        assert_eq!(back, events);
        // Every kind appears in the sample set.
        let kinds: std::collections::HashSet<u8> =
            events.iter().map(|(_, e)| e.kind_id()).collect();
        assert_eq!(kinds.len(), Event::KIND_COUNT);
    }

    #[test]
    fn header_stamps_schema_version() {
        let bytes = encode(&sample_events(), 4096);
        assert!(is_btf(&bytes));
        let r = BtfReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.version(), crate::SCHEMA_VERSION);
        let old = BtfWriter::with_version(Vec::new(), crate::MIN_SCHEMA_VERSION)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(
            BtfReader::new(old.as_slice()).unwrap().version(),
            crate::MIN_SCHEMA_VERSION
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = BtfWriter::new(Vec::new()).unwrap().finish().unwrap();
        assert_eq!(decode_all(&bytes), Vec::new());
        let idx = IndexedBtf::new(Cursor::new(bytes)).unwrap();
        assert!(idx.index().is_empty());
    }

    #[test]
    fn nonmonotone_cycles_survive_delta_coding() {
        let events: Vec<(u64, Event)> = [100u64, 5, u64::MAX, 0, 77]
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                (
                    t,
                    Event::ChunkStart {
                        core: i as u32,
                        seq: i as u64,
                    },
                )
            })
            .collect();
        let bytes = encode(&events, 2);
        assert_eq!(decode_all(&bytes), events);
    }

    #[test]
    fn indexed_reader_matches_sequential_and_meta_is_sound() {
        let events = sample_events();
        let bytes = encode(&events, 4);
        let sequential = decode_all(&bytes);
        let mut idx = IndexedBtf::new(Cursor::new(bytes)).unwrap();
        assert_eq!(idx.version(), crate::SCHEMA_VERSION);
        let metas: Vec<BlockMeta> = idx.index().to_vec();
        assert_eq!(
            metas.iter().map(|m| m.count as usize).sum::<usize>(),
            events.len()
        );
        let mut concat = Vec::new();
        for (i, meta) in metas.iter().enumerate() {
            let block = idx.read_block(i).unwrap();
            assert_eq!(block.len(), meta.count as usize);
            for (cycle, ev) in &block {
                // The meta is a sound over-approximation of its block.
                assert!(meta.min_cycle <= *cycle && *cycle <= meta.max_cycle);
                assert!(meta.may_contain_kind(ev.kind_id()));
                if let Some(core) = ev.core_id() {
                    assert!(meta.may_contain_core(core));
                }
                if let Some(addr) = ev.line_addr() {
                    assert!(meta.may_contain_addr(addr));
                }
            }
            concat.extend(block);
        }
        assert_eq!(concat, sequential);
    }

    #[test]
    fn blocks_decode_independently_of_order() {
        // String-carrying events in every block: if the string table leaked
        // across blocks, decoding block 1 before block 0 would fail or
        // mis-resolve.
        let events: Vec<(u64, Event)> = (0..8)
            .map(|i| {
                (
                    i,
                    Event::NetSend {
                        src: Endpoint::core(i as u32),
                        dst: Endpoint::dir(0),
                        kind: if i % 2 == 0 {
                            "ReadShared"
                        } else {
                            "Writeback"
                        },
                        bytes: 64,
                    },
                )
            })
            .collect();
        let bytes = encode(&events, 3); // blocks: 3 + 3 + 2
        let mut idx = IndexedBtf::new(Cursor::new(bytes)).unwrap();
        assert_eq!(idx.index().len(), 3);
        // Read the *last* block first.
        let last = idx.read_block(2).unwrap();
        assert_eq!(last, events[6..].to_vec());
        let first = idx.read_block(0).unwrap();
        assert_eq!(first, events[..3].to_vec());
    }

    #[test]
    fn core_mask_saturates_at_bit_63() {
        let events = vec![(1, Event::ChunkStart { core: 100, seq: 0 })];
        let bytes = encode(&events, 4096);
        let idx = IndexedBtf::new(Cursor::new(bytes)).unwrap();
        let meta = idx.index()[0];
        assert!(meta.may_contain_core(100));
        assert!(meta.may_contain_core(63));
        assert!(!meta.may_contain_core(5));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        // Wrong magic.
        assert!(matches!(
            BtfReader::new(&b"NOPE\x05\x00\x00\x00rest"[..]),
            Err(BtfError::BadMagic)
        ));
        // Unsupported versions, both sides of the window.
        for bad in [crate::MIN_SCHEMA_VERSION - 1, crate::SCHEMA_VERSION + 1] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&(bad as u32).to_le_bytes());
            assert!(matches!(
                BtfReader::new(bytes.as_slice()),
                Err(BtfError::UnsupportedSchema(v)) if v == bad
            ));
        }
        // Header-only stream: truncated (no index footer).
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&(crate::SCHEMA_VERSION as u32).to_le_bytes());
        let mut r = BtfReader::new(header.as_slice()).unwrap();
        assert!(matches!(r.next_block(), Err(BtfError::Truncated(_))));
        // Cut mid-block: truncated.
        let full = encode(&sample_events(), 4096);
        let cut = &full[..full.len() / 2];
        let mut r = BtfReader::new(cut).unwrap();
        let mut err = None;
        loop {
            match r.next_block() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(BtfError::Truncated(_))), "{err:?}");
        // IndexedBtf rejects a clipped trailer.
        assert!(IndexedBtf::new(Cursor::new(cut.to_vec())).is_err());
        // Unknown block tag.
        let mut evil = header.clone();
        evil.push(0xCC);
        let mut r = BtfReader::new(evil.as_slice()).unwrap();
        assert!(matches!(r.next_block(), Err(BtfError::UnknownTag(0xCC))));
    }

    #[test]
    fn tracer_sink_matches_direct_writer() {
        let events = sample_events();
        let mut sink = BtfTracer::new();
        for (cycle, ev) in &events {
            sink.record(*cycle, ev);
        }
        assert_eq!(sink.events(), events.len() as u64);
        let bytes = sink.finish_bytes();
        assert_eq!(decode_all(&bytes), events);
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let mut jsonl = crate::JsonlTracer::new();
        for (cycle, ev) in sample_events() {
            jsonl.record(cycle, &ev);
        }
        let text = jsonl.contents().to_string();
        let btf = jsonl_to_btf(&text).unwrap();
        assert!(btf.len() < text.len(), "binary should be smaller");
        let back = btf_to_jsonl(&btf).unwrap();
        assert_eq!(back, text);
    }

    #[test]
    fn jsonl_converter_rejects_bad_input() {
        assert!(jsonl_to_btf("").is_err());
        assert!(jsonl_to_btf("{\"not\":\"a header\"}").is_err());
        assert!(
            jsonl_to_btf("{\"schema\":\"bulksc-trace\",\"version\":99}").is_err(),
            "future versions must be refused"
        );
        let bad_line = format!("{}\nnot json\n", crate::jsonl_header());
        assert!(jsonl_to_btf(&bad_line).unwrap_err().contains("line 2"));
        let bad_ev = format!(
            "{}\n{{\"t\":1,\"ev\":\"martian\"}}\n",
            crate::jsonl_header()
        );
        assert!(jsonl_to_btf(&bad_ev).unwrap_err().contains("martian"));
    }

    #[test]
    fn carries_v3_version_through_round_trip() {
        let text = format!(
            "{{\"schema\":\"bulksc-trace\",\"version\":{}}}\n{{\"t\":7,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}}\n",
            crate::MIN_SCHEMA_VERSION
        );
        let btf = jsonl_to_btf(&text).unwrap();
        assert_eq!(
            BtfReader::new(btf.as_slice()).unwrap().version(),
            crate::MIN_SCHEMA_VERSION
        );
        assert_eq!(btf_to_jsonl(&btf).unwrap(), text);
    }

    #[test]
    fn intern_returns_stable_pointers() {
        assert_eq!(intern("wsig"), Ok("wsig"));
        let a = intern("some-novel-site").unwrap();
        let b = intern("some-novel-site").unwrap();
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn varints_round_trip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // An 11-byte varint is rejected, not wrapped.
        let overlong = [0xffu8; 11];
        assert!(get_varint(&overlong, &mut 0).is_err());
    }
}
