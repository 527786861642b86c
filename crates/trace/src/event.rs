//! The structured event vocabulary of the simulator.
//!
//! Every event is cycle-stamped by the emitter (the cycle rides next to the
//! event through [`crate::Tracer::record`], not inside it) and identifies
//! the component it happened at. The taxonomy follows the chunk lifecycle
//! of the paper — a chunk starts, requests commit permission from the
//! arbiter, is granted or denied, commits (expanding its W signature in the
//! directory) or squashes — plus the memory-system side effects (cache and
//! directory displacements, Private-Buffer supplies) and raw network
//! send/deliver hops.
//!
//! The vocabulary is declared once, by the table that declares [`Event`]:
//! each row gives a kind's wire id, its JSONL name and its typed fields in
//! wire order. Every encoding walks the fields the table generates — the
//! JSONL writer and reader here, the BTF record writer and reader in
//! [`crate::btf`], and the `(key, value)` pairs of [`Event::fields`] — and
//! implements only what to do with each field type (`FieldWriter`,
//! `FieldReader`).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::json::{self, write_escaped, RawValue};
use crate::Json;

/// Which component an endpoint is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointKind {
    Core,
    Dir,
    Arbiter,
    GArbiter,
}

/// A node on the interconnect, in trace vocabulary (kept free of the `net`
/// crate's types so `net` itself can depend on this crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    pub kind: EndpointKind,
    pub index: u32,
}

impl Endpoint {
    pub fn core(index: u32) -> Endpoint {
        Endpoint {
            kind: EndpointKind::Core,
            index,
        }
    }
    pub fn dir(index: u32) -> Endpoint {
        Endpoint {
            kind: EndpointKind::Dir,
            index,
        }
    }
    pub fn arbiter(index: u32) -> Endpoint {
        Endpoint {
            kind: EndpointKind::Arbiter,
            index,
        }
    }
    pub fn garbiter() -> Endpoint {
        Endpoint {
            kind: EndpointKind::GArbiter,
            index: 0,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EndpointKind::Core => write!(f, "core{}", self.index),
            EndpointKind::Dir => write!(f, "dir{}", self.index),
            EndpointKind::Arbiter => write!(f, "arb{}", self.index),
            EndpointKind::GArbiter => write!(f, "garb"),
        }
    }
}

/// Why a chunk was squashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SquashCause {
    /// Signature aliasing: the W ∩ R/W test fired on addresses the chunk
    /// never touched (false positive of the Bloom encoding).
    Alias,
    /// True sharing: a real cross-chunk conflict.
    TrueSharing,
    /// Cache-set overflow: the chunk's footprint no longer fits.
    Overflow,
}

impl SquashCause {
    pub fn label(self) -> &'static str {
        match self {
            SquashCause::Alias => "alias",
            SquashCause::TrueSharing => "true-sharing",
            SquashCause::Overflow => "overflow",
        }
    }

    /// Every cause, in a stable order (drives name-derivation tests and
    /// per-cause tallies).
    pub const ALL: [SquashCause; 3] = [
        SquashCause::Alias,
        SquashCause::TrueSharing,
        SquashCause::Overflow,
    ];
}

/// Upper bound on witness lines one attributed event carries. Keeps xray
/// streams bounded on pathological all-to-all sharers while never
/// dropping the one witness that distinguishes true sharing (nonempty)
/// from pure aliasing (empty).
pub const XRAY_WITNESS_CAP: usize = 8;

/// Causal attribution of a squash or commit denial (schema v5's `--xray`
/// forensics). Attached as an `Option` so attribution-off runs serialize
/// byte-identically to pre-v5 streams: the fields only appear when the
/// emitter actually computed them.
#[derive(Clone, Debug, PartialEq)]
pub struct ConflictAttr {
    /// The committing *aggressor* core whose W-set (or arbitration slot)
    /// caused this squash/denial. `None` when there is no other party
    /// (e.g. a cache-set overflow self-squash or a distributed-arbiter
    /// vote denial, where the conflicting entry lives at another arbiter).
    pub agg_core: Option<u32>,
    /// The aggressor's chunk sequence number, when known. A pre-arbitration
    /// lockout knows the holder core but not its chunk, so this can be
    /// `None` with `agg_core` set.
    pub agg_seq: Option<u64>,
    /// Where the conflict was detected: `"wsig"` (committing-W
    /// disambiguation at the victim cache), `"displacement"` (directory
    /// displacement sweep), `"overflow"` (cache-set overflow),
    /// `"arb"`/`"prearb"` (arbiter collision / pre-arbitration lockout),
    /// `"garb-fast"`/`"garb-vote"` (G-arbiter fast path / vote).
    pub site: &'static str,
    /// Exact-shadow witness lines (lowest addresses first, capped by the
    /// emitter). Empty ⇒ the Bloom encodings collided but the exact shadows
    /// did not: a pure-alias false positive.
    pub witnesses: Vec<u64>,
}

/// Declare [`Event`] and everything derived from its table: the kind
/// count, names and ids, the JSONL key slots, and the one write walk and
/// one read walk over each kind's fields.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $id:literal $name:literal $Kind:ident { $($field:ident: $ty:ty),* $(,)? }
    ),* $(,)?) => {
        /// One cycle-stamped simulator event.
        ///
        /// Declared by the event table in this module's source: each row
        /// gives a kind's wire id (the BTF record tag and kind-bitmap bit —
        /// append-only; never reorder), its JSONL name (the `ev` field),
        /// and its fields in the order both encodings write and read them.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $Kind { $($field: $ty),* },)*
        }

        impl Event {
            /// Number of event kinds (the size of the [`Event::KIND_NAMES`]
            /// table and the width of a BTF block's kind bitmap).
            pub const KIND_COUNT: usize = [$($name),*].len();

            /// Every event name, indexed by [`Event::kind_id`].
            pub const KIND_NAMES: [&'static str; Event::KIND_COUNT] = [$($name),*];

            /// Stable numeric kind (the BTF record tag and kind-bitmap bit).
            pub fn kind_id(&self) -> u8 {
                match self {
                    $(Event::$Kind { .. } => $id,)*
                }
            }

            /// The kind id for an event name, if it names one.
            pub fn kind_id_of(name: &str) -> Option<u8> {
                match name {
                    $($name => Some($id),)*
                    _ => None,
                }
            }

            /// Hand each field to `w`, in wire order.
            pub(crate) fn write_fields(&self, w: &mut impl FieldWriter) {
                match self {
                    $(Event::$Kind { $($field),* } => {
                        $(Wire::write($field, stringify!($field), w);)*
                    })*
                }
            }

            /// The event of kind id `kind` (below [`Event::KIND_COUNT`];
            /// each decoder refuses other ids first), its fields read from
            /// `r` in wire order.
            pub(crate) fn read_fields<R: FieldReader>(
                kind: u8,
                r: &mut R,
            ) -> Result<Event, R::Error> {
                Ok(match kind {
                    $($id => Event::$Kind {
                        $($field: Wire::read(const { Key::new(stringify!($field)) }, r)?,)*
                    },)*
                    _ => unreachable!("kind id {kind} is outside the event table"),
                })
            }
        }

        // Wire ids are explicit in the table and must count up from 0.
        const _: () = {
            let ids = [$($id),*];
            let mut i = 0;
            while i < ids.len() {
                assert!(ids[i] as usize == i, "wire ids must run 0..KIND_COUNT in table order");
                i += 1;
            }
        };

        /// Every key an event line is read by: the stamp and the name, each
        /// kind's fields (so most keys repeat; an `xray` field's line form
        /// is its blob's keys, listed last), and the xray blob's keys.
        const KEYS: &[&str] = &[
            "t", "ev", $($(stringify!($field),)*)* "agg_core", "agg_seq", "site", "witness",
        ];

        /// The slot of a key met in a line; `None` outside the vocabulary.
        #[allow(unreachable_patterns)] // a key shared by several kinds repeats
        fn slot_of(key: &str) -> Option<usize> {
            Some(match key {
                "t" => const { Key::new("t").slot },
                "ev" => const { Key::new("ev").slot },
                $($(stringify!($field) => const { Key::new(stringify!($field)).slot },)*)*
                "agg_core" => const { Key::new("agg_core").slot },
                "agg_seq" => const { Key::new("agg_seq").slot },
                "site" => const { Key::new("site").slot },
                "witness" => const { Key::new("witness").slot },
                _ => return None,
            })
        }
    };
}

events! {
    /// A core opened a new chunk (`seq` is per-core, monotonically rising).
    0 "chunk_start" ChunkStart { core: u32, seq: u64 },
    /// A core asked the arbiter for permission to commit.
    1 "commit_request" CommitRequest { core: u32, seq: u64, w_lines: u32, carries_rsig: bool },
    /// The (G-)arbiter granted commit permission.
    2 "commit_grant" CommitGrant { core: u32, seq: u64 },
    /// The (G-)arbiter denied commit permission (the core will retry).
    /// `xray` carries conflict attribution when the emitter runs with
    /// attribution on (schema v5); `None` serializes exactly like v4.
    3 "commit_deny" CommitDeny { core: u32, seq: u64, xray: Option<Box<ConflictAttr>> },
    /// A chunk finished committing and retired its instructions.
    4 "chunk_commit" ChunkCommit {
        core: u32, seq: u64, read_lines: u32, write_lines: u32, priv_lines: u32,
    },
    /// A core discarded a still-empty trailing chunk at the end of its
    /// program (no instructions were lost; nothing will re-execute).
    /// Terminates the chunk's span like a commit or squash does.
    5 "chunk_abandon" ChunkAbandon { core: u32, seq: u64 },
    /// A chunk was squashed and will re-execute from its checkpoint.
    /// `xray` as on [`Event::CommitDeny`].
    6 "squash" Squash {
        core: u32, seq: u64, cause: SquashCause, squashed_instrs: u64,
        xray: Option<Box<ConflictAttr>>,
    },
    /// The directory expanded a committing W signature (Table 1's DirBDM
    /// walk): `lookups`/`updates` count the directory accesses it took,
    /// `inv_targets` the sharer caches it invalidated.
    7 "sig_expand" SigExpand {
        dir: u32, core: u32, seq: u64, lookups: u64, updates: u64, inv_targets: u64,
    },
    /// A directory-cache entry was displaced (its owner must flush).
    8 "dir_displacement" DirDisplacement { dir: u32, line: u64 },
    /// An L1 cache line with speculative read-set footprint was displaced.
    9 "cache_displacement" CacheDisplacement { core: u32, line: u64 },
    /// The Private Buffer supplied a dirty line instead of memory (§5.2).
    10 "priv_supply" PrivSupply { core: u32, line: u64 },
    /// Value trace: a retired load observed `value` at `addr` (emitted at
    /// retire for baseline models; buffered per chunk and emitted at
    /// commit for BulkSC, so squashed work never appears). `seq` is the
    /// owning chunk (0 for baselines); `po` is the per-core program-order
    /// index; `retired_at` is the retire cycle (the stamped `t` is the
    /// emission cycle, which for BulkSC is the commit-grant cycle).
    11 "val_load" ValLoad { core: u32, seq: u64, po: u64, addr: u64, value: u64, retired_at: u64 },
    /// Value trace: a store of `value` to `addr` became globally visible.
    /// Stream order of `val_store`/`val_rmw` events at one address *is*
    /// the coherence order: every emission site sits next to the
    /// `ValueStore::write` that publishes the value.
    12 "val_store" ValStore { core: u32, seq: u64, po: u64, addr: u64, value: u64, retired_at: u64 },
    /// Value trace: an atomic read-modify-write observed `old` and
    /// published `new` at `addr`, indivisibly.
    13 "val_rmw" ValRmw {
        core: u32, seq: u64, po: u64, addr: u64, old: u64, new: u64, retired_at: u64,
    },
    /// A message entered the interconnect.
    14 "net_send" NetSend { src: Endpoint, dst: Endpoint, kind: &'static str, bytes: u64 },
    /// A message left the interconnect at its destination.
    15 "net_deliver" NetDeliver { src: Endpoint, dst: Endpoint, kind: &'static str },
}

/// A field's JSONL key and the slot a scanned line keeps its value in,
/// both fixed at compile time.
#[derive(Clone, Copy)]
pub(crate) struct Key {
    pub(crate) name: &'static str,
    slot: usize,
}

impl Key {
    /// `name`'s key; a name outside [`KEYS`] fails the build.
    const fn new(name: &'static str) -> Key {
        Key {
            name,
            slot: distinct_before(position(name)),
        }
    }
}

/// The index of `key`'s first occurrence in [`KEYS`].
const fn position(key: &str) -> usize {
    let mut i = 0;
    while i < KEYS.len() {
        if same(KEYS[i], key) {
            return i;
        }
        i += 1;
    }
    panic!("not a key of the event vocabulary")
}

/// How many distinct keys [`KEYS`] holds before index `end`: a key's slot
/// is the count before its first occurrence.
const fn distinct_before(end: usize) -> usize {
    let (mut n, mut i) = (0, 0);
    while i < end {
        if position(KEYS[i]) == i {
            n += 1;
        }
        i += 1;
    }
    n
}

/// `a == b`, in a const context.
const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Number of distinct keys: one slot each.
const SLOTS: usize = distinct_before(KEYS.len());

/// What one encoding writes for each field type. [`Event::write_fields`]
/// calls these in wire order; `key` is the field's name.
pub(crate) trait FieldWriter {
    fn int(&mut self, key: &'static str, v: u64);
    fn bool(&mut self, key: &'static str, v: bool);
    fn cause(&mut self, key: &'static str, v: SquashCause);
    fn endpoint(&mut self, key: &'static str, v: Endpoint);
    fn net_kind(&mut self, key: &'static str, v: &'static str);
    fn xray(&mut self, v: Option<&ConflictAttr>);
}

/// What one encoding reads for each field type. [`Event::read_fields`]
/// calls these in wire order, and an error names the first field that
/// does not read.
pub(crate) trait FieldReader {
    type Error;
    fn int(&mut self, key: Key) -> Result<u64, Self::Error>;
    fn u32(&mut self, key: Key) -> Result<u32, Self::Error>;
    fn bool(&mut self, key: Key) -> Result<bool, Self::Error>;
    fn cause(&mut self, key: Key) -> Result<SquashCause, Self::Error>;
    fn endpoint(&mut self, key: Key) -> Result<Endpoint, Self::Error>;
    fn net_kind(&mut self, key: Key) -> Result<&'static str, Self::Error>;
    fn xray(&mut self) -> Result<Option<Box<ConflictAttr>>, Self::Error>;
}

/// A field type of the table: which [`FieldWriter`] and [`FieldReader`]
/// method carries it. Forced inline, like the encodings' methods: the
/// walks make one call per field.
trait Wire: Sized {
    fn write(&self, key: &'static str, w: &mut impl FieldWriter);
    fn read<R: FieldReader>(key: Key, r: &mut R) -> Result<Self, R::Error>;
}

macro_rules! wire {
    ($($ty:ty => $method:ident),* $(,)?) => {$(
        impl Wire for $ty {
            #[inline(always)]
            fn write(&self, key: &'static str, w: &mut impl FieldWriter) {
                w.$method(key, *self)
            }
            #[inline(always)]
            fn read<R: FieldReader>(key: Key, r: &mut R) -> Result<Self, R::Error> {
                r.$method(key)
            }
        }
    )*};
}

wire! {
    u64 => int,
    bool => bool,
    SquashCause => cause,
    Endpoint => endpoint,
    &'static str => net_kind,
}

impl Wire for u32 {
    #[inline(always)]
    fn write(&self, key: &'static str, w: &mut impl FieldWriter) {
        w.int(key, *self as u64)
    }
    #[inline(always)]
    fn read<R: FieldReader>(key: Key, r: &mut R) -> Result<u32, R::Error> {
        r.u32(key)
    }
}

impl Wire for Option<Box<ConflictAttr>> {
    #[inline(always)]
    fn write(&self, _key: &'static str, w: &mut impl FieldWriter) {
        w.xray(self.as_deref())
    }
    #[inline(always)]
    fn read<R: FieldReader>(_key: Key, r: &mut R) -> Result<Self, R::Error> {
        r.xray()
    }
}

impl Event {
    /// The issuing core, for events that carry a `core` field (drives the
    /// BTF per-block core bitmap and `query --core`).
    pub fn core_id(&self) -> Option<u32> {
        match *self {
            Event::ChunkStart { core, .. }
            | Event::CommitRequest { core, .. }
            | Event::CommitGrant { core, .. }
            | Event::CommitDeny { core, .. }
            | Event::ChunkCommit { core, .. }
            | Event::ChunkAbandon { core, .. }
            | Event::Squash { core, .. }
            | Event::SigExpand { core, .. }
            | Event::CacheDisplacement { core, .. }
            | Event::PrivSupply { core, .. }
            | Event::ValLoad { core, .. }
            | Event::ValStore { core, .. }
            | Event::ValRmw { core, .. } => Some(core),
            Event::DirDisplacement { .. } | Event::NetSend { .. } | Event::NetDeliver { .. } => {
                None
            }
        }
    }

    /// The line/word address this event is about, if it carries one
    /// (drives the BTF per-block address range and `query --line`).
    pub fn line_addr(&self) -> Option<u64> {
        match *self {
            Event::DirDisplacement { line, .. }
            | Event::CacheDisplacement { line, .. }
            | Event::PrivSupply { line, .. } => Some(line),
            Event::ValLoad { addr, .. }
            | Event::ValStore { addr, .. }
            | Event::ValRmw { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// The squash cause, for squash events.
    pub fn squash_cause(&self) -> Option<SquashCause> {
        match *self {
            Event::Squash { cause, .. } => Some(cause),
            _ => None,
        }
    }

    /// The conflict-attribution site, when this event carries xray data.
    pub fn xray_site(&self) -> Option<&'static str> {
        match self {
            Event::CommitDeny { xray, .. } | Event::Squash { xray, .. } => {
                xray.as_ref().map(|a| a.site)
            }
            _ => None,
        }
    }

    /// Stable snake_case name (the `ev` field of the JSONL encoding).
    pub fn name(&self) -> &'static str {
        Event::KIND_NAMES[self.kind_id() as usize]
    }

    /// The component this event happened at (used as the Chrome-trace
    /// thread id so Perfetto lanes events per component).
    pub fn actor(&self) -> Endpoint {
        match *self {
            Event::ChunkStart { core, .. }
            | Event::CommitRequest { core, .. }
            | Event::CommitGrant { core, .. }
            | Event::CommitDeny { core, .. }
            | Event::ChunkCommit { core, .. }
            | Event::ChunkAbandon { core, .. }
            | Event::Squash { core, .. }
            | Event::CacheDisplacement { core, .. }
            | Event::PrivSupply { core, .. }
            | Event::ValLoad { core, .. }
            | Event::ValStore { core, .. }
            | Event::ValRmw { core, .. } => Endpoint::core(core),
            Event::SigExpand { dir, .. } | Event::DirDisplacement { dir, .. } => Endpoint::dir(dir),
            Event::NetSend { src, .. } => src,
            Event::NetDeliver { dst, .. } => dst,
        }
    }

    /// The `(key, value)` payload fields, in wire order (the Chrome-trace
    /// args and the [`Display`](fmt::Display) rendering).
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = Pairs(Vec::new());
        self.write_fields(&mut pairs);
        pairs.0
    }

    /// One JSONL line (no trailing newline): `{"t":cycle,"ev":name,...}`.
    pub fn jsonl(&self, cycle: u64) -> String {
        let mut line = String::new();
        self.write_jsonl(cycle, &mut line);
        line
    }

    /// Append the [`Event::jsonl`] line to `out`, writing each field as it
    /// goes.
    pub fn write_jsonl(&self, cycle: u64, out: &mut String) {
        write!(out, "{{\"t\":{cycle},\"ev\":\"{}\"", self.name()).expect("writing to a String");
        self.write_fields(&mut Line(out));
        out.push('}');
    }

    /// Decode one JSONL event line: the inverse of [`Event::jsonl`],
    /// `Event::from_jsonl(&ev.jsonl(t)) == Ok((t, ev))`.
    ///
    /// The line is scanned in place ([`json::scan_object`]) into one slot
    /// per key of the event vocabulary instead of being built into a
    /// [`Json`] tree, and reads as the tree would: the first occurrence of
    /// a key wins, integers read as [`Json::as_u64`] reads them, and keys
    /// outside the vocabulary are skipped. Errors name the first missing
    /// or malformed field in wire order.
    pub fn from_jsonl(line: &str) -> Result<(u64, Event), String> {
        let mut slots = Slots([None; SLOTS]);
        // Valid JSON the scan refuses is not an object: it has no fields,
        // and the scan never started.
        if !json::scan_object(line, |key, value| slots.note(&key, value)) && !json::is_valid(line) {
            return Err("not valid JSON".to_string());
        }
        let t = slots.int(const { Key::new("t") })?;
        let name = slots.string(const { Key::new("ev") })?;
        let kind =
            Event::kind_id_of(&name).ok_or_else(|| format!("unknown event kind {name:?}"))?;
        Ok((t, Event::read_fields(kind, &mut slots)?))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @{}", self.name(), self.actor())?;
        for (k, v) in self.fields() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// The fields as `(key, value)` pairs.
struct Pairs(Vec<(&'static str, Json)>);

impl FieldWriter for Pairs {
    fn int(&mut self, key: &'static str, v: u64) {
        self.0.push((key, v.into()));
    }
    fn bool(&mut self, key: &'static str, v: bool) {
        self.0.push((key, v.into()));
    }
    fn cause(&mut self, key: &'static str, v: SquashCause) {
        self.0.push((key, v.label().into()));
    }
    fn endpoint(&mut self, key: &'static str, v: Endpoint) {
        self.0.push((key, v.to_string().into()));
    }
    fn net_kind(&mut self, key: &'static str, v: &'static str) {
        self.0.push((key, v.into()));
    }
    /// `agg_core` and `agg_seq` are omitted, never null, when unknown.
    fn xray(&mut self, v: Option<&ConflictAttr>) {
        let Some(attr) = v else { return };
        if let Some(c) = attr.agg_core {
            self.int("agg_core", c as u64);
        }
        if let Some(s) = attr.agg_seq {
            self.int("agg_seq", s);
        }
        self.0.push(("site", attr.site.into()));
        let witnesses = attr.witnesses.iter().map(|&l| l.into()).collect();
        self.0.push(("witness", Json::Arr(witnesses)));
    }
}

/// The fields of one JSONL line, appended as `,"key":value` to a string
/// exactly as [`Json::write`] renders the [`Pairs`].
struct Line<'a>(&'a mut String);

impl Line<'_> {
    #[inline(always)]
    fn key(&mut self, key: &str) {
        self.0.push_str(",\"");
        self.0.push_str(key);
        self.0.push_str("\":");
    }
}

impl FieldWriter for Line<'_> {
    fn int(&mut self, key: &'static str, v: u64) {
        self.key(key);
        write!(self.0, "{v}").expect("writing to a String");
    }
    fn bool(&mut self, key: &'static str, v: bool) {
        self.key(key);
        self.0.push_str(if v { "true" } else { "false" });
    }
    fn cause(&mut self, key: &'static str, v: SquashCause) {
        self.key(key);
        write_escaped(v.label(), self.0);
    }
    fn endpoint(&mut self, key: &'static str, v: Endpoint) {
        self.key(key);
        write!(self.0, "\"{v}\"").expect("writing to a String");
    }
    fn net_kind(&mut self, key: &'static str, v: &'static str) {
        self.key(key);
        write_escaped(v, self.0);
    }
    fn xray(&mut self, v: Option<&ConflictAttr>) {
        let Some(attr) = v else { return };
        if let Some(c) = attr.agg_core {
            self.int("agg_core", c as u64);
        }
        if let Some(s) = attr.agg_seq {
            self.int("agg_seq", s);
        }
        self.key("site");
        write_escaped(attr.site, self.0);
        self.key("witness");
        self.0.push('[');
        for (i, w) in attr.witnesses.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            write!(self.0, "{w}").expect("writing to a String");
        }
        self.0.push(']');
    }
}

/// The values of one JSONL event line, one slot per key of the
/// vocabulary, each the first occurrence of its key.
struct Slots<'a>([Option<RawValue<'a>>; SLOTS]);

impl<'a> Slots<'a> {
    /// Keep `value` in `key`'s slot unless an earlier occurrence holds
    /// it; keys outside the vocabulary are skipped.
    fn note(&mut self, key: &str, value: RawValue<'a>) {
        if let Some(slot) = slot_of(key) {
            self.0[slot].get_or_insert(value);
        }
    }

    #[inline(always)]
    fn string(&self, key: Key) -> Result<Cow<'a, str>, String> {
        self.0[key.slot]
            .and_then(RawValue::as_str)
            .ok_or_else(|| format!("missing or non-string field {:?}", key.name))
    }
}

// The field reads are forced inline: a value line makes seven of them.
impl FieldReader for Slots<'_> {
    type Error = String;

    #[inline(always)]
    fn int(&mut self, key: Key) -> Result<u64, String> {
        self.0[key.slot]
            .and_then(RawValue::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {:?}", key.name))
    }

    #[inline(always)]
    fn u32(&mut self, key: Key) -> Result<u32, String> {
        u32::try_from(self.int(key)?).map_err(|_| format!("field {:?} exceeds u32", key.name))
    }

    #[inline(always)]
    fn bool(&mut self, key: Key) -> Result<bool, String> {
        self.0[key.slot]
            .and_then(RawValue::as_bool)
            .ok_or_else(|| format!("missing or non-bool field {:?}", key.name))
    }

    fn cause(&mut self, key: Key) -> Result<SquashCause, String> {
        let label = self.string(key)?;
        SquashCause::ALL
            .into_iter()
            .find(|c| c.label() == label)
            .ok_or_else(|| format!("unknown squash cause {label:?}"))
    }

    /// An endpoint as [`Endpoint`]'s `Display` renders it: `core3`,
    /// `dir0`, `arb1`, `garb`.
    fn endpoint(&mut self, key: Key) -> Result<Endpoint, String> {
        let s = self.string(key)?;
        if s == "garb" {
            return Ok(Endpoint::garbiter());
        }
        for (prefix, make) in [
            ("core", Endpoint::core as fn(u32) -> Endpoint),
            ("dir", Endpoint::dir as fn(u32) -> Endpoint),
            ("arb", Endpoint::arbiter as fn(u32) -> Endpoint),
        ] {
            if let Some(rest) = s.strip_prefix(prefix) {
                if let Ok(i) = rest.parse::<u32>() {
                    return Ok(make(i));
                }
            }
        }
        Err(format!("unrecognized endpoint {s:?}"))
    }

    fn net_kind(&mut self, key: Key) -> Result<&'static str, String> {
        crate::btf::intern(&self.string(key)?)
    }

    /// The optional xray blob: present iff the line carries a `"site"`
    /// key (`agg_core` and `agg_seq` are omitted, never null, when
    /// unknown).
    fn xray(&mut self) -> Result<Option<Box<ConflictAttr>>, String> {
        let site = const { Key::new("site") };
        if self.0[site.slot].is_none() {
            return Ok(None);
        }
        let site = crate::btf::intern(&self.string(site)?)?;
        let agg_core = self.0[const { Key::new("agg_core").slot }]
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("agg_core is not a u32")
            })
            .transpose()?;
        let agg_seq = self.0[const { Key::new("agg_seq").slot }]
            .map(|v| v.as_u64().ok_or("agg_seq is not a u64"))
            .transpose()?;
        let witnesses = self.0[const { Key::new("witness").slot }]
            .and_then(RawValue::as_u64_items)
            .ok_or("xray blob lacks the witness array")?
            .into_iter()
            .map(|w| w.ok_or("witness is not a u64"))
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(Some(Box::new(ConflictAttr {
            agg_core,
            agg_seq,
            site,
            witnesses,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_display() {
        assert_eq!(Endpoint::core(3).to_string(), "core3");
        assert_eq!(Endpoint::dir(0).to_string(), "dir0");
        assert_eq!(Endpoint::arbiter(1).to_string(), "arb1");
        assert_eq!(Endpoint::garbiter().to_string(), "garb");
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let events = [
            Event::ChunkStart { core: 0, seq: 1 },
            Event::CommitRequest {
                core: 0,
                seq: 1,
                w_lines: 3,
                carries_rsig: true,
            },
            Event::CommitGrant { core: 0, seq: 1 },
            Event::CommitDeny {
                core: 1,
                seq: 9,
                xray: None,
            },
            Event::CommitDeny {
                core: 1,
                seq: 9,
                xray: Some(Box::new(ConflictAttr {
                    agg_core: Some(0),
                    agg_seq: Some(7),
                    site: "arb",
                    witnesses: vec![0xbeef, 0xcafe],
                })),
            },
            Event::ChunkCommit {
                core: 0,
                seq: 1,
                read_lines: 20,
                write_lines: 3,
                priv_lines: 8,
            },
            Event::ChunkAbandon { core: 3, seq: 40 },
            Event::Squash {
                core: 1,
                seq: 9,
                cause: SquashCause::Alias,
                squashed_instrs: 412,
                xray: None,
            },
            Event::Squash {
                core: 1,
                seq: 9,
                cause: SquashCause::TrueSharing,
                squashed_instrs: 412,
                xray: Some(Box::new(ConflictAttr {
                    agg_core: Some(3),
                    agg_seq: Some(41),
                    site: "wsig",
                    witnesses: vec![0x100],
                })),
            },
            Event::Squash {
                core: 2,
                seq: 5,
                cause: SquashCause::Overflow,
                squashed_instrs: 10,
                xray: Some(Box::new(ConflictAttr {
                    agg_core: None,
                    agg_seq: None,
                    site: "overflow",
                    witnesses: Vec::new(),
                })),
            },
            Event::SigExpand {
                dir: 0,
                core: 0,
                seq: 1,
                lookups: 4,
                updates: 2,
                inv_targets: 1,
            },
            Event::DirDisplacement {
                dir: 0,
                line: 0xfeed,
            },
            Event::CacheDisplacement {
                core: 2,
                line: 0xbeef,
            },
            Event::PrivSupply {
                core: 2,
                line: 0xcafe,
            },
            Event::ValLoad {
                core: 1,
                seq: 4,
                po: 17,
                addr: 0x1_0008,
                value: 42,
                retired_at: 99,
            },
            Event::ValStore {
                core: 0,
                seq: 2,
                po: 3,
                addr: 0x1_0000,
                value: 1,
                retired_at: 80,
            },
            Event::ValRmw {
                core: 2,
                seq: 0,
                po: 9,
                addr: 0x1_0010,
                old: 0,
                new: 1,
                retired_at: 120,
            },
            Event::NetSend {
                src: Endpoint::core(0),
                dst: Endpoint::arbiter(0),
                kind: "CommitReq",
                bytes: 264,
            },
            Event::NetDeliver {
                src: Endpoint::core(0),
                dst: Endpoint::arbiter(0),
                kind: "CommitReq",
            },
        ];
        for (i, ev) in events.iter().enumerate() {
            let cycle = 100 + i as u64;
            let line = ev.jsonl(cycle);
            assert!(crate::json::is_valid(&line), "invalid JSONL: {line}");
            assert!(line.contains(&format!("\"ev\":\"{}\"", ev.name())));
            assert!(line.starts_with(&format!("{{\"t\":{}", 100 + i)));
            // The direct writer appends exactly the object rendering.
            let mut obj = crate::Json::obj([("t", cycle.into()), ("ev", ev.name().into())]);
            for (k, v) in ev.fields() {
                obj.push(k, v);
            }
            let mut appended = String::from("earlier line\n");
            ev.write_jsonl(cycle, &mut appended);
            assert_eq!(appended, format!("earlier line\n{obj}"));
        }
    }

    #[test]
    fn squash_causes_have_stable_labels() {
        assert_eq!(SquashCause::Alias.label(), "alias");
        assert_eq!(SquashCause::TrueSharing.label(), "true-sharing");
        assert_eq!(SquashCause::Overflow.label(), "overflow");
    }

    #[test]
    fn display_is_human_readable() {
        let e = Event::Squash {
            core: 1,
            seq: 9,
            cause: SquashCause::Overflow,
            squashed_instrs: 7,
            xray: None,
        };
        let s = e.to_string();
        assert!(s.contains("squash") && s.contains("core1") && s.contains("overflow"));
    }

    #[test]
    fn xray_attribution_serializes_only_when_present() {
        let bare = Event::Squash {
            core: 2,
            seq: 5,
            cause: SquashCause::Alias,
            squashed_instrs: 10,
            xray: None,
        }
        .jsonl(1);
        assert!(!bare.contains("site"), "{bare}");
        assert!(!bare.contains("witness"), "{bare}");

        let attributed = Event::Squash {
            core: 2,
            seq: 5,
            cause: SquashCause::TrueSharing,
            squashed_instrs: 10,
            xray: Some(Box::new(ConflictAttr {
                agg_core: Some(0),
                agg_seq: Some(3),
                site: "wsig",
                witnesses: vec![7, 9],
            })),
        }
        .jsonl(1);
        assert!(
            attributed.contains("\"agg_core\":0,\"agg_seq\":3,\"site\":\"wsig\",\"witness\":[7,9]"),
            "{attributed}"
        );

        // No aggressor (overflow self-squash): agg fields are omitted, not
        // null — old readers never see unknown nulls.
        let no_agg = Event::Squash {
            core: 2,
            seq: 5,
            cause: SquashCause::Overflow,
            squashed_instrs: 10,
            xray: Some(Box::new(ConflictAttr {
                agg_core: None,
                agg_seq: None,
                site: "overflow",
                witnesses: Vec::new(),
            })),
        }
        .jsonl(1);
        assert!(!no_agg.contains("agg_core"), "{no_agg}");
        assert!(
            no_agg.contains("\"site\":\"overflow\",\"witness\":[]"),
            "{no_agg}"
        );
    }
}
