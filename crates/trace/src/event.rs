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

use std::borrow::Cow;
use std::fmt;

use crate::json::{self, RawValue};

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

impl ConflictAttr {
    fn append_fields(&self, out: &mut Vec<(&'static str, crate::Json)>) {
        if let Some(c) = self.agg_core {
            out.push(("agg_core", c.into()));
        }
        if let Some(s) = self.agg_seq {
            out.push(("agg_seq", s.into()));
        }
        out.push(("site", self.site.into()));
        out.push((
            "witness",
            crate::Json::Arr(self.witnesses.iter().map(|&l| l.into()).collect()),
        ));
    }
}

/// One cycle-stamped simulator event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A core opened a new chunk (`seq` is per-core, monotonically rising).
    ChunkStart { core: u32, seq: u64 },
    /// A core asked the arbiter for permission to commit.
    CommitRequest {
        core: u32,
        seq: u64,
        w_lines: u32,
        carries_rsig: bool,
    },
    /// The (G-)arbiter granted commit permission.
    CommitGrant { core: u32, seq: u64 },
    /// The (G-)arbiter denied commit permission (the core will retry).
    /// `xray` carries conflict attribution when the emitter runs with
    /// attribution on (schema v5); `None` serializes exactly like v4.
    CommitDeny {
        core: u32,
        seq: u64,
        xray: Option<Box<ConflictAttr>>,
    },
    /// A chunk finished committing and retired its instructions.
    ChunkCommit {
        core: u32,
        seq: u64,
        read_lines: u32,
        write_lines: u32,
        priv_lines: u32,
    },
    /// A core discarded a still-empty trailing chunk at the end of its
    /// program (no instructions were lost; nothing will re-execute).
    /// Terminates the chunk's span like a commit or squash does.
    ChunkAbandon { core: u32, seq: u64 },
    /// A chunk was squashed and will re-execute from its checkpoint.
    /// `xray` as on [`Event::CommitDeny`].
    Squash {
        core: u32,
        seq: u64,
        cause: SquashCause,
        squashed_instrs: u64,
        xray: Option<Box<ConflictAttr>>,
    },
    /// The directory expanded a committing W signature (Table 1's DirBDM
    /// walk): `lookups`/`updates` count the directory accesses it took,
    /// `inv_targets` the sharer caches it invalidated.
    SigExpand {
        dir: u32,
        core: u32,
        seq: u64,
        lookups: u64,
        updates: u64,
        inv_targets: u64,
    },
    /// A directory-cache entry was displaced (its owner must flush).
    DirDisplacement { dir: u32, line: u64 },
    /// An L1 cache line with speculative read-set footprint was displaced.
    CacheDisplacement { core: u32, line: u64 },
    /// The Private Buffer supplied a dirty line instead of memory (§5.2).
    PrivSupply { core: u32, line: u64 },
    /// Value trace: a retired load observed `value` at `addr` (emitted at
    /// retire for baseline models; buffered per chunk and emitted at
    /// commit for BulkSC, so squashed work never appears). `seq` is the
    /// owning chunk (0 for baselines); `po` is the per-core program-order
    /// index; `retired_at` is the retire cycle (the stamped `t` is the
    /// emission cycle, which for BulkSC is the commit-grant cycle).
    ValLoad {
        core: u32,
        seq: u64,
        po: u64,
        addr: u64,
        value: u64,
        retired_at: u64,
    },
    /// Value trace: a store of `value` to `addr` became globally visible.
    /// Stream order of `val_store`/`val_rmw` events at one address *is*
    /// the coherence order: every emission site sits next to the
    /// `ValueStore::write` that publishes the value.
    ValStore {
        core: u32,
        seq: u64,
        po: u64,
        addr: u64,
        value: u64,
        retired_at: u64,
    },
    /// Value trace: an atomic read-modify-write observed `old` and
    /// published `new` at `addr`, indivisibly.
    ValRmw {
        core: u32,
        seq: u64,
        po: u64,
        addr: u64,
        old: u64,
        new: u64,
        retired_at: u64,
    },
    /// A message entered the interconnect.
    NetSend {
        src: Endpoint,
        dst: Endpoint,
        kind: &'static str,
        bytes: u64,
    },
    /// A message left the interconnect at its destination.
    NetDeliver {
        src: Endpoint,
        dst: Endpoint,
        kind: &'static str,
    },
}

impl Event {
    /// Number of event kinds (the size of the [`Event::KIND_NAMES`] table
    /// and the width of a BTF block's kind bitmap).
    pub const KIND_COUNT: usize = 16;

    /// Every event name, indexed by [`Event::kind_id`]. The order is the
    /// wire order of the BTF codec — append-only; never reorder.
    pub const KIND_NAMES: [&'static str; Event::KIND_COUNT] = [
        "chunk_start",
        "commit_request",
        "commit_grant",
        "commit_deny",
        "chunk_commit",
        "chunk_abandon",
        "squash",
        "sig_expand",
        "dir_displacement",
        "cache_displacement",
        "priv_supply",
        "val_load",
        "val_store",
        "val_rmw",
        "net_send",
        "net_deliver",
    ];

    /// Stable numeric kind (the BTF record tag and kind-bitmap bit).
    pub fn kind_id(&self) -> u8 {
        match self {
            Event::ChunkStart { .. } => 0,
            Event::CommitRequest { .. } => 1,
            Event::CommitGrant { .. } => 2,
            Event::CommitDeny { .. } => 3,
            Event::ChunkCommit { .. } => 4,
            Event::ChunkAbandon { .. } => 5,
            Event::Squash { .. } => 6,
            Event::SigExpand { .. } => 7,
            Event::DirDisplacement { .. } => 8,
            Event::CacheDisplacement { .. } => 9,
            Event::PrivSupply { .. } => 10,
            Event::ValLoad { .. } => 11,
            Event::ValStore { .. } => 12,
            Event::ValRmw { .. } => 13,
            Event::NetSend { .. } => 14,
            Event::NetDeliver { .. } => 15,
        }
    }

    /// The kind id for an event name, if it names one.
    pub fn kind_id_of(name: &str) -> Option<u8> {
        Event::KIND_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| i as u8)
    }

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
        match self {
            Event::ChunkStart { .. } => "chunk_start",
            Event::CommitRequest { .. } => "commit_request",
            Event::CommitGrant { .. } => "commit_grant",
            Event::CommitDeny { .. } => "commit_deny",
            Event::ChunkCommit { .. } => "chunk_commit",
            Event::ChunkAbandon { .. } => "chunk_abandon",
            Event::Squash { .. } => "squash",
            Event::SigExpand { .. } => "sig_expand",
            Event::DirDisplacement { .. } => "dir_displacement",
            Event::CacheDisplacement { .. } => "cache_displacement",
            Event::PrivSupply { .. } => "priv_supply",
            Event::ValLoad { .. } => "val_load",
            Event::ValStore { .. } => "val_store",
            Event::ValRmw { .. } => "val_rmw",
            Event::NetSend { .. } => "net_send",
            Event::NetDeliver { .. } => "net_deliver",
        }
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

    /// The `(key, value)` payload fields, in a stable order.
    pub fn fields(&self) -> Vec<(&'static str, crate::Json)> {
        match *self {
            Event::ChunkStart { core, seq } => {
                vec![("core", core.into()), ("seq", seq.into())]
            }
            Event::CommitRequest {
                core,
                seq,
                w_lines,
                carries_rsig,
            } => vec![
                ("core", core.into()),
                ("seq", seq.into()),
                ("w_lines", w_lines.into()),
                ("carries_rsig", carries_rsig.into()),
            ],
            Event::CommitGrant { core, seq } | Event::ChunkAbandon { core, seq } => {
                vec![("core", core.into()), ("seq", seq.into())]
            }
            Event::CommitDeny {
                core,
                seq,
                ref xray,
            } => {
                let mut out = vec![("core", core.into()), ("seq", seq.into())];
                if let Some(attr) = xray {
                    attr.append_fields(&mut out);
                }
                out
            }
            Event::ChunkCommit {
                core,
                seq,
                read_lines,
                write_lines,
                priv_lines,
            } => vec![
                ("core", core.into()),
                ("seq", seq.into()),
                ("read_lines", read_lines.into()),
                ("write_lines", write_lines.into()),
                ("priv_lines", priv_lines.into()),
            ],
            Event::Squash {
                core,
                seq,
                cause,
                squashed_instrs,
                ref xray,
            } => {
                let mut out = vec![
                    ("core", core.into()),
                    ("seq", seq.into()),
                    ("cause", cause.label().into()),
                    ("squashed_instrs", squashed_instrs.into()),
                ];
                if let Some(attr) = xray {
                    attr.append_fields(&mut out);
                }
                out
            }
            Event::SigExpand {
                dir,
                core,
                seq,
                lookups,
                updates,
                inv_targets,
            } => vec![
                ("dir", dir.into()),
                ("core", core.into()),
                ("seq", seq.into()),
                ("lookups", lookups.into()),
                ("updates", updates.into()),
                ("inv_targets", inv_targets.into()),
            ],
            Event::DirDisplacement { dir, line } => {
                vec![("dir", dir.into()), ("line", line.into())]
            }
            Event::CacheDisplacement { core, line } | Event::PrivSupply { core, line } => {
                vec![("core", core.into()), ("line", line.into())]
            }
            Event::ValLoad {
                core,
                seq,
                po,
                addr,
                value,
                retired_at,
            }
            | Event::ValStore {
                core,
                seq,
                po,
                addr,
                value,
                retired_at,
            } => vec![
                ("core", core.into()),
                ("seq", seq.into()),
                ("po", po.into()),
                ("addr", addr.into()),
                ("value", value.into()),
                ("retired_at", retired_at.into()),
            ],
            Event::ValRmw {
                core,
                seq,
                po,
                addr,
                old,
                new,
                retired_at,
            } => vec![
                ("core", core.into()),
                ("seq", seq.into()),
                ("po", po.into()),
                ("addr", addr.into()),
                ("old", old.into()),
                ("new", new.into()),
                ("retired_at", retired_at.into()),
            ],
            Event::NetSend {
                src,
                dst,
                kind,
                bytes,
            } => vec![
                ("src", src.to_string().into()),
                ("dst", dst.to_string().into()),
                ("kind", kind.into()),
                ("bytes", bytes.into()),
            ],
            Event::NetDeliver { src, dst, kind } => vec![
                ("src", src.to_string().into()),
                ("dst", dst.to_string().into()),
                ("kind", kind.into()),
            ],
        }
    }

    /// One JSONL line (no trailing newline): `{"t":cycle,"ev":name,...}`.
    pub fn jsonl(&self, cycle: u64) -> String {
        let mut line = String::new();
        self.write_jsonl(cycle, &mut line);
        line
    }

    /// Append the [`Event::jsonl`] line to `out`, writing each field as it
    /// goes instead of building a [`crate::Json`] object first.
    pub fn write_jsonl(&self, cycle: u64, out: &mut String) {
        out.push_str("{\"t\":");
        crate::Json::U64(cycle).write(out);
        out.push_str(",\"ev\":");
        crate::json::write_escaped(self.name(), out);
        for (k, v) in self.fields() {
            out.push(',');
            crate::json::write_escaped(k, out);
            out.push(':');
            v.write(out);
        }
        out.push('}');
    }

    /// Decode one JSONL event line: the inverse of [`Event::jsonl`],
    /// `Event::from_jsonl(&ev.jsonl(t)) == Ok((t, ev))`.
    ///
    /// The line is scanned in place ([`json::scan_object`]) into one slot
    /// per key of the event vocabulary instead of being built into a
    /// [`crate::Json`] tree, and reads as the tree would: the first
    /// occurrence of a key wins, integers read as [`crate::Json::as_u64`]
    /// reads them, and keys outside the vocabulary are skipped. Errors name
    /// the first missing or malformed field in a fixed per-kind order.
    pub fn from_jsonl(line: &str) -> Result<(u64, Event), String> {
        let mut f = Fields::default();
        // Valid JSON the scan refuses is not an object: it has no fields,
        // and the scan never started.
        if !json::scan_object(line, |key, value| f.note(&key, value)) && !json::is_valid(line) {
            return Err("not valid JSON".to_string());
        }
        f.decode()
    }
}

/// Declare [`Fields`], one slot per key of the event vocabulary, and its
/// key-to-slot match, from one list of keys.
macro_rules! fields {
    ($($key:ident),* $(,)?) => {
        /// The values of one JSONL event line, each the first occurrence
        /// of its key.
        #[derive(Default)]
        struct Fields<'a> {
            $($key: Option<RawValue<'a>>,)*
        }

        impl<'a> Fields<'a> {
            /// Keep `value` in `key`'s slot unless an earlier occurrence
            /// holds it; keys outside the vocabulary are skipped.
            fn note(&mut self, key: &str, value: RawValue<'a>) {
                let slot = match key {
                    $(stringify!($key) => &mut self.$key,)*
                    _ => return,
                };
                slot.get_or_insert(value);
            }
        }
    };
}

fields! {
    t, ev, core, seq, po, addr, value, retired_at, old, new, src, dst, kind, bytes, w_lines,
    carries_rsig, read_lines, write_lines, priv_lines, cause, squashed_instrs, dir, lookups,
    updates, inv_targets, line, site, agg_core, agg_seq, witness,
}

impl Fields<'_> {
    fn decode(&self) -> Result<(u64, Event), String> {
        let t = int(self.t, "t")?;
        let name = string(self.ev, "ev")?;
        let ev = match &*name {
            "chunk_start" => Event::ChunkStart {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
            },
            "commit_request" => Event::CommitRequest {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
                w_lines: int32(self.w_lines, "w_lines")?,
                carries_rsig: self
                    .carries_rsig
                    .and_then(RawValue::as_bool)
                    .ok_or("missing or non-bool field \"carries_rsig\"")?,
            },
            "commit_grant" => Event::CommitGrant {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
            },
            "commit_deny" => Event::CommitDeny {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
                xray: self.xray()?,
            },
            "chunk_commit" => Event::ChunkCommit {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
                read_lines: int32(self.read_lines, "read_lines")?,
                write_lines: int32(self.write_lines, "write_lines")?,
                priv_lines: int32(self.priv_lines, "priv_lines")?,
            },
            "chunk_abandon" => Event::ChunkAbandon {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
            },
            "squash" => Event::Squash {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
                cause: {
                    let label = string(self.cause, "cause")?;
                    SquashCause::ALL
                        .into_iter()
                        .find(|c| c.label() == label)
                        .ok_or_else(|| format!("unknown squash cause {label:?}"))?
                },
                squashed_instrs: int(self.squashed_instrs, "squashed_instrs")?,
                xray: self.xray()?,
            },
            "sig_expand" => Event::SigExpand {
                dir: int32(self.dir, "dir")?,
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
                lookups: int(self.lookups, "lookups")?,
                updates: int(self.updates, "updates")?,
                inv_targets: int(self.inv_targets, "inv_targets")?,
            },
            "dir_displacement" => Event::DirDisplacement {
                dir: int32(self.dir, "dir")?,
                line: int(self.line, "line")?,
            },
            "cache_displacement" => Event::CacheDisplacement {
                core: int32(self.core, "core")?,
                line: int(self.line, "line")?,
            },
            "priv_supply" => Event::PrivSupply {
                core: int32(self.core, "core")?,
                line: int(self.line, "line")?,
            },
            "val_load" | "val_store" => {
                let core = int32(self.core, "core")?;
                let seq = int(self.seq, "seq")?;
                let po = int(self.po, "po")?;
                let addr = int(self.addr, "addr")?;
                let value = int(self.value, "value")?;
                let retired_at = int(self.retired_at, "retired_at")?;
                if name == "val_load" {
                    Event::ValLoad {
                        core,
                        seq,
                        po,
                        addr,
                        value,
                        retired_at,
                    }
                } else {
                    Event::ValStore {
                        core,
                        seq,
                        po,
                        addr,
                        value,
                        retired_at,
                    }
                }
            }
            "val_rmw" => Event::ValRmw {
                core: int32(self.core, "core")?,
                seq: int(self.seq, "seq")?,
                po: int(self.po, "po")?,
                addr: int(self.addr, "addr")?,
                old: int(self.old, "old")?,
                new: int(self.new, "new")?,
                retired_at: int(self.retired_at, "retired_at")?,
            },
            "net_send" => Event::NetSend {
                src: endpoint(self.src, "src")?,
                dst: endpoint(self.dst, "dst")?,
                kind: crate::btf::intern(&string(self.kind, "kind")?)?,
                bytes: int(self.bytes, "bytes")?,
            },
            "net_deliver" => Event::NetDeliver {
                src: endpoint(self.src, "src")?,
                dst: endpoint(self.dst, "dst")?,
                kind: crate::btf::intern(&string(self.kind, "kind")?)?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok((t, ev))
    }

    /// The optional xray blob: present iff the line carries a `"site"` key
    /// (as [`ConflictAttr::append_fields`] writes it, `agg_core` and
    /// `agg_seq` are omitted, never null, when unknown).
    fn xray(&self) -> Result<Option<Box<ConflictAttr>>, String> {
        if self.site.is_none() {
            return Ok(None);
        }
        let site = crate::btf::intern(&string(self.site, "site")?)?;
        let agg_core = match self.agg_core {
            Some(v) => Some(
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("agg_core is not a u32")?,
            ),
            None => None,
        };
        let agg_seq = match self.agg_seq {
            Some(v) => Some(v.as_u64().ok_or("agg_seq is not a u64")?),
            None => None,
        };
        let witnesses = self
            .witness
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

// The field reads are forced inline: a value line makes seven of them.
#[inline(always)]
fn int(value: Option<RawValue<'_>>, key: &str) -> Result<u64, String> {
    value
        .and_then(RawValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

#[inline(always)]
fn int32(value: Option<RawValue<'_>>, key: &str) -> Result<u32, String> {
    u32::try_from(int(value, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

#[inline(always)]
fn string<'a>(value: Option<RawValue<'a>>, key: &str) -> Result<Cow<'a, str>, String> {
    value
        .and_then(RawValue::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// An endpoint as [`Endpoint`]'s `Display` renders it: `core3`, `dir0`,
/// `arb1`, `garb`.
fn endpoint(value: Option<RawValue<'_>>, key: &str) -> Result<Endpoint, String> {
    let s = string(value, key)?;
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

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @{}", self.name(), self.actor())?;
        for (k, v) in self.fields() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
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
