//! The trace wire format, pinned byte for byte.
//!
//! A round trip compares a build only with itself: a change that moves a
//! field within one kind's record, in the writer and the reader alike,
//! passes every round trip. So one event of every kind — the attributed
//! kinds with and without an xray blob, with and without an aggressor —
//! is rendered here as its JSONL line and its BTF block payload in hex,
//! and compared against `tests/golden/event_wire.txt`.
//!
//! The BTF record decoder's error texts are pinned too, each from a
//! hand-built record: they name the field or structure being read.
//!
//! Re-bless after an intentional wire change (which bumps the schema):
//!
//! ```text
//! BULKSC_BLESS=1 cargo test --test event_wire
//! git diff tests/golden/event_wire.txt
//! ```

use std::io::Cursor;

use bulksc_trace::btf::decode_block;
use bulksc_trace::{BtfWriter, ConflictAttr, Endpoint, Event, IndexedBtf, SquashCause};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/event_wire.txt")
}

fn attr(
    site: &'static str,
    agg_core: Option<u32>,
    agg_seq: Option<u64>,
) -> Option<Box<ConflictAttr>> {
    Some(Box::new(ConflictAttr {
        agg_core,
        agg_seq,
        site,
        witnesses: if agg_core.is_some() {
            vec![0x100, 0x9e37_79b9_7f4a_7c15]
        } else {
            Vec::new()
        },
    }))
}

/// Every event kind, in kind order, with multi-byte and extreme values.
fn every_event() -> Vec<Event> {
    vec![
        Event::ChunkStart { core: 0, seq: 1 },
        Event::CommitRequest {
            core: 1,
            seq: 300,
            w_lines: 3,
            carries_rsig: true,
        },
        Event::CommitRequest {
            core: 1,
            seq: 301,
            w_lines: 0,
            carries_rsig: false,
        },
        Event::CommitGrant { core: 2, seq: 7 },
        Event::CommitDeny {
            core: 3,
            seq: 9,
            xray: None,
        },
        Event::CommitDeny {
            core: 3,
            seq: 9,
            xray: attr("arb", Some(5), Some(41)),
        },
        Event::CommitDeny {
            core: 3,
            seq: 10,
            xray: attr("prearb", Some(6), None),
        },
        Event::CommitDeny {
            core: 3,
            seq: 11,
            xray: attr("garb-vote", None, None),
        },
        Event::ChunkCommit {
            core: 4,
            seq: 12,
            read_lines: 20,
            write_lines: 3,
            priv_lines: 8,
        },
        Event::ChunkAbandon { core: 5, seq: 40 },
        Event::Squash {
            core: 6,
            seq: 13,
            cause: SquashCause::Alias,
            squashed_instrs: 412,
            xray: None,
        },
        Event::Squash {
            core: 6,
            seq: 14,
            cause: SquashCause::TrueSharing,
            squashed_instrs: 1,
            xray: attr("wsig", Some(2), Some(99)),
        },
        Event::Squash {
            core: 7,
            seq: 15,
            cause: SquashCause::Overflow,
            squashed_instrs: 10,
            xray: attr("overflow", None, None),
        },
        Event::SigExpand {
            dir: 1,
            core: 2,
            seq: 3,
            lookups: 4,
            updates: 5,
            inv_targets: 6,
        },
        Event::DirDisplacement {
            dir: 3,
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
            core: u32::MAX,
            seq: 2,
            po: 3,
            addr: 0x1_0000,
            value: u64::MAX,
            retired_at: 80,
        },
        Event::ValRmw {
            core: 2,
            seq: 0,
            po: 9,
            addr: 0x1_0010,
            old: 7,
            new: 8,
            retired_at: 120,
        },
        Event::NetSend {
            src: Endpoint::core(1),
            dst: Endpoint::arbiter(2),
            kind: "CommitReq",
            bytes: 264,
        },
        Event::NetDeliver {
            src: Endpoint::dir(3),
            dst: Endpoint::garbiter(),
            kind: "ArbDone",
        },
    ]
}

/// The payload of the one block holding `ev` alone, stamped `cycle`: the
/// string defines it needs, then its record.
fn btf_record(cycle: u64, ev: &Event) -> Vec<u8> {
    let mut w = BtfWriter::new(Vec::new()).unwrap();
    w.push(cycle, ev).unwrap();
    let bytes = w.finish().unwrap();
    let meta = IndexedBtf::new(Cursor::new(&bytes)).unwrap().index()[0];
    let start = meta.offset as usize + 9;
    bytes[start..start + meta.len as usize].to_vec()
}

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn every_event_kind_matches_its_committed_wire_bytes() {
    let mut actual = String::new();
    let mut kinds = std::collections::BTreeSet::new();
    for (i, ev) in every_event().into_iter().enumerate() {
        let cycle = 300 + i as u64;
        kinds.insert(ev.kind_id());
        let line = ev.jsonl(cycle);
        let record = btf_record(cycle, &ev);
        // Each encoding decodes back to the event it was written from.
        assert_eq!(Event::from_jsonl(&line), Ok((cycle, ev.clone())), "{line}");
        assert_eq!(
            decode_block(&record, 1).unwrap(),
            vec![(cycle, ev.clone())],
            "{line}"
        );
        actual.push_str(&format!("{line}\nbtf {}\n\n", hex(&record)));
    }
    assert_eq!(kinds.len(), Event::KIND_COUNT, "a kind is missing");

    let path = golden_path();
    if std::env::var_os("BULKSC_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run `BULKSC_BLESS=1 cargo test --test event_wire`)",
            path.display()
        )
    });
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "the wire format moved");
    }
    assert_eq!(
        actual, expected,
        "the fixture has a different number of events"
    );
}

/// A varint, as BTF writes integers.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// A block payload from byte chunks.
fn record(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

#[test]
fn btf_record_errors_name_what_was_being_read() {
    let big = varint(1 << 32);
    // A define record for the site string "arb" (string id 0).
    let define: &[u8] = &[0xFE, 3, b'a', b'r', b'b'];
    let cases: Vec<(Vec<u8>, &str)> = vec![
        // chunk_start: a core past u32, then a missing seq.
        (
            record(&[&[0, 0], &big, &[1]]),
            "invalid record: core 4294967296 exceeds u32",
        ),
        (
            record(&[&[0, 0, 1]]),
            "truncated input while reading varint",
        ),
        // chunk_commit: a line count past u32.
        (
            record(&[&[4, 0, 1, 2, 3], &big, &[5]]),
            "invalid record: write_lines 4294967296 exceeds u32",
        ),
        // commit_request: a missing or non-bool carries_rsig.
        (
            record(&[&[1, 0, 1, 2, 3]]),
            "truncated input while reading carries_rsig",
        ),
        (
            record(&[&[1, 0, 1, 2, 3, 2]]),
            "invalid record: bool byte 2",
        ),
        // squash: a cause byte past the three causes, or none at all.
        (
            record(&[&[6, 0, 1, 2, 3, 4, 0]]),
            "invalid record: squash cause byte 3",
        ),
        (
            record(&[&[6, 0, 1, 2]]),
            "truncated input while reading squash cause",
        ),
        // net_send: a bad or missing endpoint, an index past u32, and a
        // message kind never defined.
        (
            record(&[&[14, 0, 4, 0]]),
            "invalid record: endpoint kind byte 4",
        ),
        (
            record(&[&[14, 0]]),
            "truncated input while reading endpoint kind",
        ),
        (
            record(&[&[14, 0, 1], &big]),
            "invalid record: endpoint index 4294967296 exceeds u32",
        ),
        (
            record(&[&[14, 0, 0, 1, 1, 2, 5, 64]]),
            "invalid record: net kind: string id 5 undefined",
        ),
        // commit_deny: the xray blob's site, flags, aggressor and
        // witness count.
        (
            record(&[&[3, 0, 1, 2, 1, 9, 0]]),
            "invalid record: xray site: string id 9 undefined",
        ),
        (
            record(&[&[3, 0, 1, 2, 8]]),
            "invalid record: xray flags byte 0x8",
        ),
        (
            record(&[&[3, 0, 1, 2]]),
            "truncated input while reading xray flags",
        ),
        (
            record(&[&[3, 0, 1, 2, 3], &big]),
            "invalid record: agg_core 4294967296 exceeds u32",
        ),
        (
            record(&[define, &[3, 0, 1, 2, 1, 0], &varint(5000)]),
            "invalid record: witness count 5000",
        ),
        // A tag past the last kind.
        (record(&[&[0x10, 0]]), "unknown record tag 0x10"),
    ];
    for (payload, want) in cases {
        let err = decode_block(&payload, 1).expect_err(want);
        assert_eq!(err.to_string(), want, "payload {}", hex(&payload));
    }
}
