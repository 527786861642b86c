//! Seeded corruption fuzz for the trace readers: every damaged input must
//! end in a named error or a clean end of stream — never a panic, a hang,
//! or a runaway allocation.
//!
//! The corpus is a short xray capture (net messages with string-table
//! records, attribution blobs, squashes), re-encoded into small BTF
//! blocks so corruption lands in many blocks and in the footer index.
//! Each case is read through `EventSource` both sequentially (the pipe
//! path) and through the block index (the `query` path); JSONL cases
//! damage the text form the same way. The in-place JSONL event decoder is
//! pinned against the `Json` tree decoder it replaced, kept here as the
//! reference.

use std::io::Cursor;

use bulksc_bench::xray;
use bulksc_stats::SplitMix64;
use bulksc_trace::btf::intern;
use bulksc_trace::source::Position;
use bulksc_trace::{
    BtfWriter, ConflictAttr, Endpoint, Event, EventSource, IndexedBtf, Json, SourceError,
    SquashCause,
};

const SEED: u64 = 0x5eed_c0de;

/// The clean corpus: (JSONL text, BTF bytes with 64-event blocks, events).
fn corpus() -> (String, Vec<u8>, usize) {
    let text = xray::capture_stream(700);
    let events: Vec<(u64, Event)> = EventSource::new(text.as_bytes(), "corpus")
        .unwrap()
        .map(Result::unwrap)
        .collect();
    let mut w = BtfWriter::new(Vec::new()).unwrap().with_block_events(64);
    for (cycle, ev) in &events {
        w.push(*cycle, ev).unwrap();
    }
    (text, w.finish().unwrap(), events.len())
}

/// Drain a source. Ok(events read) at a clean end; the first error
/// otherwise, which must name the origin.
fn drain(source: Result<EventSource<'_>, SourceError>, limit: usize) -> Result<usize, SourceError> {
    let mut n = 0;
    for item in source? {
        item?;
        n += 1;
        assert!(n <= limit, "more events than the input could encode");
    }
    Ok(n)
}

/// Read `bytes` both sequentially and through the index; check every
/// error is named. Returns the two outcomes.
fn read_both(bytes: &[u8], case: &str) -> [Result<usize, SourceError>; 2] {
    let limit = bytes.len();
    let outcomes = [
        drain(EventSource::new(bytes, case), limit),
        drain(
            EventSource::indexed(Cursor::new(bytes), case, |_| true),
            limit,
        ),
    ];
    for outcome in &outcomes {
        if let Err(e) = outcome {
            let msg = e.to_string();
            assert!(
                msg.starts_with(&format!("{case}: ")),
                "unnamed error: {msg}"
            );
        }
    }
    outcomes
}

#[test]
fn truncated_btf_is_always_an_error() {
    let (_, btf, _) = corpus();
    let mut rng = SplitMix64::new(SEED);
    let mut cuts: Vec<usize> = (0..40).chain(btf.len() - 40..btf.len()).collect();
    cuts.extend((0..200).map(|_| rng.gen_index(btf.len())));
    for cut in cuts {
        let case = format!("cut@{cut}");
        for outcome in read_both(&btf[..cut], &case) {
            assert!(
                outcome.is_err(),
                "{case}: a truncated artifact read cleanly"
            );
        }
    }
}

#[test]
fn bit_flipped_btf_ends_in_a_named_error_or_cleanly() {
    let (_, btf, _) = corpus();
    let mut rng = SplitMix64::new(SEED ^ 1);
    let mut errors = 0;
    for _ in 0..400 {
        let (at, bit) = (rng.gen_index(btf.len()), rng.gen_index(8));
        let mut bytes = btf.clone();
        bytes[at] ^= 1 << bit;
        let case = format!("flip@{at}.{bit}");
        errors += read_both(&bytes, &case)
            .iter()
            .filter(|outcome| outcome.is_err())
            .count();
    }
    assert!(errors > 0, "no flip was ever detected");
}

#[test]
fn bad_index_offsets_are_refused_by_the_indexed_reader() {
    let (_, btf, _) = corpus();
    let at = btf.len() - 12;
    let real = u64::from_le_bytes(btf[at..at + 8].try_into().unwrap());
    let len = btf.len() as u64;
    for offset in [
        0,
        7,
        8,
        real - 1,
        real + 1,
        len - 12,
        len,
        u64::MAX - 11,
        u64::MAX,
    ] {
        let mut bytes = btf.clone();
        bytes[at..at + 8].copy_from_slice(&offset.to_le_bytes());
        let case = format!("index@{offset}");
        let e = drain(
            EventSource::indexed(Cursor::new(&bytes), &case, |_| true),
            len as usize,
        )
        .expect_err(&case);
        assert_eq!(e.at, Position::Header, "{case}: {e}");
    }
}

#[test]
fn wrong_block_record_counts_are_refused() {
    let (_, btf, _) = corpus();
    let index = IndexedBtf::new(Cursor::new(&btf)).unwrap();
    let metas = index.index().to_vec();
    assert!(metas.len() > 4, "corpus spans several blocks");
    for (i, meta) in metas.iter().enumerate().step_by(3) {
        for count in [0, meta.count - 1, meta.count + 1, u32::MAX] {
            // The block header's count: both readers notice.
            let mut bytes = btf.clone();
            let at = meta.offset as usize + 5;
            bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
            let case = format!("block{i}.count={count}");
            for outcome in read_both(&bytes, &case) {
                let e = outcome.expect_err(&case);
                assert_eq!(e.at, Position::Block(i), "{case}: {e}");
            }
        }
    }
}

#[test]
fn garbage_jsonl_lines_are_named_errors() {
    let (text, _, events) = corpus();
    let lines: Vec<&str> = text.lines().collect();
    let mut rng = SplitMix64::new(SEED ^ 2);
    let bomb = "[".repeat(100_000);
    let mut garbage: Vec<String> = [
        "not json",
        "{",
        "null",
        "{\"t\":1}",
        "{\"t\":1,\"ev\":\"martian\"}",
        "{\"t\":-1,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
        "{\"t\":1,\"ev\":\"chunk_start\",\"core\":4294967296,\"seq\":0}",
        "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":\"gremlins\",\"squashed_instrs\":1}",
        &bomb,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for _ in 0..40 {
        let len = rng.gen_index(80) + 1;
        let line: String = (0..len)
            .map(|_| char::from(b' ' + rng.gen_index(95) as u8))
            .collect();
        if !line.trim().is_empty() && bulksc_trace::Json::parse(&line).is_none() {
            garbage.push(line);
        }
    }
    for (k, bad) in garbage.iter().enumerate() {
        let at = 1 + rng.gen_index(lines.len() - 1);
        let mut damaged: Vec<&str> = lines.clone();
        damaged.insert(at, bad);
        let damaged = damaged.join("\n") + "\n";
        let case = format!("garbage{k}");
        let e = drain(EventSource::new(damaged.as_bytes(), &case), events + 1).expect_err(&case);
        assert_eq!(e.at, Position::Line(at as u64 + 1), "{case}: {e}");
        assert!(e.to_string().starts_with(&format!("{case}: line ")), "{e}");
    }

    // Invalid UTF-8 and a newline-free flood are named errors too.
    let mut bytes = text.clone().into_bytes();
    bytes.extend_from_slice(b"\xff\xfe\n");
    assert!(drain(EventSource::new(bytes.as_slice(), "utf8"), events + 1).is_err());
    let flood = format!("{}\n{}", lines[0], "x".repeat(3 << 20));
    let e = drain(EventSource::new(flood.as_bytes(), "flood"), 1).expect_err("flood");
    assert_eq!(e.at, Position::Line(2));
}

#[test]
fn truncated_jsonl_ends_cleanly_or_names_the_line() {
    let (text, _, events) = corpus();
    let mut rng = SplitMix64::new(SEED ^ 3);
    for _ in 0..200 {
        let cut = rng.gen_index(text.len());
        let case = format!("jcut@{cut}");
        match drain(EventSource::new(&text.as_bytes()[..cut], &case), events) {
            Ok(n) => assert!(n <= events, "{case}: {n} of {events} events"),
            Err(e) => assert!(matches!(e.at, Position::Line(_)), "{case}: {e}"),
        }
    }
}

#[test]
fn a_flood_of_distinct_strings_hits_the_intern_cap() {
    // One block defining 10k distinct strings (never referenced): the
    // decoder must refuse it by name rather than leak each one.
    let mut payload = Vec::new();
    for i in 0..10_000 {
        let s = format!("novel-string-{i}");
        payload.push(0xFE);
        payload.push(s.len() as u8);
        payload.extend_from_slice(s.as_bytes());
    }
    let mut bytes = b"BTF1".to_vec();
    bytes.extend_from_slice(&(bulksc_trace::SCHEMA_VERSION as u32).to_le_bytes());
    bytes.push(0xB0);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&payload);
    let e = drain(EventSource::new(bytes.as_slice(), "strings.btf"), 0).expect_err("cap");
    let msg = e.to_string();
    assert!(
        msg.starts_with("strings.btf: block 0: ") && msg.contains("novel-string-"),
        "{msg}"
    );
    assert!(msg.contains("intern table"), "{msg}");

    // The JSONL decoder shares the table and the error.
    let mut text = bulksc_trace::jsonl_header();
    for i in 0..300 {
        text.push_str(&format!(
            "\n{{\"t\":{i},\"ev\":\"net_deliver\",\"src\":\"core0\",\"dst\":\"dir0\",\"kind\":\"novel-kind-{i}\"}}"
        ));
    }
    let e = drain(EventSource::new(text.as_bytes(), "kinds.jsonl"), 300).expect_err("cap");
    assert!(e.to_string().contains("intern table"), "{e}");
}

/// A JSONL event line decoded through the `Json` tree, as `EventSource`
/// read it before the in-place decoder: the reference `Event::from_jsonl`
/// must match on every input, as the same event or the same error.
fn tree_decode(line: &str) -> Result<(u64, Event), String> {
    let obj = Json::parse(line).ok_or_else(|| "not valid JSON".to_string())?;
    event_from_json(&obj)
}

fn parse_endpoint_str(s: &str) -> Result<Endpoint, String> {
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

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_u32(obj: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(obj, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn field_endpoint(obj: &Json, key: &str) -> Result<Endpoint, String> {
    parse_endpoint_str(field_str(obj, key)?)
}

fn field_xray(obj: &Json) -> Result<Option<Box<ConflictAttr>>, String> {
    if obj.get("site").is_none() {
        return Ok(None);
    }
    let site = intern(field_str(obj, "site")?)?;
    let agg_core = match obj.get("agg_core") {
        Some(v) => Some(
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| "agg_core is not a u32".to_string())?,
        ),
        None => None,
    };
    let agg_seq = match obj.get("agg_seq") {
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| "agg_seq is not a u64".to_string())?,
        ),
        None => None,
    };
    let witnesses = obj
        .get("witness")
        .and_then(Json::as_arr)
        .ok_or_else(|| "xray blob lacks the witness array".to_string())?
        .iter()
        .map(|w| w.as_u64().ok_or_else(|| "witness is not a u64".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(Some(Box::new(ConflictAttr {
        agg_core,
        agg_seq,
        site,
        witnesses,
    })))
}

fn field_cause(obj: &Json) -> Result<SquashCause, String> {
    let label = field_str(obj, "cause")?;
    SquashCause::ALL
        .iter()
        .copied()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown squash cause {label:?}"))
}

/// The tree decoder of one parsed JSONL event object.
fn event_from_json(obj: &Json) -> Result<(u64, Event), String> {
    let t = field_u64(obj, "t")?;
    let name = field_str(obj, "ev")?;
    let ev = match name {
        "chunk_start" => Event::ChunkStart {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
        },
        "commit_request" => Event::CommitRequest {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
            w_lines: field_u32(obj, "w_lines")?,
            carries_rsig: obj
                .get("carries_rsig")
                .and_then(Json::as_bool)
                .ok_or_else(|| "missing or non-bool field \"carries_rsig\"".to_string())?,
        },
        "commit_grant" => Event::CommitGrant {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
        },
        "commit_deny" => Event::CommitDeny {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
            xray: field_xray(obj)?,
        },
        "chunk_commit" => Event::ChunkCommit {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
            read_lines: field_u32(obj, "read_lines")?,
            write_lines: field_u32(obj, "write_lines")?,
            priv_lines: field_u32(obj, "priv_lines")?,
        },
        "chunk_abandon" => Event::ChunkAbandon {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
        },
        "squash" => Event::Squash {
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
            cause: field_cause(obj)?,
            squashed_instrs: field_u64(obj, "squashed_instrs")?,
            xray: field_xray(obj)?,
        },
        "sig_expand" => Event::SigExpand {
            dir: field_u32(obj, "dir")?,
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
            lookups: field_u64(obj, "lookups")?,
            updates: field_u64(obj, "updates")?,
            inv_targets: field_u64(obj, "inv_targets")?,
        },
        "dir_displacement" => Event::DirDisplacement {
            dir: field_u32(obj, "dir")?,
            line: field_u64(obj, "line")?,
        },
        "cache_displacement" => Event::CacheDisplacement {
            core: field_u32(obj, "core")?,
            line: field_u64(obj, "line")?,
        },
        "priv_supply" => Event::PrivSupply {
            core: field_u32(obj, "core")?,
            line: field_u64(obj, "line")?,
        },
        "val_load" | "val_store" => {
            let core = field_u32(obj, "core")?;
            let seq = field_u64(obj, "seq")?;
            let po = field_u64(obj, "po")?;
            let addr = field_u64(obj, "addr")?;
            let value = field_u64(obj, "value")?;
            let retired_at = field_u64(obj, "retired_at")?;
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
            core: field_u32(obj, "core")?,
            seq: field_u64(obj, "seq")?,
            po: field_u64(obj, "po")?,
            addr: field_u64(obj, "addr")?,
            old: field_u64(obj, "old")?,
            new: field_u64(obj, "new")?,
            retired_at: field_u64(obj, "retired_at")?,
        },
        "net_send" => Event::NetSend {
            src: field_endpoint(obj, "src")?,
            dst: field_endpoint(obj, "dst")?,
            kind: intern(field_str(obj, "kind")?)?,
            bytes: field_u64(obj, "bytes")?,
        },
        "net_deliver" => Event::NetDeliver {
            src: field_endpoint(obj, "src")?,
            dst: field_endpoint(obj, "dst")?,
            kind: intern(field_str(obj, "kind")?)?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok((t, ev))
}

/// Every event kind, stamped with distinct cycles: the kinds that carry
/// conflict attribution with and without it (aggressor known and not),
/// and every endpoint kind.
fn every_event() -> Vec<(u64, Event)> {
    let attr = |site, agg: bool| {
        Some(Box::new(ConflictAttr {
            agg_core: agg.then_some(3),
            agg_seq: agg.then_some(41),
            site,
            witnesses: if agg { vec![0x100, 0x140] } else { Vec::new() },
        }))
    };
    let events = [
        Event::ChunkStart { core: 0, seq: 1 },
        Event::CommitRequest {
            core: 0,
            seq: 1,
            w_lines: 3,
            carries_rsig: true,
        },
        Event::CommitRequest {
            core: 1,
            seq: 2,
            w_lines: 0,
            carries_rsig: false,
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
            xray: attr("arb", true),
        },
        Event::CommitDeny {
            core: 1,
            seq: 9,
            xray: attr("garb-vote", false),
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
            cause: SquashCause::Alias,
            squashed_instrs: 412,
            xray: attr("wsig", true),
        },
        Event::Squash {
            core: 1,
            seq: 9,
            cause: SquashCause::TrueSharing,
            squashed_instrs: 412,
            xray: attr("displacement", true),
        },
        Event::Squash {
            core: 2,
            seq: 5,
            cause: SquashCause::Overflow,
            squashed_instrs: 10,
            xray: attr("overflow", false),
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
        Event::NetSend {
            src: Endpoint::garbiter(),
            dst: Endpoint::arbiter(7),
            kind: "ArbCheck",
            bytes: 8,
        },
        Event::NetDeliver {
            src: Endpoint::core(0),
            dst: Endpoint::dir(0),
            kind: "CommitReq",
        },
        Event::NetDeliver {
            src: Endpoint::dir(3),
            dst: Endpoint::garbiter(),
            kind: "ArbDone",
        },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, ev)| (100 + i as u64, ev))
        .collect()
}

#[test]
fn event_from_json_inverts_jsonl_rendering() {
    for (cycle, ev) in every_event() {
        let line = ev.jsonl(cycle);
        let decoded = Event::from_jsonl(&line);
        assert_eq!(decoded, Ok((cycle, ev)), "through {line}");
        assert_eq!(decoded, tree_decode(&line), "through {line}");
    }
}

#[test]
fn scanned_trace_lines_match_the_tree_parse() {
    let (text, _, _) = corpus();
    let mut lines: Vec<String> = text.lines().skip(1).map(String::from).collect();
    for kind in ["val_load", "val_store", "commit_deny"] {
        let quoted = format!("\"{kind}\"");
        assert!(
            lines.iter().any(|l| l.contains(&quoted)),
            "corpus has no {kind}"
        );
    }
    lines.extend(every_event().iter().map(|(t, ev)| ev.jsonl(*t)));

    // Each line as is, cut at seeded points, with seeded byte flips to
    // JSON-significant bytes, and with trailing garbage.
    let flips = b"\"\\{}[]:,-.eE019 tnux";
    let mut rng = SplitMix64::new(SEED ^ 4);
    let mut inputs = Vec::new();
    for line in &lines {
        inputs.push(line.clone());
        for _ in 0..2 {
            inputs.push(line[..rng.gen_index(line.len() + 1)].to_string());
            let mut bytes = line.clone().into_bytes();
            bytes[rng.gen_index(line.len())] = flips[rng.gen_index(flips.len())];
            inputs.push(String::from_utf8(bytes).expect("the corpus is ASCII"));
        }
        for garbage in [" x", "}", ",", "{}"] {
            inputs.push(format!("{line}{garbage}"));
        }
    }
    let load = "\"ev\":\"val_load\",\"core\":1,\"seq\":2,\"po\":3,\"addr\":64,\"value\":7,\"retired_at\":4";
    inputs.extend(
        [
            // Whitespace everywhere JSON allows it.
            " {  \"t\" : 5 ,\t\"ev\" : \"val_load\" , \"core\":1 ,\"seq\":2,\"po\":3,\"addr\":64,\"value\":7,\"retired_at\":4 }  ",
            // Keys in another order.
            "{\"value\":7,\"addr\":64,\"retired_at\":4,\"ev\":\"val_store\",\"po\":3,\"seq\":2,\"t\":5,\"core\":1}",
            // Duplicated keys: the first one wins.
            "{\"t\":1,\"t\":2,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
            "{\"t\":\"x\",\"t\":2,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
            "{\"t\":1,\"ev\":\"chunk_start\",\"ev\":\"val_load\",\"core\":0,\"seq\":0}",
            // Escapes in values and keys.
            "{\"t\":1,\"ev\":\"val\\u005fload\",\"core\":1,\"seq\":2,\"po\":3,\"addr\":64,\"value\":7,\"retired_at\":4}",
            "{\"t\":1,\"ev\":\"val\\u005fload\",\"core\":1}",
            "{\"\\u0074\":1,\"ev\":\"chunk\\u005fstart\",\"core\":0,\"seq\":0}",
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":\"true\\u002dsharing\"}",
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":\"alias\\n\"}",
            // Numbers at the edge of `as_u64`.
            "{\"t\":-0,\"ev\":\"chunk_start\",\"core\":-0,\"seq\":-00}",
            "{\"t\":1.0,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
            "{\"t\":1e0,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
            "{\"t\":18446744073709551616,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
            "{\"t\":18446744073709551615,\"ev\":\"chunk_start\",\"core\":0,\"seq\":-1}",
            "{\"t\":-9223372036854775809,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0}",
            "{\"t\":1,\"ev\":\"chunk_start\",\"core\":4294967296,\"seq\":0}",
            // Endpoints: every kind, a bare or malformed index, escapes.
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"garb\",\"dst\":\"arb3\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_send\",\"src\":\"dir2\",\"dst\":\"core\\u0033\",\"kind\":\"Data\",\"bytes\":72}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"core\",\"dst\":\"dir0\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"corex\",\"dst\":\"dir0\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"garb0\",\"dst\":\"dir0\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"core+3\",\"dst\":\"arb-1\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"dir4294967296\",\"dst\":\"dir0\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":1,\"dst\":\"dir0\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"core0\",\"kind\":\"Data\"}",
            "{\"t\":1,\"ev\":\"net_deliver\",\"src\":\"core0\",\"dst\":\"dir0\",\"kind\":5}",
            "{\"t\":1,\"ev\":\"net_send\",\"src\":\"core0\",\"dst\":\"dir0\",\"kind\":\"Data\",\"bytes\":-2}",
            // carries_rsig: booleans only, first occurrence.
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":2,\"carries_rsig\":false}",
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":2,\"carries_rsig\":\"true\"}",
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":2,\"carries_rsig\":1}",
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":2,\"carries_rsig\":null}",
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":2}",
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":2,\"carries_rsig\":true,\"carries_rsig\":false}",
            "{\"t\":1,\"ev\":\"commit_request\",\"core\":0,\"seq\":1,\"w_lines\":4294967296,\"carries_rsig\":true}",
            // Squash causes and xray blobs: witness arrays, aggressors.
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":\"gremlins\",\"squashed_instrs\":1}",
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":5,\"squashed_instrs\":1}",
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"squashed_instrs\":1}",
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":\"alias\",\"squashed_instrs\":1,\"site\":\"wsig\",\"witness\":[]}",
            "{\"t\":1,\"ev\":\"squash\",\"core\":0,\"seq\":0,\"cause\":\"alias\",\"squashed_instrs\":1,\"site\":\"wsig\",\"witness\":[ 1 , -0,18446744073709551615]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":[1,\"x\"]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":[1.0]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":[[1]]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":\"x\"}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":null}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\"}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"witness\":[1]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":5,\"witness\":[]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":null,\"witness\":[]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":[2],\"witness\":[\"x\"]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"agg_core\":4294967296,\"site\":\"arb\",\"witness\":[]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"agg_core\":-1,\"site\":\"arb\",\"witness\":[]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"agg_core\":\"3\",\"site\":\"arb\",\"witness\":[]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"agg_seq\":1.5,\"site\":\"arb\",\"witness\":[]}",
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"agg_seq\":null,\"site\":\"arb\",\"witness\":[]}",
            "{\"t\":1,\"ev\":\"chunk_start\",\"core\":0,\"seq\":0,\"site\":\"arb\",\"witness\":\"x\"}",
            // Nested arrays and objects, and other value kinds.
            "{\"t\":1,\"ev\":\"commit_deny\",\"core\":0,\"seq\":0,\"witness\":[1,[2,{\"a\":null}]],\"x\":{\"y\":[]}}",
            "{\"t\":1,\"ev\":[\"val_load\"],\"core\":0,\"seq\":0}",
            "{\"t\":1,\"ev\":null,\"core\":true,\"seq\":false}",
            "{\"t\":true}",
            "{}",
            // Lines that are not objects.
            "[1,2]",
            "null",
            "5",
            "\"val_load\"",
            "",
            "   ",
            "not json",
        ]
        .map(String::from),
    );
    inputs.push(format!("{{\"t\":1,{load}}}"));
    inputs.push(format!(
        "{{\"t\":1,{load},\"deep\":{}{}}}",
        "[".repeat(63),
        "]".repeat(63)
    ));
    inputs.push(format!(
        "{{\"t\":1,{load},\"deep\":{}{}}}",
        "[".repeat(64),
        "]".repeat(64)
    ));
    for input in &inputs {
        assert_eq!(Event::from_jsonl(input), tree_decode(input), "{input:?}");
    }
}
