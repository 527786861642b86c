//! Seeded corruption fuzz for the trace readers: every damaged input must
//! end in a named error or a clean end of stream — never a panic, a hang,
//! or a runaway allocation.
//!
//! The corpus is a short xray capture (net messages with string-table
//! records, attribution blobs, squashes), re-encoded into small BTF
//! blocks so corruption lands in many blocks and in the footer index.
//! Each case is read through `EventSource` both sequentially (the pipe
//! path) and through the block index (the `query` path); JSONL cases
//! damage the text form the same way.

use std::io::Cursor;

use bulksc_bench::xray;
use bulksc_stats::SplitMix64;
use bulksc_trace::source::Position;
use bulksc_trace::{BtfWriter, Event, EventSource, IndexedBtf, SourceError};

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
