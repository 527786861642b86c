//! Scale test: the oracle must certify a million-access trace in well
//! under ten seconds (scaled by `BULKSC_SLOW_HOST` — see below). The
//! trace is synthesized directly (no simulator) as a legal sequential
//! interleaving, so the cost measured here is pure checker: edge
//! construction, topological sort, and witness replay.

use std::time::Instant;

use bulksc_check::{check, check_stream, Access, AccessKind, StreamConfig};

/// Synthesize a legal interleaving: accesses happen in `idx` order
/// against one atomic memory, so the trace is SC by construction.
/// Stores publish unique values, so no read is ambiguous and every
/// rf/fr edge is present — the checker's worst (densest) case.
fn synth(n: usize) -> Vec<Access> {
    const CORES: u32 = 8;
    const WORDS: u64 = 64;
    let mut mem = [0u64; WORDS as usize];
    let mut po = [0u64; CORES as usize];
    let mut accesses = Vec::with_capacity(n);
    for i in 0..n {
        let core = (i % CORES as usize) as u32;
        let addr = (i as u64).wrapping_mul(0x9e37_79b9) % WORDS;
        let kind = match i % 5 {
            0 | 1 => {
                let value = i as u64 + 1; // unique, nonzero
                mem[addr as usize] = value;
                AccessKind::Store { value }
            }
            4 if i % 35 == 4 => {
                let old = mem[addr as usize];
                let new = i as u64 + 1;
                mem[addr as usize] = new;
                AccessKind::Rmw { old, new }
            }
            _ => AccessKind::Load {
                value: mem[addr as usize],
            },
        };
        accesses.push(Access {
            idx: i,
            core,
            seq: (i / 1000) as u64,
            po: po[core as usize],
            addr,
            kind,
            retired_at: i as u64,
            emitted_at: i as u64,
        });
        po[core as usize] += 1;
    }
    accesses
}

/// The wall-clock budget, scaled for the host. The 10 s release figure
/// is the contract on a normal development machine; debug builds get 6×,
/// and `BULKSC_SLOW_HOST` multiplies further (a number scales by that
/// factor; any other non-empty value applies a 6× safety factor) so
/// throttled CI runners don't fail the suite on speed alone.
fn budget_secs() -> f64 {
    let base = if cfg!(debug_assertions) { 60.0 } else { 10.0 };
    match std::env::var("BULKSC_SLOW_HOST") {
        Ok(v) if v.trim().is_empty() => base,
        Ok(v) => {
            base * v
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|&x| x > 0.0)
                .unwrap_or(6.0)
        }
        Err(_) => base,
    }
}

#[test]
fn a_million_access_trace_certifies_in_under_ten_seconds() {
    const N: usize = 1_000_000;
    let accesses = synth(N);

    let t0 = Instant::now();
    let cert = check(&accesses, &[]).expect("a sequential interleaving certifies");
    let elapsed = t0.elapsed();

    assert_eq!(cert.accesses, N);
    assert_eq!(cert.ambiguous_reads, 0, "unique store values pin every rf");
    assert_eq!(cert.witness.as_ref().map(Vec::len), Some(N));
    let budget = budget_secs();
    assert!(
        elapsed.as_secs_f64() < budget,
        "checking {N} accesses took {elapsed:?} (budget {budget} s)"
    );
    println!("checked {N} accesses in {elapsed:?} ({} edges)", cert.edges);
}

#[test]
fn a_million_access_trace_streams_in_bounded_memory() {
    const N: usize = 1_000_000;
    const WINDOW: usize = 1 << 16;
    let accesses = synth(N);

    let t0 = Instant::now();
    let cert = check_stream(&accesses, &[], StreamConfig::windowed(WINDOW))
        .expect("the same interleaving certifies through the window");
    let elapsed = t0.elapsed();

    assert_eq!(cert.accesses, N);
    assert_eq!(cert.ambiguous_reads, 0);
    assert!(
        cert.peak_live <= 2 * WINDOW,
        "frontier must stay within two windows, got {}",
        cert.peak_live
    );
    assert!(cert.windows >= (N / WINDOW) as u64);
    let budget = budget_secs();
    assert!(
        elapsed.as_secs_f64() < budget,
        "streaming {N} accesses took {elapsed:?} (budget {budget} s)"
    );
    println!(
        "streamed {N} accesses in {elapsed:?} (peak {} live, {} windows)",
        cert.peak_live, cert.windows
    );
}
