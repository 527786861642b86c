//! Differential tests of the signature unit's fast paths against plain
//! reference models.
//!
//! * The table-driven bank index of [`Signature`] must equal the 26-step
//!   wire loop it replaced — the loop and the permutation it walks are
//!   rebuilt here from their definition — on 100,000 seeded lines for
//!   every signature geometry the repository builds.
//! * The signature's δ decode, which walks bank 0's set bits, must list
//!   the same cache sets as marking every candidate set and scanning.
//! * [`ExactSet`], a sorted vector, must behave exactly as a `BTreeSet`
//!   under seeded inserts, removes, unions, intersections and δ decodes.

use std::collections::BTreeSet;

use bulksc_sig::{ExactSet, LineAddr, Signature, SignatureConfig};
use bulksc_stats::SplitMix64;

/// Address bits the permutation wires (higher bits are XOR-folded in).
const PERMUTE_BITS: u32 = 26;

/// The wire permutation of `bank`: a Fisher–Yates shuffle of the low
/// [`PERMUTE_BITS`] positions driven by xorshift64 from the seed.
fn permutation(seed: u64, bank: u32) -> [u8; PERMUTE_BITS as usize] {
    let mut positions = [0u8; PERMUTE_BITS as usize];
    for (i, p) in positions.iter_mut().enumerate() {
        *p = i as u8;
    }
    let mut state = seed ^ (bank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..PERMUTE_BITS as usize).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        positions.swap(i, j);
    }
    positions
}

/// The reference bit selection of one geometry.
struct Reference {
    cfg: SignatureConfig,
    /// Banks `1..`: each one's wire permutation.
    perms: Vec<[u8; PERMUTE_BITS as usize]>,
}

impl Reference {
    fn new(cfg: &SignatureConfig) -> Reference {
        Reference {
            cfg: cfg.clone(),
            perms: (1..cfg.banks)
                .map(|bank| permutation(cfg.permute_seed, bank))
                .collect(),
        }
    }

    /// Bank 0 takes the low line bits; every other bank routes the
    /// folded line through its permutation one bit at a time.
    fn index(&self, bank: u32, line: LineAddr) -> u32 {
        let mask = (1u32 << self.cfg.bank_index_bits) - 1;
        if bank == 0 {
            return (line.0 as u32) & mask;
        }
        let folded = line.0 ^ (line.0 >> PERMUTE_BITS);
        let mut out = 0u64;
        for (src, &dst) in self.perms[bank as usize - 1].iter().enumerate() {
            out |= ((folded >> src) & 1) << dst;
        }
        (out as u32) & mask
    }

    /// δ: mark every cache set a set bank-0 bit can map to, then list
    /// the marked sets.
    fn decode(&self, lines: &[LineAddr], num_sets: u32) -> Vec<u32> {
        let bank_bits = self.cfg.bank_bits();
        let mut bank0 = vec![false; bank_bits as usize];
        for &l in lines {
            bank0[self.index(0, l) as usize] = true;
        }
        let mut out = vec![false; num_sets as usize];
        for idx in (0..bank_bits).filter(|&i| bank0[i as usize]) {
            let mut s = idx % num_sets;
            while s < num_sets {
                out[s as usize] = true;
                s += bank_bits;
            }
        }
        (0..num_sets).filter(|&s| out[s as usize]).collect()
    }
}

/// Every geometry the repository builds: the default and the signature
/// sweep's `with_total_bits` sizes, each under both emptiness rules.
fn geometries() -> Vec<SignatureConfig> {
    let mut sizes = vec![SignatureConfig::default()];
    sizes.extend([256, 512, 1024, 2048, 4096].map(SignatureConfig::with_total_bits));
    sizes
        .into_iter()
        .flat_map(|cfg| {
            [true, false].map(|banked_empty| SignatureConfig {
                banked_empty,
                ..cfg.clone()
            })
        })
        .collect()
}

/// A seeded line: full 64-bit values exercise the fold, small ones the
/// address range the simulator actually uses.
fn line(rng: &mut SplitMix64) -> LineAddr {
    match rng.gen_range(0..3) {
        0 => LineAddr(rng.next_u64()),
        1 => LineAddr(rng.gen_range(0..1 << 30)),
        _ => LineAddr(rng.gen_range(0..1 << 12)),
    }
}

#[test]
fn table_driven_bank_index_equals_the_wire_loop() {
    for (g, cfg) in geometries().into_iter().enumerate() {
        let (sig, reference) = (Signature::new(&cfg), Reference::new(&cfg));
        let mut rng = SplitMix64::new(0xb10c + g as u64);
        for _ in 0..100_000 {
            let l = line(&mut rng);
            for bank in 0..cfg.banks {
                assert_eq!(
                    sig.bank_index(bank, l),
                    reference.index(bank, l),
                    "{cfg:?}: bank {bank}, line {:#x}",
                    l.0
                );
            }
        }
    }
}

#[test]
fn membership_follows_the_reference_bits() {
    // A one-line signature contains another line exactly when the
    // reference puts both on the same bit in every bank.
    for (g, cfg) in geometries().into_iter().enumerate() {
        let reference = Reference::new(&cfg);
        let mut rng = SplitMix64::new(0x5e7 + g as u64);
        for _ in 0..2_000 {
            let a = line(&mut rng);
            // Same bank-0 bit, so the permuted banks decide.
            let b = LineAddr(a.0 ^ (rng.gen_range(1..1 << 16) << cfg.bank_index_bits));
            let same =
                (0..cfg.banks).all(|bank| reference.index(bank, a) == reference.index(bank, b));
            let sig = Signature::from_lines(&cfg, [a]);
            assert!(sig.contains(a));
            assert_eq!(sig.contains(b), same, "{cfg:?}: {:#x} vs {:#x}", a.0, b.0);
        }
    }
}

#[test]
fn decode_sets_equals_the_marking_reference() {
    for (g, cfg) in geometries().into_iter().enumerate() {
        let reference = Reference::new(&cfg);
        let mut rng = SplitMix64::new(0xde1 + g as u64);
        for case in 0..60 {
            let n = rng.gen_range(0..40);
            let lines: Vec<LineAddr> = (0..n).map(|_| line(&mut rng)).collect();
            let sig = Signature::from_lines(&cfg, lines.iter().copied());
            for num_sets in (0..16).map(|k| 1u32 << k) {
                assert_eq!(
                    sig.decode_sets(num_sets),
                    reference.decode(&lines, num_sets),
                    "{cfg:?}: case {case}, {num_sets} sets"
                );
            }
        }
    }
}

/// One random set of lines drawn from a small range, so sets overlap.
fn random_lines(rng: &mut SplitMix64, n: u64) -> Vec<LineAddr> {
    let len = rng.gen_range(0..n);
    (0..len).map(|_| LineAddr(rng.gen_range(0..96))).collect()
}

fn assert_same(s: &ExactSet, model: &BTreeSet<LineAddr>, ctx: &str) {
    assert!(
        s.iter().eq(model.iter().copied()),
        "{ctx}: members or order"
    );
    assert_eq!(s.len(), model.len(), "{ctx}: len");
    assert_eq!(s.is_empty(), model.is_empty(), "{ctx}: is_empty");
}

#[test]
fn exact_set_matches_a_btreeset_model() {
    for case in 0..300u64 {
        let mut rng = SplitMix64::new(case);
        let mut s = ExactSet::new();
        let mut model = BTreeSet::new();
        for step in 0..200 {
            let ctx = format!("case {case}, step {step}");
            match rng.gen_range(0..9) {
                0..=2 => {
                    let l = LineAddr(rng.gen_range(0..96));
                    s.insert(l);
                    model.insert(l);
                }
                3 => {
                    let l = LineAddr(rng.gen_range(0..96));
                    assert_eq!(s.remove(l), model.remove(&l), "{ctx}: remove {l:?}");
                }
                4 => {
                    let other = random_lines(&mut rng, 24);
                    let o: ExactSet = other.iter().copied().collect();
                    let om: BTreeSet<LineAddr> = other.iter().copied().collect();
                    assert_same(&o, &om, &format!("{ctx}: collect"));
                    s.union_with(&o);
                    model.extend(om);
                }
                5 => {
                    let other = random_lines(&mut rng, 24);
                    let o: ExactSet = other.iter().copied().collect();
                    let om: BTreeSet<LineAddr> = other.iter().copied().collect();
                    let want: BTreeSet<LineAddr> = model.intersection(&om).copied().collect();
                    assert_same(&s.intersect(&o), &want, &format!("{ctx}: intersect"));
                    assert_same(&o.intersect(&s), &want, &format!("{ctx}: intersect'"));
                    assert_eq!(s.intersects(&o), !want.is_empty(), "{ctx}: intersects");
                    assert_eq!(o.intersects(&s), !want.is_empty(), "{ctx}: intersects'");
                }
                6 => {
                    let more = random_lines(&mut rng, 8);
                    s.extend(more.iter().copied());
                    model.extend(more);
                }
                7 => {
                    let sets = 1u32 << rng.gen_range(0..8);
                    let want: Vec<u32> = model
                        .iter()
                        .map(|l| (l.0 % sets as u64) as u32)
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    assert_eq!(s.decode_sets(sets), want, "{ctx}: decode_sets({sets})");
                }
                _ => {
                    if rng.gen_range(0..10) == 0 {
                        s.clear();
                        model.clear();
                    }
                }
            }
            let probe = LineAddr(rng.gen_range(0..96));
            assert_eq!(s.contains(probe), model.contains(&probe), "{ctx}: contains");
            assert_same(&s, &model, &ctx);
        }
    }
}
