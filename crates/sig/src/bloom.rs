//! The Bloom-filter signature of the Bulk architecture (Figure 2 of the
//! paper).
//!
//! A [`Signature`] is a bit array divided into `banks` banks of
//! `2^bank_index_bits` bits each. Inserting a line address sets one bit in
//! every bank; the bit within bank `i` is selected by a per-bank "permute"
//! hash of the address. Bank 0 is special: it is indexed by the *low bits of
//! the line address directly* (no permutation). In the hardware this is what
//! allows the decode (δ) operation to recover the set of cache sets that may
//! hold lines of the signature without traversing the cache — the cache set
//! index is a slice of those same low address bits.
//!
//! Banks `1..` use hardware-style *bit permutations* of the line address
//! (Figure 2(a) of the paper): the low address bits are rearranged by a
//! fixed per-bank wire permutation and the low slice of the result indexes
//! the bank. This matters for fidelity — bit permutations alias heavily on
//! strided access patterns (every address in a stride shares the bits the
//! permutation happens to select), which is precisely the behaviour behind
//! the paper's radix results. A thoroughly-mixing hash would hide it.
//!
//! A permutation is a wiring, so the simulator evaluates it the way a
//! lookup table would: each byte of the folded address selects, from a
//! 256-entry table, the output bits its eight wires drive, and four
//! lookups OR together into the bank index. The tables depend only on
//! the permute seed and the bank count, so they are built once per
//! process and shared by every signature of that geometry.

use std::sync::{Arc, Mutex};

use crate::addr::LineAddr;

/// Address bits that participate in the permutation (2^26 lines = 2 GiB of
/// address space at 32 B lines; higher bits are XOR-folded in).
const PERMUTE_BITS: u32 = 26;

/// Geometry of a Bloom signature.
///
/// The default matches the paper: 2 Kbit total (`4` banks × `512` bits).
///
/// # Example
///
/// ```
/// use bulksc_sig::SignatureConfig;
/// let cfg = SignatureConfig::default();
/// assert_eq!(cfg.total_bits(), 2048);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignatureConfig {
    /// Number of Bloom banks (hash functions).
    pub banks: u32,
    /// log2 of the number of bits per bank.
    pub bank_index_bits: u32,
    /// Seed for the per-bank permutation hashes. Two signatures can only be
    /// intersected if they share a seed (and the rest of the geometry).
    pub permute_seed: u64,
    /// Emptiness test granularity. `true` (the default) uses the per-bank
    /// rule — an encoded member needs one bit in every bank, so an
    /// intersection counts only if every bank overlaps. This matches the
    /// false-positive rates the paper reports (≈1–2% aliasing squashes for
    /// most applications). `false` is the cruder any-surviving-bit rule,
    /// kept for the signature-design ablation.
    pub banked_empty: bool,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            banks: 4,
            bank_index_bits: 9, // 512 bits per bank; 4 * 512 = 2048 = 2 Kbit
            permute_seed: 0x9e37_79b9_7f4a_7c15,
            banked_empty: true,
        }
    }
}

impl SignatureConfig {
    /// A configuration with the given total size in bits, keeping 4 banks.
    ///
    /// # Panics
    ///
    /// Panics if `total_bits` is not `4 * 2^k` for some `k >= 6`.
    pub fn with_total_bits(total_bits: u32) -> Self {
        assert!(
            total_bits.is_multiple_of(4) && (total_bits / 4).is_power_of_two() && total_bits >= 256,
            "total_bits must be 4 * 2^k with k >= 6, got {total_bits}"
        );
        SignatureConfig {
            banks: 4,
            bank_index_bits: (total_bits / 4).trailing_zeros(),
            ..SignatureConfig::default()
        }
    }

    /// Bits in one bank.
    pub fn bank_bits(&self) -> u32 {
        1 << self.bank_index_bits
    }

    /// Total bits in the signature.
    pub fn total_bits(&self) -> u32 {
        self.banks * self.bank_bits()
    }

    /// Words of backing storage required.
    fn words(&self) -> usize {
        (self.total_bits() as usize).div_ceil(64)
    }
}

/// Byte tables of the permuted banks of one (permute seed, bank count)
/// geometry: `bytes[bank - 1][k][b]` holds the output bits that byte value
/// `b` in byte `k` of the folded address drives (input bits from
/// [`PERMUTE_BITS`] on are not wired, so byte 3 uses only its two low
/// bits).
#[derive(Debug)]
struct PermTables {
    seed: u64,
    banks: u32,
    bytes: Vec<[[u32; 256]; 4]>,
}

impl PermTables {
    fn build(seed: u64, banks: u32) -> PermTables {
        let bytes = (1..banks)
            .map(|bank| {
                let perm = make_permutation(seed, bank);
                let mut table = [[0u32; 256]; 4];
                for (k, row) in table.iter_mut().enumerate() {
                    for (b, out) in row.iter_mut().enumerate() {
                        for bit in 0..8 {
                            let src = 8 * k + bit;
                            if src < PERMUTE_BITS as usize && b >> bit & 1 == 1 {
                                *out |= 1 << perm[src];
                            }
                        }
                    }
                }
                table
            })
            .collect();
        PermTables { seed, banks, bytes }
    }

    /// The tables of `(seed, banks)`, built on first use and shared from
    /// then on.
    fn shared(seed: u64, banks: u32) -> Arc<PermTables> {
        static BUILT: Mutex<Vec<Arc<PermTables>>> = Mutex::new(Vec::new());
        // The only update is a push of finished tables, so a lock poisoned
        // by a panic elsewhere still guards a valid list.
        let mut built = BUILT.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = built.iter().find(|t| t.seed == seed && t.banks == banks) {
            return Arc::clone(t);
        }
        let t = Arc::new(PermTables::build(seed, banks));
        built.push(Arc::clone(&t));
        t
    }
}

/// Build the fixed bit permutation of bank `bank`: a pseudorandom
/// rearrangement (Fisher–Yates over a xorshift stream) of the low
/// [`PERMUTE_BITS`] bit positions. This models the hardware permute network
/// of Figure 2(a): cheap, deterministic, and — deliberately — weak against
/// strided address patterns.
fn make_permutation(seed: u64, bank: u32) -> [u8; PERMUTE_BITS as usize] {
    let mut positions: [u8; PERMUTE_BITS as usize] = [0; PERMUTE_BITS as usize];
    for (i, p) in positions.iter_mut().enumerate() {
        *p = i as u8;
    }
    let mut state = seed ^ (bank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..PERMUTE_BITS as usize).rev() {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        positions.swap(i, j);
    }
    positions
}

/// A Bloom-filter signature over cache-line addresses.
///
/// See the [crate docs](crate) and [`SignatureConfig`] for the encoding.
/// All binary operations require both operands to share the same
/// configuration; mismatches panic (they would be distinct wire formats in
/// hardware).
#[derive(Clone)]
pub struct Signature {
    banks: u32,
    bank_index_bits: u32,
    permute_seed: u64,
    banked_empty: bool,
    /// The byte tables of banks `1..banks`, shared by every signature of
    /// this seed and bank count.
    perms: Arc<PermTables>,
    bits: Vec<u64>,
}

/// Equal geometry and equal bits (the tables follow from the geometry).
impl PartialEq for Signature {
    fn eq(&self, other: &Signature) -> bool {
        self.config() == other.config() && self.bits == other.bits
    }
}

impl Eq for Signature {}

impl Signature {
    /// An empty signature with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has banks smaller than 64 bits.
    pub fn new(cfg: &SignatureConfig) -> Self {
        assert!(cfg.bank_index_bits >= 6, "banks must be at least 64 bits");
        Signature {
            banks: cfg.banks,
            bank_index_bits: cfg.bank_index_bits,
            permute_seed: cfg.permute_seed,
            banked_empty: cfg.banked_empty,
            perms: PermTables::shared(cfg.permute_seed, cfg.banks),
            bits: vec![0; cfg.words()],
        }
    }

    /// A signature containing exactly the given addresses.
    pub fn from_lines<I: IntoIterator<Item = LineAddr>>(cfg: &SignatureConfig, lines: I) -> Self {
        let mut s = Signature::new(cfg);
        for l in lines {
            s.insert(l);
        }
        s
    }

    /// The geometry this signature was built with.
    pub fn config(&self) -> SignatureConfig {
        SignatureConfig {
            banks: self.banks,
            bank_index_bits: self.bank_index_bits,
            permute_seed: self.permute_seed,
            banked_empty: self.banked_empty,
        }
    }

    fn assert_compatible(&self, other: &Signature) {
        assert!(
            self.banks == other.banks
                && self.bank_index_bits == other.bank_index_bits
                && self.permute_seed == other.permute_seed,
            "signature geometry mismatch"
        );
    }

    /// The bit `line` selects in `bank` (its index within that bank).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is not below the bank count.
    pub fn bank_index(&self, bank: u32, line: LineAddr) -> u32 {
        let mask = (1u32 << self.bank_index_bits) - 1;
        if bank == 0 {
            // Bank 0 is indexed by the low line-address bits directly so
            // that δ (decode into cache sets) is possible.
            (line.0 as u32) & mask
        } else {
            // XOR-fold the address into the permuted window, then route
            // each byte of it through the bank's wiring and take the low
            // slice.
            let folded = line.0 ^ (line.0 >> PERMUTE_BITS);
            let t = &self.perms.bytes[(bank - 1) as usize];
            let out = t[0][folded as u8 as usize]
                | t[1][(folded >> 8) as u8 as usize]
                | t[2][(folded >> 16) as u8 as usize]
                | t[3][(folded >> 24) as u8 as usize];
            out & mask
        }
    }

    fn bit_position(&self, bank: u32, line: LineAddr) -> usize {
        let within = self.bank_index(bank, line);
        (bank << self.bank_index_bits | within) as usize
    }

    /// Set a bit by absolute position.
    fn set_bit(&mut self, pos: usize) {
        self.bits[pos / 64] |= 1u64 << (pos % 64);
    }

    fn get_bit(&self, pos: usize) -> bool {
        self.bits[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Accumulate a line address into the signature.
    pub fn insert(&mut self, line: LineAddr) {
        for bank in 0..self.banks {
            let pos = self.bit_position(bank, line);
            self.set_bit(pos);
        }
    }

    /// Membership test (`∈` of Figure 2(b)). May return false positives,
    /// never false negatives.
    pub fn contains(&self, line: LineAddr) -> bool {
        (0..self.banks).all(|bank| self.get_bit(self.bit_position(bank, line)))
    }

    /// Emptiness test (`= ∅` of Figure 2(b)).
    ///
    /// With the default (paper-faithful) unbanked rule, a signature is
    /// non-empty as soon as any bit is set. With `banked_empty`, the
    /// encoded set is empty as soon as any single bank is all zeroes
    /// (every inserted address sets one bit per bank), which makes
    /// intersections far more precise.
    pub fn is_empty(&self) -> bool {
        if self.banked_empty {
            self.bank_words().any(|bank| bank.iter().all(|&w| w == 0))
        } else {
            self.bits.iter().all(|&w| w == 0)
        }
    }

    /// Iterate over the backing words of each bank.
    fn bank_words(&self) -> impl Iterator<Item = &[u64]> {
        let words_per_bank = (self.config().bank_bits() as usize) / 64;
        self.bits.chunks(words_per_bank)
    }

    /// Remove every address (reused when a chunk commits or squashes).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// In-place union (`∪` of Figure 2(b)): bit-wise OR.
    pub fn union_with(&mut self, other: &Signature) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::SigOps);
        self.assert_compatible(other);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Intersection (`∩` of Figure 2(b)): bit-wise AND, returning a new
    /// signature.
    pub fn intersect(&self, other: &Signature) -> Signature {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::SigOps);
        self.assert_compatible(other);
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
        out
    }

    /// `!(self ∩ other).is_empty()`, without materializing the intersection.
    ///
    /// This is the bulk-disambiguation primitive: a committing chunk's W
    /// signature is tested against a running chunk's R and W signatures.
    /// The emptiness rule of [`Signature::is_empty`] applies: the default
    /// hardware declares a collision on any surviving bit.
    pub fn intersects(&self, other: &Signature) -> bool {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::SigOps);
        self.assert_compatible(other);
        if self.banked_empty {
            self.bank_words()
                .zip(other.bank_words())
                .all(|(a, b)| a.iter().zip(b).any(|(x, y)| x & y != 0))
        } else {
            self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
        }
    }

    /// Decode (`δ` of Figure 2(b)): the cache-set indices that may contain
    /// lines encoded in this signature, for a cache with `num_sets` sets.
    ///
    /// Bank 0 is indexed by the low line-address bits, and a cache set index
    /// is `line % num_sets`, so every line in the signature has its bank-0
    /// bit at a position congruent to its set index. The decode is exact when
    /// `num_sets` divides the bank size and conservative otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero or not a power of two.
    pub fn decode_sets(&self, num_sets: u32) -> Vec<u32> {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::SigOps);
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two"
        );
        let bank_bits = 1u32 << self.bank_index_bits;
        let bank0 = &self.bits[..bank_bits as usize / 64];
        if num_sets >= bank_bits {
            // Coarser signature than cache: each set whose low bits match a
            // set bank-0 bit is a candidate, block by block in set order.
            (0..num_sets / bank_bits)
                .flat_map(|block| ones(bank0).map(move |idx| block * bank_bits + idx))
                .collect()
        } else {
            // Fold bank 0 onto the sets.
            let mut sets = vec![0u64; (num_sets as usize).div_ceil(64)];
            for idx in ones(bank0) {
                let set = (idx % num_sets) as usize;
                sets[set / 64] |= 1 << (set % 64);
            }
            ones(&sets).collect()
        }
    }

    /// Number of set bits (used by the wire-size model and by tests).
    pub fn popcount(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of set bits in bank 0 (a lower bound on distinct set indices
    /// touched; drives the compressed wire-size model).
    pub fn bank0_popcount(&self) -> u32 {
        let words = (self.config().bank_bits() as usize).div_ceil(64);
        self.bits[..words].iter().map(|w| w.count_ones()).sum()
    }
}

/// The positions of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                i as u32 * 64 + bit
            })
        })
    })
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signature")
            .field("banks", &self.banks)
            .field("bank_bits", &(1u32 << self.bank_index_bits))
            .field("popcount", &self.popcount())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SignatureConfig {
        SignatureConfig::default()
    }

    #[test]
    fn default_geometry_is_2kbit() {
        assert_eq!(cfg().total_bits(), 2048);
        assert_eq!(cfg().bank_bits(), 512);
    }

    #[test]
    fn with_total_bits_builds_requested_size() {
        assert_eq!(SignatureConfig::with_total_bits(1024).total_bits(), 1024);
        assert_eq!(SignatureConfig::with_total_bits(4096).total_bits(), 4096);
    }

    #[test]
    #[should_panic(expected = "total_bits")]
    fn with_total_bits_rejects_odd_sizes() {
        SignatureConfig::with_total_bits(1000);
    }

    #[test]
    fn no_false_negatives() {
        let mut s = Signature::new(&cfg());
        for i in 0..200 {
            s.insert(LineAddr(i * 37));
        }
        for i in 0..200 {
            assert!(s.contains(LineAddr(i * 37)));
        }
    }

    #[test]
    fn empty_contains_nothing() {
        let s = Signature::new(&cfg());
        assert!(s.is_empty());
        assert!(!s.contains(LineAddr(42)));
    }

    #[test]
    fn clear_empties() {
        let mut s = Signature::new(&cfg());
        s.insert(LineAddr(1));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.popcount(), 0);
    }

    #[test]
    fn union_is_superset_of_both() {
        let mut a = Signature::from_lines(&cfg(), [LineAddr(1), LineAddr(2)]);
        let b = Signature::from_lines(&cfg(), [LineAddr(3)]);
        a.union_with(&b);
        for l in [1, 2, 3] {
            assert!(a.contains(LineAddr(l)));
        }
    }

    #[test]
    fn intersect_detects_shared_line() {
        let a = Signature::from_lines(&cfg(), [LineAddr(10), LineAddr(11)]);
        let b = Signature::from_lines(&cfg(), [LineAddr(11), LineAddr(12)]);
        assert!(a.intersects(&b));
        assert!(!a.intersect(&b).is_empty());
    }

    #[test]
    fn disjoint_small_sets_do_not_intersect_with_banked_rule() {
        // The banked emptiness rule is far more precise: a handful of
        // well-spread addresses should not alias.
        let banked = SignatureConfig {
            banked_empty: true,
            ..cfg()
        };
        let a = Signature::from_lines(&banked, (0..8).map(|i| LineAddr(i * 1009)));
        let b = Signature::from_lines(&banked, (0..8).map(|i| LineAddr(1_000_000 + i * 977)));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn unbanked_rule_is_conservative_superset_of_banked() {
        // Whenever the banked rule reports a collision, the unbanked
        // (default hardware) rule must as well.
        let banked_cfg = SignatureConfig {
            banked_empty: true,
            ..cfg()
        };
        for k in 0..20u64 {
            let lines_a: Vec<LineAddr> = (0..32).map(|i| LineAddr(i * 97 + k * 7)).collect();
            let lines_b: Vec<LineAddr> = (0..32).map(|i| LineAddr(i * 89 + k * 13 + 1)).collect();
            let (ab, bb) = (
                Signature::from_lines(&banked_cfg, lines_a.iter().copied()),
                Signature::from_lines(&banked_cfg, lines_b.iter().copied()),
            );
            let (au, bu) = (
                Signature::from_lines(&cfg(), lines_a.iter().copied()),
                Signature::from_lines(&cfg(), lines_b.iter().copied()),
            );
            if ab.intersects(&bb) {
                assert!(au.intersects(&bu), "unbanked must be conservative");
            }
        }
    }

    #[test]
    fn intersects_matches_intersect_emptiness() {
        let a = Signature::from_lines(&cfg(), (0..64).map(|i| LineAddr(i * 3)));
        let b = Signature::from_lines(&cfg(), (0..64).map(|i| LineAddr(i * 5)));
        assert_eq!(a.intersects(&b), !a.intersect(&b).is_empty());
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn mismatched_geometry_panics() {
        let a = Signature::new(&cfg());
        let b = Signature::new(&SignatureConfig::with_total_bits(1024));
        let _ = a.intersects(&b);
    }

    #[test]
    fn decode_sets_covers_inserted_lines() {
        // Cache with 64 sets: every inserted line's set index must appear.
        let lines: Vec<LineAddr> = (0..40).map(|i| LineAddr(i * 131)).collect();
        let s = Signature::from_lines(&cfg(), lines.clone());
        let sets = s.decode_sets(64);
        for l in lines {
            let set = (l.0 % 64) as u32;
            assert!(sets.contains(&set), "set {set} for line {l} missing");
        }
    }

    #[test]
    fn decode_sets_exact_when_sets_divide_bank() {
        // One line => bank-0 has one bit => decode to cache with as many sets
        // as bank bits yields exactly one set.
        let s = Signature::from_lines(&cfg(), [LineAddr(77)]);
        let sets = s.decode_sets(512);
        assert_eq!(sets, vec![77u32], "line 77 mod 512 sets");
    }

    #[test]
    fn decode_sets_with_more_sets_than_bank_bits() {
        let s = Signature::from_lines(&cfg(), [LineAddr(3)]);
        let sets = s.decode_sets(1024); // 1024 sets > 512 bank bits
                                        // Conservative: both aliases of bank-bit 3 are candidates.
        assert!(sets.contains(&3));
        assert!(sets.contains(&(3 + 512)));
    }

    #[test]
    fn decode_empty_is_empty() {
        let s = Signature::new(&cfg());
        assert!(s.decode_sets(64).is_empty());
    }

    #[test]
    fn aliasing_exists_at_scale() {
        // The superset encoding must alias once enough addresses are
        // inserted — this is what BSCexact removes. Insert many lines that
        // all share the bank-0 slot of a probe line (bank 0 is
        // direct-indexed by the low address bits), then probe lines with
        // that slot that were never inserted: the permuted banks saturate
        // and false positives appear.
        let bank_bits = cfg().bank_bits() as u64;
        let mut s = Signature::new(&cfg());
        for i in 1..=4096u64 {
            s.insert(LineAddr(i * bank_bits)); // all map to bank-0 index 0
        }
        let fp = (4097..8193u64)
            .filter(|i| s.contains(LineAddr(i * bank_bits)))
            .count();
        assert!(fp > 0, "expected false positives at this density");
    }

    #[test]
    fn popcount_grows_then_saturates() {
        let mut s = Signature::new(&cfg());
        s.insert(LineAddr(5));
        let one = s.popcount();
        assert!((1..=4).contains(&one));
        for i in 0..100_000u64 {
            // Pseudo-random lines: sequential lines would only exercise the
            // bit positions a stride reaches.
            s.insert(LineAddr(i.wrapping_mul(6_364_136_223_846_793_005) >> 24));
        }
        assert!(s.popcount() <= 2048);
        assert!(s.popcount() > 2000, "should be nearly saturated");
    }

    #[test]
    fn debug_is_nonempty() {
        let s = Signature::new(&cfg());
        assert!(!format!("{s:?}").is_empty());
    }
}
