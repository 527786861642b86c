//! Wire-size model for signature transfers.
//!
//! Section 2.2 of the paper: signatures are ≈2 Kbit in the processor but are
//! compressed to ≈350 bits (≈44 bytes) when communicated. We model the
//! compressed size as a short header plus a per-occupied-bank-0-bit cost,
//! which reproduces the paper's ≈44 B for a typical ~30-line chunk write set
//! and degrades gracefully toward the raw size for saturated signatures.
//! [`wire_bytes`] is the cost the traffic accounting charges per signature
//! hop (hardware-faithful ≈9 bits/entry); no signature is serialized.

use crate::bloom::Signature;

/// Header bytes of a compressed signature message payload.
const HEADER_BYTES: u32 = 8;

/// Bits needed per occupied bank-0 position in the run-length-style encoding
/// (position delta plus the corresponding permuted-bank residues).
const BITS_PER_ENTRY: u32 = 9;

/// The number of bytes a signature occupies when transferred on the
/// interconnect.
///
/// An empty signature still costs a header (the message must say it is
/// empty). The size is capped at the raw signature size — compression never
/// loses to sending the raw bits.
///
/// # Example
///
/// ```
/// use bulksc_sig::{wire_bytes, LineAddr, Signature, SignatureConfig};
/// let cfg = SignatureConfig::default();
/// let sig = Signature::from_lines(&cfg, (0..30u64).map(|i| LineAddr(i * 97)));
/// let b = wire_bytes(&sig);
/// // ≈350 bits ≈ 44 bytes for a typical chunk write set (paper §2.2).
/// assert!(b >= 30 && b <= 60, "got {b}");
/// ```
pub fn wire_bytes(sig: &Signature) -> u32 {
    let raw_bytes = sig.config().total_bits() / 8;
    if sig.is_empty() {
        return HEADER_BYTES;
    }
    let entries = sig.bank0_popcount();
    let compressed = HEADER_BYTES + (entries * BITS_PER_ENTRY).div_ceil(8);
    compressed.min(raw_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::bloom::SignatureConfig;

    #[test]
    fn empty_signature_is_header_only() {
        let sig = Signature::new(&SignatureConfig::default());
        assert_eq!(wire_bytes(&sig), HEADER_BYTES);
    }

    #[test]
    fn typical_write_set_is_about_44_bytes() {
        let cfg = SignatureConfig::default();
        let sig = Signature::from_lines(&cfg, (0..30u64).map(|i| LineAddr(i * 97)));
        let b = wire_bytes(&sig);
        assert!((30..=60).contains(&b), "expected ≈44 B, got {b}");
    }

    #[test]
    fn saturated_signature_caps_at_raw_size() {
        let cfg = SignatureConfig::default();
        let mut sig = Signature::new(&cfg);
        for i in 0..100_000u64 {
            sig.insert(LineAddr(i));
        }
        assert_eq!(wire_bytes(&sig), cfg.total_bits() / 8);
    }

    #[test]
    fn size_is_monotone_in_set_size() {
        let cfg = SignatureConfig::default();
        let small = Signature::from_lines(&cfg, (0..5u64).map(|i| LineAddr(i * 101)));
        let large = Signature::from_lines(&cfg, (0..200u64).map(|i| LineAddr(i * 101)));
        assert!(wire_bytes(&small) <= wire_bytes(&large));
    }
}
