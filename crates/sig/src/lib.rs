//! Bulk signatures: the address-set hardware of the Bulk architecture.
//!
//! This crate implements the signature mechanism described in Section 2.2 of
//! *BulkSC: Bulk Enforcement of Sequential Consistency* (Ceze, Tuck,
//! Montesinos, Torrellas — ISCA 2007), which in turn comes from *Bulk
//! Disambiguation of Speculative Threads in Multiprocessors* (ISCA 2006).
//!
//! A signature is a fixed-size (by default 2 Kbit) Bloom-filter encoding of a
//! set of cache-line addresses. Addresses are accumulated by hashing
//! ("permuting") them into several banks of bits. Because the encoding is a
//! superset encoding, membership tests may produce false positives but never
//! false negatives — the property every BulkSC correctness argument leans on.
//!
//! The primitive operations of Figure 2(b) of the paper are all provided:
//!
//! | paper op | here |
//! |---|---|
//! | `∩` (intersection) | [`Signature::intersect`], [`Signature::intersects`] |
//! | `∪` (union) | [`Signature::union_with`] |
//! | `= ∅` (emptiness) | [`Signature::is_empty`] |
//! | `∈` (membership) | [`Signature::contains`] |
//! | `δ` (decode into cache sets) | [`Signature::decode_sets`] |
//!
//! Two additional pieces support the BulkSC evaluation:
//!
//! * [`ExactSet`] — an alias-free "magic" signature used by the paper's
//!   `BSCexact` configuration and by the statistics machinery to attribute
//!   costs to aliasing.
//! * [`TrackedSig`] — a signature that maintains *both* encodings so a
//!   simulation can disambiguate with one while measuring against the other.
//!
//! This crate also hosts the basic addressing vocabulary ([`Addr`],
//! [`LineAddr`]) shared by every other crate in the workspace, because it
//! sits at the bottom of the dependency graph.
//!
//! # Example
//!
//! ```
//! use bulksc_sig::{LineAddr, Signature, SignatureConfig};
//!
//! let cfg = SignatureConfig::default();
//! let mut w = Signature::new(&cfg);
//! w.insert(LineAddr(0x40));
//! w.insert(LineAddr(0x41));
//!
//! let mut r = Signature::new(&cfg);
//! r.insert(LineAddr(0x41));
//!
//! // A committing chunk with write signature `w` collides with a running
//! // chunk whose read signature is `r`:
//! assert!(w.intersects(&r));
//! assert!(w.contains(LineAddr(0x40)));
//! assert!(!w.is_empty());
//! ```

pub mod addr;
pub mod bloom;
pub mod compress;
pub mod exact;
pub mod tracked;

pub use addr::{Addr, LineAddr, LineData, LINE_BYTES, LINE_WORDS};
pub use bloom::{Signature, SignatureConfig};
pub use compress::wire_bytes;
pub use exact::ExactSet;
pub use tracked::{SigMode, TrackedSig};
