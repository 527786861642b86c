//! The memory substrate of the BulkSC machine: caches, the distributed
//! directory, and the DirBDM.
//!
//! This crate provides the structures of Figure 5 of *BulkSC: Bulk
//! Enforcement of Sequential Consistency* (ISCA 2007) that live below the
//! processor:
//!
//! * [`SetAssocCache`] — consistency-oblivious tag stores used for the
//!   private L1s and the shared L2, with the BDM displacement veto that
//!   pins speculatively-written lines in place (§4.1.1);
//! * [`DirStore`] — the directory's sharing-state store, configurable as a
//!   full-map directory or (the paper's preference, §4.3.3) a directory
//!   cache;
//! * [`dirbdm`] — signature expansion over the directory with the
//!   false-positive-safe action table (Table 1);
//! * [`Directory`] — the protocol engine: MESI demand coherence for the
//!   baseline consistency models plus the BulkSC commit side (W-signature
//!   expansion, invalidation lists, conservative access disabling of
//!   committing lines, directory-cache displacement disambiguation).
//!
//! Data *values* are deliberately not stored here: the simulator keeps them
//! in a global value store so that test programs (litmus tests) can check
//! execution outcomes. The memory substrate models presence, state, and
//! timing.

pub mod cache;
pub mod dirbdm;
pub mod directory;
mod sets;
pub mod store;
pub mod values;

pub use bulksc_sig::LineData;
pub use cache::{CacheConfig, InsertOutcome, LineState, SetAssocCache};
pub use dirbdm::{expand_commit, ExpansionResult};
pub use directory::{DirConfig, DirStats, Directory};
pub use store::{DirEntry, DirOrganization, DirStore, Displaced};
pub use values::ValueStore;
