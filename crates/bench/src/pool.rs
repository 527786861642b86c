//! Deterministic host-side worker pool — re-exported from
//! [`bulksc_pool`], its own crate because the streaming SC checker in
//! `bulksc-check` once used it too. The checker no longer calls it; its
//! dependency edge goes with the next change to `benchmark/`, whose lock
//! file lists it, and the pool can then fold back into this module.

pub use bulksc_pool::*;
