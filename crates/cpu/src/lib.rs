//! Core timing engine and baseline consistency models.
//!
//! This crate models the processor side of the machine in Table 2 of the
//! BulkSC paper: an out-of-order core abstraction (instruction window,
//! fetch/retire widths, MSHRs, store buffer) with a private L1, speaking
//! the directory protocol of [`bulksc_mem`] over the fabric of
//! [`bulksc_net`].
//!
//! Three complete baseline consistency implementations live here (the
//! models BulkSC is evaluated against in §7):
//!
//! * SC with read prefetching, exclusive write prefetching, and R10000-
//!   style speculative-load revalidation;
//! * RC with a draining store buffer and speculation across fences;
//! * SC++, modelled at epoch granularity with checkpoint rollback.
//!
//! The BulkSC core itself lives in the `bulksc` crate; it shares this
//! crate's [`window`], memory [`port`], [`ValueStore`], and [`CoreConfig`]
//! building blocks.

pub mod config;
pub mod node;
pub mod port;
pub mod window;

pub use bulksc_mem::ValueStore;
pub use config::CoreConfig;
pub use node::{BaselineModel, BaselineNode, CoreStats};
pub use port::{Fetch, MemPort, PortStats};
pub use window::{InstrWindow, Slot, SlotId, SlotState};
