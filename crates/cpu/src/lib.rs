//! Core timing engine and baseline consistency models.
//!
//! This crate models the processor side of the machine in Table 2 of the
//! BulkSC paper: an out-of-order core abstraction (instruction window,
//! fetch/retire widths, MSHRs, store buffer) with a private L1, speaking
//! the directory protocol of [`bulksc_mem`] over the fabric of
//! [`bulksc_net`].
//!
//! Four complete baseline consistency implementations live here (the
//! models BulkSC is evaluated against in §7, plus TSO):
//!
//! * SC with read prefetching, exclusive write prefetching, and R10000-
//!   style speculative-load revalidation;
//! * RC with a draining store buffer and speculation across fences;
//! * TSO with a FIFO store buffer, store-to-load forwarding, and fences
//!   and atomics that drain the buffer;
//! * SC++, modelled at epoch granularity with checkpoint rollback.
//!
//! The BulkSC core itself lives in the `bulksc` crate; it shares this
//! crate's [`window`], memory [`port`], fetch [`front`] end and its
//! [`Checkpoint`], [`ValueStore`], and [`CoreConfig`] building blocks.

pub mod config;
pub mod front;
pub mod node;
pub mod port;
pub mod window;

pub use bulksc_mem::ValueStore;
pub use config::CoreConfig;
pub use front::{Checkpoint, FrontEnd};
pub use node::{BaselineModel, BaselineNode, CoreStats};
pub use port::{Fetch, MemPort, PortStats};
pub use window::{InstrWindow, Slot, SlotId, SlotState};
