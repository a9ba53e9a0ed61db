//! # dbshare-lockmgr — concurrency and coherency control (§3.2)
//!
//! Both protocols the paper compares are implemented here as pure,
//! event-free state machines (the simulation engine charges their CPU,
//! GEM, and message costs):
//!
//! * [`GemLockTable`] — close coupling: one global lock table in GEM
//!   accessed with synchronous entry reads and Compare&Swap writes,
//!   carrying page sequence numbers and NOFORCE page ownership for
//!   integrated coherency control.
//! * [`pcl`] — loose coupling: primary copy locking with per-node
//!   global lock authorities ([`pcl::GlaState`]), message-based remote
//!   requests, piggybacked page transfers, and the read optimization
//!   ([`pcl::RaTable`]).
//! * [`LockTable`] — the underlying strict-2PL table with FIFO queues
//!   and read→write conversion.
//! * [`deadlock`] — waits-for-graph cycle detection and victim choice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod directory;
mod gem;
mod table;

pub mod deadlock;
pub mod pcl;

pub use gem::{GemLockTable, GemReply, PageInfo};
pub use table::{LockMode, LockReply, LockTable};
