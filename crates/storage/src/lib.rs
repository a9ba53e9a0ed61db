//! # dbshare-storage — external storage device models (§3.3)
//!
//! Models the peripheral devices of the simulated system:
//!
//! * magnetic **disk arrays** per database partition (15 ms average
//!   access; 1 ms controller + 0.4 ms transfer are folded into the
//!   16.4 ms page access time the paper quotes),
//! * per-node **log disks** (5 ms average access → 6.4 ms per page),
//! * **disk caches** at the controllers — volatile (read hits only) or
//!   non-volatile (writes absorbed, destaged asynchronously) — managed
//!   LRU after IBM's DASD caches \[Gr89\], shared by all nodes and thus
//!   acting as a *global database buffer*,
//! * the **GEM** unit with separate page (50 µs) and entry (2 µs)
//!   access times, and
//! * the **interconnection network**, a bandwidth-limited server.
//!
//! All devices are FIFO queued servers ([`desim::MultiServer`]), so
//! queueing delays arise naturally under load. The [`StorageSubsystem`]
//! facade owns every device of a configuration and exposes the
//! operations the simulation engine needs at event time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod subsystem;

pub mod globallog;

pub use subsystem::{DeviceBusySnapshot, DeviceReport, IoPath, IoTarget, StorageSubsystem};
