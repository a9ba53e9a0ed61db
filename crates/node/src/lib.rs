//! # dbshare-node — processing-node components (§3.2)
//!
//! The pieces of a processing node that are independent of the event
//! loop: the LRU [`buffer::BufferManager`] with sequence-number
//! invalidation detection and FORCE/NOFORCE dirty tracking, and the
//! [`cost::CostModel`] that samples CPU service demands (begin of
//! transaction, per record access, end of transaction, plus fixed I/O
//! and message-handling costs).
//!
//! The transaction manager's control flow itself lives in `dbshare-sim`
//! (it is inseparable from the event loop); the multiprogramming-level
//! admission gate is a [`desim::Resource`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod cost;

pub use buffer::{BufferManager, Frame, Lookup, Placed};
pub use cost::CostModel;
