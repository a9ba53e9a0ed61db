//! # desim — a deterministic discrete-event simulation engine
//!
//! `desim` provides the simulation substrate used by the `dbshare`
//! workspace to reproduce the simulation system of Rahm's ICDCS 1993
//! paper *"Evaluation of Closely Coupled Systems for High Performance
//! Database Processing"*. The paper's original model was written in the
//! DeNet simulation language; `desim` replaces DeNet with an equivalent
//! set of facilities:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer (nanosecond) simulated
//!   clock, immune to floating-point drift,
//! * [`Calendar`] — the future event list (a priority queue with FIFO
//!   tie-breaking, which makes runs fully deterministic),
//! * [`MultiServer`] — a FIFO multi-server *delay station* (disks, GEM,
//!   network) where the completion time of a request can be computed at
//!   request time,
//! * [`Resource`] — a counted resource with an explicit waiter queue
//!   (CPUs, multiprogramming-level slots) for jobs that need to *hold*
//!   a unit across other events,
//! * [`Rng`] and the distributions in [`dist`] — seeded, reproducible
//!   random streams (exponential, uniform, discrete, Zipf),
//! * [`stats`] — running statistics, time-weighted averages, histograms
//!   with percentiles, and batch means for confidence intervals,
//! * [`fxhash`] — a fast deterministic hasher ([`fxhash::FxHashMap`] /
//!   [`fxhash::FxHashSet`]) for the per-event state lookups,
//! * [`InlineVec`] — an inline small-vector for per-event element
//!   lists, so steady state never touches the global allocator,
//! * [`trace`] — structured, sim-time-stamped event records
//!   for deterministic (diffable) execution traces.
//!
//! # Example
//!
//! A tiny M/M/1 queue:
//!
//! ```rust
//! use desim::{Calendar, MultiServer, Rng, SimTime, SimDuration, stats::RunningStat};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut cal = Calendar::new();
//! let mut server = MultiServer::new(1);
//! let mut rng = Rng::seed_from_u64(42);
//! let mut done_count = RunningStat::new();
//! cal.schedule(SimTime::ZERO, Ev::Arrival);
//! while let Some((now, ev)) = cal.pop() {
//!     if now > SimTime::from_secs(10) { break; }
//!     match ev {
//!         Ev::Arrival => {
//!             let svc = SimDuration::from_nanos(rng.exp(1.0e6) as u64);
//!             let done = server.offer(now, svc);
//!             cal.schedule(done, Ev::Departure);
//!             let next = now + SimDuration::from_nanos(rng.exp(2.0e6) as u64);
//!             cal.schedule(next, Ev::Arrival);
//!         }
//!         Ev::Departure => { done_count.record(1.0); }
//!     }
//! }
//! assert!(done_count.count() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod rng;
mod server;
mod time;

pub mod dist;
pub mod fxhash;
pub mod lru;
pub mod smallvec;
pub mod stats;
pub mod trace;

pub use calendar::Calendar;
pub use rng::Rng;
pub use server::{MultiServer, Resource};
pub use smallvec::InlineVec;
pub use time::{SimDuration, SimTime};
