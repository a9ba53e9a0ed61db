//! # dbshare-sim — the database sharing simulator (§3, §4)
//!
//! Ties the component crates together into the complete simulation
//! system of the paper: SOURCE (workload generation and allocation),
//! processing nodes (transaction manager, buffer manager, concurrency
//! control, communication subsystem, CPU servers), and external devices
//! (disks, disk caches, GEM, network).
//!
//! * [`Engine`] — the discrete-event engine; build with a
//!   [`SystemConfig`](dbshare_model::SystemConfig) and a workload, run,
//!   and get a [`RunReport`].
//! * [`experiments`] — presets that regenerate every figure of the
//!   paper's §4 (Fig. 4.1 through Fig. 4.7).
//!
//! ```rust
//! use dbshare_model::SystemConfig;
//! use dbshare_sim::Engine;
//! use dbshare_workload::{DebitCredit, DebitCreditWorkload};
//! use dbshare_model::RoutingStrategy;
//!
//! let mut cfg = SystemConfig::debit_credit(1);
//! cfg.run.warmup_txns = 50;
//! cfg.run.measured_txns = 200;
//! let dc = DebitCredit::new(1, 100.0);
//! let wl = DebitCreditWorkload::new(dc, 100.0, RoutingStrategy::Affinity);
//! let report = Engine::new(cfg, Box::new(wl)).unwrap().run();
//! assert_eq!(report.measured_txns, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod metrics;

pub mod experiments;
pub mod observe;
pub mod progress;

pub use engine::Engine;
pub use metrics::{RunProfile, RunReport};
pub use observe::{Observations, Observe, TimelineWindow};
pub use progress::{ProgressGauge, ProgressSnapshot};
