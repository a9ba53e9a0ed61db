//! # dbshare — closely vs. loosely coupled database sharing, simulated
//!
//! A full reproduction of Erhard Rahm's ICDCS 1993 paper *"Evaluation
//! of Closely Coupled Systems for High Performance Database
//! Processing"* as a Rust workspace: a deterministic discrete-event
//! simulation of shared-disk (database sharing) systems that compares
//!
//! * **close coupling** — a Global Extended Memory (GEM) holding a
//!   global lock table accessed with synchronous ~2 µs entry
//!   operations, usable as page store and page-transfer channel — with
//! * **loose coupling** — the primary copy locking protocol (PCL) with
//!   distributed lock authorities and message passing.
//!
//! This crate is the facade: it re-exports the public API of every
//! workspace crate. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the figure-by-figure reproduction record.
//!
//! ## Quick start
//!
//! ```rust
//! use dbshare::prelude::*;
//!
//! // One node, Table 4.1 defaults, short run.
//! let mut cfg = SystemConfig::debit_credit(1);
//! cfg.run.warmup_txns = 100;
//! cfg.run.measured_txns = 500;
//! let dc = DebitCredit::new(1, 100.0);
//! let wl = DebitCreditWorkload::new(dc, 100.0, RoutingStrategy::Affinity);
//! let report = Engine::new(cfg, Box::new(wl)).unwrap().run();
//! assert!(report.mean_response_ms > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`desim`] | discrete-event engine: calendar, servers, RNG, stats |
//! | [`dbshare_model`] | ids, configuration, GLA maps |
//! | [`dbshare_workload`] | debit-credit + synthetic traces, routing |
//! | [`dbshare_storage`] | disks, disk caches, GEM, network |
//! | [`dbshare_lockmgr`] | 2PL tables, GEM GLT, PCL, deadlock detection |
//! | [`dbshare_node`] | buffer manager, CPU cost model |
//! | [`dbshare_sim`] | the engine, metrics, experiment presets |
//! | [`dbshare_harness`] | parallel sweep orchestration, one experiment-store row per job |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dbshare_harness as harness;
pub use dbshare_lockmgr as lockmgr;
pub use dbshare_model as model;
pub use dbshare_node as node;
pub use dbshare_sim as sim;
pub use dbshare_storage as storage;
pub use dbshare_workload as workload;
pub use desim;

/// Convenient single import for examples and applications.
pub mod prelude {
    pub use dbshare_harness::{Harness, Job, JobResult, Outcome, Sweep};
    pub use dbshare_model::{
        CouplingMode, NodeId, PageId, PageRef, PartitionConfig, PartitionId, RoutingStrategy,
        StorageAllocation, SystemConfig, TxnId, TxnSpec, UpdateStrategy,
    };
    pub use dbshare_sim::experiments::{
        self, debit_credit_run, debit_credit_run_with, trace_run, BtStorage, DebitCreditRun,
        RunLength, TraceRun,
    };
    pub use dbshare_sim::{Engine, RunReport};
    pub use dbshare_workload::{
        DebitCredit, DebitCreditWorkload, Trace, TraceGenConfig, TraceWorkload, Workload,
    };
}
