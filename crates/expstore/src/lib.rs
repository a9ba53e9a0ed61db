//! The queryable experiment store: persistent regression history for
//! the reproduction's benchmark runs.
//!
//! A run file (`repro --json`, `BENCH_repro.jsonl` by default) holds
//! *one* invocation's rows; the store is the memory across runs. Both
//! are the same line format, one [`Record`] per executed job, and both
//! are read with [`Store::read`]. The crate is layered like a
//! scaled-down persistence/index split:
//!
//! - [`json`] — the dependency-free JSON value every layer above
//!   serializes with (moved here from `dbshare-harness`, which
//!   re-exports it), extended with the compact [`Json::render_line`]
//!   form the log uses;
//! - [`record`] — the row schema: one executed job with config and
//!   metric fingerprints, build provenance, host cost, its bottleneck
//!   attribution, and its report-only figures;
//! - [`log`] — the persistence layer: an append-only line-delimited
//!   file ([`Store`]) that recovers only a torn last line (truncate and
//!   warn) and refuses every other line it cannot parse;
//! - [`aggregate`] — per-(run, figure) aggregates stamped with a
//!   config-set fingerprint, rebuilt from the rows on every read;
//! - [`explain`] — the attribution views rendered from rows: the
//!   `--explain` table and JSON sidecar and the knee verdicts;
//! - [`gate`] — the policy layer: exact metric-fingerprint matching,
//!   a bound on each job's peak heap against the latest recorded
//!   count, and thresholded events/s regression checks against the
//!   best comparable recorded run.
//!
//! The crate has no dependencies at all (not even on the simulator),
//! so anything that can produce a [`Record`] can use the store.

pub mod aggregate;
pub mod explain;
pub mod gate;
pub mod json;
pub mod log;
pub mod record;

pub use aggregate::{figure_runs, FigureRun};
pub use gate::{check as gate_check, short_rev, GateOutcome, MAX_HEAP_GROWTH};
pub use json::{Json, ParseError};
pub use log::{ReadResult, Recovery, Store};
pub use record::{fnv1a_hex, JobDetail, Provenance, Record, Waits, SCHEMA_VERSION};
