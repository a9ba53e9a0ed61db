//! Live run telemetry: a lock-free gauge the engine publishes into
//! while it runs, for observer threads (the harness progress ticker)
//! to sample.
//!
//! The discipline is the same as the trace layer's: observation must
//! not perturb the simulation. The engine updates the gauge with
//! relaxed atomic stores once every few thousand events behind a
//! single `Option` branch, never reads it back, and never changes an
//! event or a metric because a gauge is attached (`sim/tests/`
//! `progress.rs` pins report equality with and without one). Observer
//! threads only load; they cannot block the engine.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared progress counters for one running simulation. Create with
/// `Default`, attach with [`Engine::set_progress`], sample from any
/// thread with [`ProgressGauge::snapshot`].
///
/// [`Engine::set_progress`]: crate::Engine::set_progress
#[derive(Debug, Default)]
pub struct ProgressGauge {
    /// Calendar events scheduled so far.
    events: AtomicU64,
    /// Simulated time reached, in nanoseconds.
    sim_nanos: AtomicU64,
    /// Transactions committed so far (warm-up included).
    committed: AtomicU64,
    /// Total transactions the run will commit (warm-up + measured).
    target_txns: AtomicU64,
}

impl ProgressGauge {
    /// A point-in-time copy of every counter, for one ticker line.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            events: self.events.load(Ordering::Relaxed),
            sim_seconds: self.sim_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            committed: self.committed.load(Ordering::Relaxed),
            target_txns: self.target_txns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn publish(&self, events: u64, sim_nanos: u64, committed: u64) {
        self.events.store(events, Ordering::Relaxed);
        self.sim_nanos.store(sim_nanos, Ordering::Relaxed);
        self.committed.store(committed, Ordering::Relaxed);
    }

    pub(crate) fn set_target(&self, txns: u64) {
        self.target_txns.store(txns, Ordering::Relaxed);
    }
}

/// One sample of a [`ProgressGauge`].
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    /// Calendar events scheduled so far.
    pub events: u64,
    /// Simulated time reached, in seconds.
    pub sim_seconds: f64,
    /// Transactions committed so far (warm-up included).
    pub committed: u64,
    /// Total transactions the run will commit (warm-up + measured).
    pub target_txns: u64,
}

impl ProgressSnapshot {
    /// Fraction of the run completed, by committed transactions, in
    /// `[0, 1]` (0.0 before the target is known).
    pub fn fraction(&self) -> f64 {
        if self.target_txns == 0 {
            0.0
        } else {
            (self.committed as f64 / self.target_txns as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_publishes() {
        let g = ProgressGauge::default();
        assert_eq!(g.snapshot().fraction(), 0.0);
        g.set_target(200);
        g.publish(5_000, 1_500_000_000, 50);
        let s = g.snapshot();
        assert_eq!(s.events, 5_000);
        assert_eq!(s.sim_seconds, 1.5);
        assert_eq!(s.committed, 50);
        assert_eq!(s.target_txns, 200);
        assert!((s.fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fraction_saturates_at_one() {
        let g = ProgressGauge::default();
        g.set_target(10);
        g.publish(1, 1, 25);
        assert_eq!(g.snapshot().fraction(), 1.0);
    }
}
