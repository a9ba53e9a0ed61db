//! How fast the host runs right now, for scaling host times to a
//! nominal host.
//!
//! On a shared host, a neighbour slows the simulator by up to 1.7× for
//! seconds to minutes at a time, longer than a run, so medians over
//! passes cannot remove it. A pointer chase through a ring inside the
//! core's private L2 cache slows with it, and each job's host times are
//! scaled by the chase timed just before and after the job. The chase
//! is this file's own code, independent of the simulator, and it warms
//! its ring before it is timed, so a reading does not depend on what the
//! simulator left in the cache: it is the same on every commit the
//! benchmark compares. (A second chase through a 4 MiB ring, in the
//! shared L3, tracked the host better, but right after a job it read
//! 1.8× slower than right after another reading, so it would have moved
//! with the simulator's own cache footprint.)

use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per step on a quiet host: the median of 1,100 readings
/// on a 2-vCPU KVM guest (Intel Xeon, family 6 model 207, 2 MiB L2).
const NOMINAL_NS: f64 = 7.0;

/// Ring entries: 1 MiB of `u32`.
const RING: usize = 1 << 18;
const CHUNK_STEPS: usize = 100_000;
/// Timed chunks per reading; the reading is their median.
const CHUNKS: usize = 5;

pub struct Gauge {
    next: Vec<u32>,
    at: u32,
}

impl Gauge {
    /// A ring that is one cycle through every entry (Sattolo's
    /// shuffle). A local xorshift keeps it the same whatever the
    /// simulator's own generator does.
    pub fn new() -> Gauge {
        let mut next: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..RING).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Gauge { next, at: 0 }
    }

    /// The host's speed now relative to the nominal host, below 1 on a
    /// slowed host: nominal ÷ measured time per step, the median of a
    /// few timed chunks after a linear read that brings the ring back
    /// into cache. A host time times this speed is the time the nominal
    /// host would take.
    pub fn speed(&mut self) -> f64 {
        black_box(self.next.iter().fold(0u32, |a, &b| a ^ b));
        let mut chunks = [0.0; CHUNKS];
        for chunk in &mut chunks {
            let t0 = Instant::now();
            let mut at = self.at;
            for _ in 0..CHUNK_STEPS {
                at = self.next[at as usize];
            }
            self.at = black_box(at);
            *chunk = t0.elapsed().as_nanos() as f64 / CHUNK_STEPS as f64;
        }
        chunks.sort_by(f64::total_cmp);
        NOMINAL_NS / chunks[CHUNKS / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle() {
        let g = Gauge::new();
        let mut at = g.next[0];
        let mut steps = 1;
        while at != 0 {
            at = g.next[at as usize];
            steps += 1;
        }
        assert_eq!(steps, RING);
    }
}
