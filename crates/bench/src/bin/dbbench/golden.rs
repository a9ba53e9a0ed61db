//! Golden metric fingerprints of every job at the default seed.
//!
//! The simulator is deterministic, so a job's `metric_fingerprint()` at
//! a fixed seed never changes unless simulated behaviour does. A perf
//! change that moves one of these values changed what is simulated,
//! and `dbbench` counts the job as failed. Re-derive only for a change
//! that is meant to alter simulated results.

use crate::workloads::DEFAULT_SEED;

const GOLDEN: [(&str, [&str; 4]); 4] = [
    (
        "dc-gem-force",
        [
            "7a704adb2aaffed6",
            "d42529698e146b3a",
            "8d0a16ce2a8f0fe8",
            "48a0476baf5fd2a3",
        ],
    ),
    (
        "dc-pcl-random",
        [
            "2757f5fc2543f5bc",
            "d23753ccaad84065",
            "97fccca4237f34f0",
            "5590a7bd283b6955",
        ],
    ),
    (
        "trace-pcl-read",
        [
            "70a5ee5c6650595a",
            "2c72789627118d14",
            "847bb3acdfc25093",
            "b82d3d82de99e190",
        ],
    ),
    (
        "scale-64",
        [
            "c1845de9b20b8009",
            "31799b0201fdfc69",
            "7d8c0fdaa199f844",
            "617de4473a0f82d7",
        ],
    ),
];

/// The golden fingerprint of `workload`'s job `j` at `seed`, if one is
/// pinned (only the default seed is).
pub fn fingerprint(workload: &str, seed: u64, j: u64) -> Option<&'static str> {
    if seed != DEFAULT_SEED {
        return None;
    }
    GOLDEN
        .iter()
        .find(|(name, _)| *name == workload)
        .and_then(|(_, jobs)| jobs.get(j as usize).copied())
}
