//! The four benchmark workloads and how each job's engine is built.
//!
//! Every engine is built through the public path a library user takes —
//! `SystemConfig` → `Workload` → `Engine::new` → `Engine::run` — so the
//! set-up cost (workload build plus `Engine::new`) and the event-loop
//! cost are timed apart. The configurations mirror `sim::experiments`
//! presets; the unit tests below pin each workload's engine to its preset by
//! metric fingerprint.

use dbshare_model::{CouplingMode, RoutingStrategy, SystemConfig, UpdateStrategy};
use dbshare_sim::Engine;
use dbshare_workload::{
    DebitCredit, DebitCreditWorkload, Trace, TraceGenConfig, TraceWorkload, Workload,
};
use std::time::Instant;

/// Jobs per workload; job `j` runs with seed `S + j`.
pub const JOBS: u64 = 4;

/// The `--seed` default, at which fingerprints must match `golden.rs`.
pub const DEFAULT_SEED: u64 = 1;

/// Page-metadata pre-allocation cap of the `--scale` presets.
const SCALE_BUDGET: usize = 8_192;

/// Nodes of the `scale-64` workload (the `ScalePreset::SMOKE` endpoint).
const SCALE_NODES: u16 = 64;

/// What a workload simulates.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Debit-credit on 8 nodes (the Fig. 4.5 grid's configurations).
    DebitCredit {
        coupling: CouplingMode,
        update: UpdateStrategy,
        routing: RoutingStrategy,
        buffer: u64,
    },
    /// The synthetic-trace run of Fig. 4.7: 4 nodes, PCL with the read
    /// optimization, affinity routing.
    Trace,
    /// `ScalePreset::SMOKE` at 64 nodes; even jobs run GEM locking, odd
    /// jobs PCL.
    Scale,
}

/// One benchmark workload: a configuration and its per-job run length.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub shape: Shape,
    pub warmup: u64,
    pub measured: u64,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    // GEM lock table, CPU server and the commit-time storage write
    // path, with no message traffic.
    WorkloadDef {
        name: "dc-gem-force",
        shape: Shape::DebitCredit {
            coupling: CouplingMode::GemLocking,
            update: UpdateStrategy::Force,
            routing: RoutingStrategy::Affinity,
            buffer: 1_000,
        },
        warmup: 2_000,
        measured: 150_000,
    },
    // Message path, GLA lock tables, page transfers and buffer misses,
    // with the GEM lock table idle.
    WorkloadDef {
        name: "dc-pcl-random",
        shape: Shape::DebitCredit {
            coupling: CouplingMode::Pcl,
            update: UpdateStrategy::NoForce,
            routing: RoutingStrategy::Random,
            buffer: 200,
        },
        warmup: 2_000,
        measured: 100_000,
    },
    // Read-mostly long transactions through PCL read authorizations:
    // the largest LRU working set and the only costly set-up.
    WorkloadDef {
        name: "trace-pcl-read",
        shape: Shape::Trace,
        warmup: 400,
        measured: 10_000,
    },
    // 64 nodes: the deepest calendar and largest host working set;
    // lazy page metadata allocates on the hot path.
    WorkloadDef {
        name: "scale-64",
        shape: Shape::Scale,
        warmup: 32_000,
        measured: 64_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built job, ready to run, with its set-up cost split in two.
pub struct Built {
    pub engine: Engine,
    /// The configuration the engine was built from (layout filled in).
    pub cfg: SystemConfig,
    /// The workload's lock-authority map (PCL replays route by it).
    pub gla: dbshare_model::gla::GlaMap,
    /// Host seconds spent building the workload.
    pub build_s: f64,
    /// Host seconds spent in `Engine::new`.
    pub engine_new_s: f64,
}

impl WorkloadDef {
    /// Builds job `j` of this workload at `seed + j` with the given
    /// measured length, wrapping the workload with `wrap` (identity for
    /// timed passes; the timing decorator for traced runs).
    pub fn build(
        &self,
        j: u64,
        seed: u64,
        measured: u64,
        wrap: impl FnOnce(Box<dyn Workload + Send>) -> Box<dyn Workload + Send>,
    ) -> Built {
        let t0 = Instant::now();
        let (cfg, workload) = self.config(j, seed, measured);
        let gla = workload.gla_map();
        let workload = wrap(workload);
        let build_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let engine = Engine::new(cfg.clone(), workload).expect("valid benchmark configuration");
        Built {
            engine,
            cfg,
            gla,
            build_s,
            engine_new_s: t1.elapsed().as_secs_f64(),
        }
    }

    fn config(&self, j: u64, seed: u64, measured: u64) -> (SystemConfig, Box<dyn Workload + Send>) {
        let (mut cfg, workload): (SystemConfig, Box<dyn Workload + Send>) = match self.shape {
            Shape::DebitCredit {
                coupling,
                update,
                routing,
                buffer,
            } => {
                let mut cfg = SystemConfig::debit_credit(8);
                cfg.coupling = coupling;
                cfg.update = update;
                cfg.routing = routing;
                cfg.buffer_pages_per_node = buffer;
                let dc = DebitCredit::new(8, cfg.arrival_tps_per_node);
                let wl = DebitCreditWorkload::new(dc, cfg.arrival_tps_per_node, routing);
                (cfg, Box::new(wl))
            }
            Shape::Trace => {
                let mut cfg = SystemConfig::debit_credit(4);
                cfg.arrival_tps_per_node = 50.0;
                cfg.coupling = CouplingMode::Pcl;
                cfg.pcl_read_optimization = true;
                cfg.buffer_pages_per_node = 1_000;
                cfg.mpl_per_node = 256;
                cfg.cpu.per_access_instr = 3_000.0;
                let trace = Trace::synthesize(&TraceGenConfig::default(), seed + j);
                let wl = TraceWorkload::new(trace, 4, RoutingStrategy::Affinity);
                (cfg, Box::new(wl))
            }
            Shape::Scale => {
                let mut cfg = SystemConfig::debit_credit(SCALE_NODES);
                cfg.coupling = scale_coupling(j);
                cfg.page_metadata_budget = Some(SCALE_BUDGET);
                let dc = DebitCredit::with_accounts(SCALE_NODES, 100_000);
                let wl = DebitCreditWorkload::new(
                    dc,
                    cfg.arrival_tps_per_node,
                    RoutingStrategy::Affinity,
                );
                (cfg, Box::new(wl))
            }
        };
        cfg.partitions = workload.partitions().to_vec();
        cfg.run.warmup_txns = self.warmup;
        cfg.run.measured_txns = measured;
        cfg.run.seed = seed + j;
        (cfg, workload)
    }
}

fn scale_coupling(j: u64) -> CouplingMode {
    if j.is_multiple_of(2) {
        CouplingMode::GemLocking
    } else {
        CouplingMode::Pcl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbshare_sim::experiments::{
        DebitCreditRun, RunLength, RunSpec, ScalePreset, ScaleRun, TraceRun,
    };

    /// The `sim::experiments` preset each job of `def` reproduces.
    fn preset(def: &WorkloadDef, j: u64, seed: u64, run: RunLength) -> RunSpec {
        match def.shape {
            Shape::DebitCredit {
                coupling,
                update,
                routing,
                buffer,
            } => RunSpec::DebitCredit(DebitCreditRun {
                coupling,
                update,
                routing,
                buffer,
                seed: seed + j,
                ..DebitCreditRun::baseline(8, run)
            }),
            Shape::Trace => RunSpec::Trace(TraceRun {
                nodes: 4,
                coupling: CouplingMode::Pcl,
                routing: RoutingStrategy::Affinity,
                read_optimization: true,
                run,
                seed: seed + j,
            }),
            Shape::Scale => match ScalePreset::SMOKE.spec(scale_coupling(j), SCALE_NODES) {
                RunSpec::Scale(p) => RunSpec::Scale(ScaleRun {
                    run,
                    seed: seed + j,
                    ..p
                }),
                other => panic!("SMOKE preset is not a scale run: {other:?}"),
            },
        }
    }

    #[test]
    fn engines_match_their_presets() {
        for def in &WORKLOADS {
            for j in 0..2 {
                let short = WorkloadDef {
                    warmup: 100,
                    measured: 300,
                    ..*def
                };
                let run = RunLength {
                    warmup: short.warmup,
                    measured: short.measured,
                };
                let ours = short.build(j, 7, short.measured, |w| w).engine.run();
                let theirs = preset(def, j, 7, run).execute();
                assert_eq!(
                    ours.metric_fingerprint(),
                    theirs.metric_fingerprint(),
                    "{} job {j}",
                    def.name
                );
            }
        }
    }
}
