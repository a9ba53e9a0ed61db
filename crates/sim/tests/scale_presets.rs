//! The `--scale` family's load-bearing invariant:
//! `page_metadata_budget` is a *capacity* knob, not a semantic one. A
//! run with every page-keyed pre-allocation capped (lazy
//! materialization beyond the budget) must produce a report
//! bit-identical to the historical dense pre-sizing, at any budget,
//! over any seed. (`golden.rs` pins a miniature `ScaleRun` itself.)

use dbshare_model::{CouplingMode, RoutingStrategy, UpdateStrategy};
use dbshare_sim::experiments::{debit_credit_run_with, DebitCreditRun, RunLength};

const QUICK: RunLength = RunLength {
    warmup: 200,
    measured: 2_000,
};

/// Dense (budget `None`) vs sparse (budget capped far below the hot
/// page count) runs of the same configuration: every metric bit must
/// match. Sweeps both protocols and several seeds — the sparse path
/// must not leak into results through any of them.
#[test]
fn sparse_page_metadata_matches_dense_baseline() {
    for coupling in [CouplingMode::GemLocking, CouplingMode::Pcl] {
        for seed in [0xDB5_4A6E_u64, 1, 0xFFFF_FFFF] {
            let p = DebitCreditRun {
                coupling,
                routing: RoutingStrategy::Random,
                update: UpdateStrategy::NoForce,
                seed,
                ..DebitCreditRun::baseline(3, QUICK)
            };
            let dense = debit_credit_run_with(p, |_| {});
            // Budget 8 is far below hot_pages (2 * buffer 200), so
            // every page-metadata structure takes the lazy path.
            for budget in [8usize, 1] {
                let sparse =
                    debit_credit_run_with(p, |cfg| cfg.page_metadata_budget = Some(budget));
                assert_eq!(
                    format!("{sparse:?}"),
                    format!("{dense:?}"),
                    "budget {budget} drifted from dense (coupling {coupling:?}, seed {seed:#x})"
                );
                assert_eq!(sparse.metric_fingerprint(), dense.metric_fingerprint());
            }
        }
    }
}
