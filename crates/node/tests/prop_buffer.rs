//! Randomized tests of the buffer manager: capacity is never
//! exceeded, lookups agree with a reference model of page presence and
//! versions, and every copy that enters or leaves is reported.
//!
//! Cases are generated with desim's deterministic RNG (seeded,
//! reproducible) so the workspace builds and tests without any registry
//! dependency.

use dbshare_model::{PageId, PartitionId};
use dbshare_node::buffer::{BufferManager, Lookup, Placed};
use desim::Rng;
use std::collections::HashMap;

const CASES: u64 = 256;

fn page(p: u8) -> PageId {
    PageId::new(PartitionId::new(0), p as u64)
}

#[derive(Debug, Clone)]
enum Op {
    Lookup { page: u8, seqno: u8 },
    Insert { page: u8, seqno: u8, dirty: bool },
    MarkDirty { page: u8, seqno: u8 },
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.below(3) {
        0 => Op::Lookup {
            page: rng.below(30) as u8,
            seqno: rng.below(8) as u8,
        },
        1 => Op::Insert {
            page: rng.below(30) as u8,
            seqno: rng.below(8) as u8,
            dirty: rng.chance(0.5),
        },
        _ => Op::MarkDirty {
            page: rng.below(30) as u8,
            seqno: rng.below(8) as u8,
        },
    }
}

/// Applies a put of `p` as `frame` to the model and checks the buffer's
/// report: a new copy exactly when the model had none, and an eviction,
/// clean or dirty, exactly when the model overflows, of a cached page
/// with the version and flag it was cached with.
fn check_placed(
    model: &mut HashMap<u8, (u8, bool)>,
    cap: u64,
    p: u8,
    frame: (u8, bool),
    placed: Placed,
) {
    let added = model.insert(p, frame).is_none();
    assert_eq!(placed.added, added, "new copy of {p}");
    match placed.evicted {
        Some((ep, f)) => {
            let k = ep.number() as u8;
            assert_ne!(k, p, "a page evicted itself");
            let gone = model.remove(&k).expect("evicted page was cached");
            assert_eq!(gone, (f.seqno as u8, f.dirty), "frame of {k}");
        }
        None => assert!(model.len() as u64 <= cap, "an eviction went unreported"),
    }
}

#[test]
fn buffer_agrees_with_reference_model() {
    let mut rng = Rng::seed_from_u64(0xBFF1);
    for _ in 0..CASES {
        let cap = rng.range_inclusive(1, 15);
        let n_ops = rng.range_inclusive(1, 299);
        let mut buf = BufferManager::new(cap, 1);
        // model: page -> (seqno, dirty)
        let mut model: HashMap<u8, (u8, bool)> = HashMap::new();

        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Lookup { page: p, seqno } => {
                    let expect = match model.get(&p) {
                        Some(&(s, _)) if s >= seqno => Lookup::Hit,
                        Some(_) => Lookup::Invalidated,
                        None => Lookup::Miss,
                    };
                    let got = buf.lookup(page(p), seqno as u64);
                    assert_eq!(got, expect, "lookup({p}, {seqno})");
                    if got == Lookup::Invalidated {
                        model.remove(&p); // obsolete copies are dropped
                    }
                }
                Op::Insert {
                    page: p,
                    seqno,
                    dirty,
                } => {
                    let placed = buf.insert(page(p), seqno as u64, dirty);
                    check_placed(&mut model, cap, p, (seqno, dirty), placed);
                }
                Op::MarkDirty { page: p, seqno } => {
                    let placed = buf.mark_dirty(page(p), seqno as u64);
                    check_placed(&mut model, cap, p, (seqno, true), placed);
                }
            }
            assert!(buf.len() as u64 <= cap, "capacity exceeded");
            assert_eq!(buf.len(), model.len());
            // every model entry is present with the same seqno
            for (&k, &(s, d)) in &model {
                assert_eq!(buf.cached_seqno(page(k)), Some(s as u64));
                assert_eq!(buf.is_dirty(page(k)), d, "dirty flag of {k}");
            }
        }
    }
}

#[test]
fn hit_ratio_is_consistent_with_counts() {
    let mut rng = Rng::seed_from_u64(0xBFF2);
    for _ in 0..CASES {
        let n_lookups = rng.range_inclusive(1, 119);
        let mut buf = BufferManager::new(8, 1);
        let mut hits = 0u64;
        let mut total = 0u64;
        for _ in 0..n_lookups {
            let p = rng.below(10) as u8;
            let insert_after = rng.chance(0.5);
            if buf.lookup(page(p), 0) == Lookup::Hit {
                hits += 1;
            }
            total += 1;
            if insert_after {
                buf.insert(page(p), 0, false);
            }
        }
        let c = buf.counters(0);
        assert_eq!(c.hits, hits);
        assert_eq!(c.hits + c.misses + c.invalidations, total);
        let ratio = c.hit_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }
}
