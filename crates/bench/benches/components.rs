//! Microbenchmarks of the simulator's core data structures: the lock
//! table and its deadlock scan, the LRU cache, the event calendar, the
//! FIFO multi-server, and the random distributions. These are the inner
//! loops of every simulation run. Runs on the dependency-free
//! [`dbshare_bench::minibench`] harness.

use dbshare_bench::minibench::Bench;
use dbshare_lockmgr::deadlock::{find_cycle, has_cycle};
use dbshare_lockmgr::{GemLockTable, LockMode, LockTable};
use dbshare_model::{PageId, PartitionId, TxnId};
use desim::dist::{Alias, Zipf};
use desim::fxhash::FxHashMap;
use desim::lru::LruCache;
use desim::{Calendar, MultiServer, Rng, SimDuration, SimTime};
use std::collections::HashMap;
use std::hint::black_box;

fn page(n: u64) -> PageId {
    PageId::new(PartitionId::new(0), n)
}

fn lock_table(b: &Bench) {
    {
        let mut lt = LockTable::new();
        let mut i = 0u64;
        b.bench("lock_table/grant_release_cycle", || {
            let t = TxnId::new(i);
            i += 1;
            lt.request(t, page(i % 512), LockMode::Write);
            lt.request(t, page((i + 7) % 512), LockMode::Read);
            black_box(lt.release_all(t));
        });
    }
    b.bench("lock_table/contended_queue", || {
        let mut lt = LockTable::new();
        for i in 0..64 {
            lt.request(TxnId::new(i), page(0), LockMode::Write);
        }
        for i in 0..64 {
            black_box(lt.release(TxnId::new(i), page(0)));
        }
    });
    {
        let mut lt = LockTable::new();
        for p in 0..32 {
            lt.request(TxnId::new(p), page(p), LockMode::Write);
            for w in 0..8 {
                lt.request(TxnId::new(1000 + p * 8 + w), page(p), LockMode::Write);
            }
        }
        b.bench("lock_table/waits_for_edges", || {
            black_box(lt.waits_for_edges());
        });
    }
}

/// One deadlock scan over the `scale-64` hot-page shape: 64 pages, each
/// with one write holder and 48 queued writers, and no cycle. The
/// engine's stage 1 (reduced edges + `has_cycle`) against the full
/// graph + sort + `find_cycle` that stage 2 runs only on a cycle.
fn deadlock(b: &Bench) {
    let mut lt = LockTable::new();
    for p in 0..64 {
        lt.request(TxnId::new(p), page(p), LockMode::Write);
        for w in 0..48 {
            lt.request(TxnId::new(1000 + p * 48 + w), page(p), LockMode::Write);
        }
    }
    let mut edges = Vec::new();
    b.bench("deadlock/hot_queues_64x48/reduced_has_cycle", || {
        edges.clear();
        lt.reduced_waits_for_edges(&mut edges);
        black_box(has_cycle(&edges));
    });
    b.bench("deadlock/hot_queues_64x48/full_find_cycle", || {
        let mut edges = lt.waits_for_edges();
        edges.sort_unstable();
        edges.dedup();
        black_box(find_cycle(&edges));
    });
}

fn gem_glt(b: &Bench) {
    let mut glt = GemLockTable::new();
    let node = dbshare_model::NodeId::new(0);
    let mut i = 0u64;
    b.bench("gem_glt/request_mod_release", || {
        let t = TxnId::new(i);
        i += 1;
        black_box(glt.request(t, page(i % 256), LockMode::Write));
        glt.record_modification(page(i % 256), node, false);
        black_box(glt.release_all(t));
    });
}

fn lru(b: &Bench) {
    {
        let mut cache = LruCache::new(1_000);
        for i in 0..1_000u64 {
            cache.insert(i, i);
        }
        let mut i = 0u64;
        b.bench("lru_cache/hit", || {
            i = (i + 7) % 1_000;
            black_box(cache.get(&i));
        });
    }
    {
        let mut cache = LruCache::new(1_000);
        let mut i = 0u64;
        b.bench("lru_cache/miss_insert_evict", || {
            i += 1;
            black_box(cache.insert(i, i));
        });
    }
}

fn calendar(b: &Bench) {
    {
        let mut cal = Calendar::new();
        let mut rng = Rng::seed_from_u64(1);
        let mut now = SimTime::ZERO;
        // steady-state heap of ~1000 events
        for _ in 0..1_000 {
            cal.schedule(now + SimDuration::from_nanos(rng.below(1_000_000)), 0u32);
        }
        b.bench("calendar/schedule_pop", || {
            let (t, e) = cal.pop().expect("non-empty");
            now = t;
            cal.schedule(now + SimDuration::from_nanos(rng.below(1_000_000)), e);
            black_box(e);
        });
    }
    {
        // The engine's dominant pattern: a handler pops an event and
        // schedules its continuation at the same instant (near lane),
        // plus an occasional future event (heap).
        let mut cal = Calendar::new();
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..1_000 {
            cal.schedule(SimTime::from_nanos(1 + rng.below(1_000_000)), 0u32);
        }
        let mut n = 0u32;
        b.bench("calendar/same_time_churn", || {
            let (t, e) = cal.pop().expect("non-empty");
            n = n.wrapping_add(1);
            if n.is_multiple_of(4) {
                cal.schedule(t + SimDuration::from_nanos(1 + rng.below(1_000_000)), e);
            } else {
                cal.schedule(t, e); // same-instant continuation
            }
            black_box(e);
        });
    }
    {
        // Far-lane stress shaped like the engine: head gaps of a few
        // hundred ns under a horizon stretched by 15 ms disk events,
        // so bucket width and the sorted current-day bucket both
        // matter (a uniform spread hides current-bucket crowding).
        let mut cal = Calendar::new();
        let mut rng = Rng::seed_from_u64(8);
        let mut now = SimTime::ZERO;
        for _ in 0..1_000 {
            cal.schedule(now + SimDuration::from_nanos(1 + rng.below(2_000)), 0u32);
        }
        for _ in 0..200 {
            cal.schedule(
                now + SimDuration::from_nanos(15_000_000 + rng.below(1_000_000)),
                0u32,
            );
        }
        let mut n = 0u32;
        b.bench("calendar/mixed_horizon", || {
            let (t, e) = cal.pop().expect("non-empty");
            now = t;
            n = n.wrapping_add(1);
            let delta = if n.is_multiple_of(6) {
                15_000_000 + rng.below(1_000_000) // disk completion
            } else {
                1 + rng.below(2_000) // CPU quantum / protocol hop
            };
            cal.schedule(now + SimDuration::from_nanos(delta), e);
            black_box(e);
        });
    }
    {
        // Sift cost with an engine-sized payload: the slab-indexed heap
        // moves 32-byte (key, slot) pairs regardless of payload size.
        #[derive(Clone, Copy)]
        struct Fat([u64; 14]);
        let mut cal = Calendar::new();
        let mut rng = Rng::seed_from_u64(6);
        let mut now = SimTime::ZERO;
        for _ in 0..1_000 {
            cal.schedule(
                now + SimDuration::from_nanos(rng.below(1_000_000)),
                Fat([0; 14]),
            );
        }
        b.bench("calendar/schedule_pop_fat_event", || {
            let (t, e) = cal.pop().expect("non-empty");
            now = t;
            cal.schedule(now + SimDuration::from_nanos(rng.below(1_000_000)), e);
            black_box(e.0[0]);
        });
    }
}

fn hashing(b: &Bench) {
    // The per-event map operations of the engine: PageId- and
    // TxnId-keyed lookups. FxHash vs the std SipHash default.
    let pages: Vec<PageId> = (0..4_096).map(page).collect();
    {
        let mut fx: FxHashMap<PageId, u64> = FxHashMap::default();
        for (i, &p) in pages.iter().enumerate() {
            fx.insert(p, i as u64);
        }
        let mut i = 0usize;
        b.bench("hashing/fx_page_lookup", || {
            i = (i + 61) % pages.len();
            black_box(fx.get(&pages[i]));
        });
    }
    {
        let mut std_map: HashMap<PageId, u64> = HashMap::new();
        for (i, &p) in pages.iter().enumerate() {
            std_map.insert(p, i as u64);
        }
        let mut i = 0usize;
        b.bench("hashing/std_page_lookup", || {
            i = (i + 61) % pages.len();
            black_box(std_map.get(&pages[i]));
        });
    }
    {
        let mut fx: FxHashMap<TxnId, u64> = FxHashMap::default();
        let mut i = 0u64;
        b.bench("hashing/fx_txn_insert_remove", || {
            i += 1;
            fx.insert(TxnId::new(i), i);
            black_box(fx.remove(&TxnId::new(i / 2)));
        });
    }
    {
        let mut std_map: HashMap<TxnId, u64> = HashMap::new();
        let mut i = 0u64;
        b.bench("hashing/std_txn_insert_remove", || {
            i += 1;
            std_map.insert(TxnId::new(i), i);
            black_box(std_map.remove(&TxnId::new(i / 2)));
        });
    }
}

fn multiserver(b: &Bench) {
    let mut srv = MultiServer::new(4);
    let mut now = SimTime::ZERO;
    b.bench("multiserver/offer", || {
        now += SimDuration::from_micros(10);
        black_box(srv.offer(now, SimDuration::from_micros(35)));
    });
}

fn distributions(b: &Bench) {
    {
        let z = Zipf::new(66_000, 1.0);
        let mut rng = Rng::seed_from_u64(2);
        b.bench("distributions/zipf_sample", || {
            black_box(z.sample(&mut rng));
        });
    }
    {
        let weights: Vec<f64> = (1..=1_000).map(|i| 1.0 / i as f64).collect();
        let a = Alias::new(&weights);
        let mut rng = Rng::seed_from_u64(3);
        b.bench("distributions/alias_sample", || {
            black_box(a.sample(&mut rng));
        });
    }
    {
        let mut rng = Rng::seed_from_u64(4);
        b.bench("distributions/exp_sample", || {
            black_box(rng.exp(50_000.0));
        });
    }
}

fn main() {
    let b = Bench::from_args();
    lock_table(&b);
    deadlock(&b);
    gem_glt(&b);
    lru(&b);
    calendar(&b);
    hashing(&b);
    multiserver(&b);
    distributions(&b);
}
