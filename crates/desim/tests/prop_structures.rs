//! Randomized model tests of the simulation substrate: the LRU cache
//! against a naive reference model, the FIFO multi-server's timing
//! invariants, the resource's conservation laws, and the calendar's
//! ordering guarantee.
//!
//! Cases are generated with the crate's own deterministic RNG (seeded,
//! reproducible) so the workspace builds and tests without any registry
//! dependency.

use desim::lru::LruCache;
use desim::{Calendar, MultiServer, Resource, Rng, SimDuration, SimTime};
use std::collections::VecDeque;

const CASES: u64 = 256;

/// A deliberately naive reference LRU: O(n) everything.
struct NaiveLru {
    cap: usize,
    entries: VecDeque<(u16, u32)>, // front = most recent
}

impl NaiveLru {
    fn new(cap: usize) -> Self {
        NaiveLru {
            cap,
            entries: VecDeque::new(),
        }
    }
    fn get(&mut self, k: u16) -> Option<u32> {
        let pos = self.entries.iter().position(|&(ek, _)| ek == k)?;
        let e = self.entries.remove(pos).expect("position exists");
        self.entries.push_front(e);
        Some(e.1)
    }
    fn insert(&mut self, k: u16, v: u32) -> Option<(u16, u32)> {
        if let Some(pos) = self.entries.iter().position(|&(ek, _)| ek == k) {
            self.entries.remove(pos);
            self.entries.push_front((k, v));
            return None;
        }
        self.entries.push_front((k, v));
        if self.entries.len() > self.cap {
            self.entries.pop_back()
        } else {
            None
        }
    }
    fn remove(&mut self, k: u16) -> Option<u32> {
        let pos = self.entries.iter().position(|&(ek, _)| ek == k)?;
        self.entries.remove(pos).map(|(_, v)| v)
    }
}

#[derive(Debug, Clone)]
enum LruOp {
    Get(u16),
    Insert(u16, u32),
    Remove(u16),
    PopLru,
}

fn lru_op(rng: &mut Rng) -> LruOp {
    match rng.below(4) {
        0 => LruOp::Get(rng.below(40) as u16),
        1 => LruOp::Insert(rng.below(40) as u16, rng.next_u64() as u32),
        2 => LruOp::Remove(rng.below(40) as u16),
        _ => LruOp::PopLru,
    }
}

#[test]
fn lru_matches_reference_model() {
    let mut rng = Rng::seed_from_u64(0x11C0_FFEE);
    for _ in 0..CASES {
        let cap = rng.range_inclusive(1, 23) as usize;
        let ops = rng.range_inclusive(1, 299);
        let mut real = LruCache::new(cap);
        let mut model = NaiveLru::new(cap);
        for _ in 0..ops {
            match lru_op(&mut rng) {
                LruOp::Get(k) => {
                    assert_eq!(real.get(&k).copied(), model.get(k));
                }
                LruOp::Insert(k, v) => {
                    assert_eq!(real.insert(k, v), model.insert(k, v));
                }
                LruOp::Remove(k) => {
                    assert_eq!(real.remove(&k), model.remove(k));
                }
                LruOp::PopLru => {
                    assert_eq!(real.pop_lru(), model.entries.pop_back());
                }
            }
            assert_eq!(real.len(), model.entries.len());
            assert!(real.len() <= cap);
        }
        // recency order fully matches
        let real_order: Vec<u16> = real.iter_mru().map(|(k, _)| *k).collect();
        let model_order: Vec<u16> = model.entries.iter().map(|&(k, _)| k).collect();
        assert_eq!(real_order, model_order);
    }
}

#[test]
fn multiserver_timing_invariants() {
    let mut rng = Rng::seed_from_u64(0x22C0_FFEE);
    for _ in 0..CASES {
        let servers = rng.range_inclusive(1, 5) as u32;
        let jobs = rng.range_inclusive(1, 199);
        let mut srv = MultiServer::new(servers);
        let mut now = SimTime::ZERO;
        let mut completions: Vec<(SimTime, SimTime, SimDuration)> = Vec::new();
        let mut total_service = SimDuration::ZERO;
        for _ in 0..jobs {
            now += SimDuration::from_micros(rng.below(10_000));
            let service = SimDuration::from_micros(rng.range_inclusive(1, 4_999));
            let done = srv.offer(now, service);
            // completion is never before arrival + service
            assert!(done >= now + service);
            completions.push((now, done, service));
            total_service += service;
        }
        // work conservation: total busy time across k servers within
        // [0, last completion] is exactly the sum of service times
        let horizon = completions.iter().map(|&(_, d, _)| d).max().expect("jobs");
        assert!(
            (srv.utilization(horizon)
                - total_service.as_secs_f64() / (horizon.as_secs_f64() * servers as f64))
                .abs()
                < 1e-9
        );
        // offers must be time-ordered
        for w in completions.windows(2) {
            let (a_now, _, _) = w[0];
            let (b_now, _, _) = w[1];
            assert!(b_now >= a_now, "offers must be time-ordered");
        }
    }
}

#[test]
fn resource_conserves_units() {
    let mut rng = Rng::seed_from_u64(0x33C0_FFEE);
    for _ in 0..CASES {
        let total = rng.range_inclusive(1, 4) as u32;
        let ops = rng.range_inclusive(1, 199);
        let mut r: Resource<u32> = Resource::new(total);
        let mut now = SimTime::ZERO;
        let mut outstanding = 0u32; // grants not yet released
        let mut queued = 0u32;
        let mut next_token = 0u32;
        for _ in 0..ops {
            let acquire = rng.chance(0.5);
            now += SimDuration::from_micros(10);
            if acquire {
                if r.acquire(now, next_token).is_some() {
                    outstanding += 1;
                } else {
                    queued += 1;
                }
                next_token += 1;
            } else if outstanding > 0 {
                match r.release(now) {
                    Some(_) => {
                        // unit transferred to a queued token
                        assert!(queued > 0);
                        queued -= 1;
                    }
                    None => {
                        outstanding -= 1;
                    }
                }
            }
            assert!(outstanding <= total);
            assert_eq!(r.in_use(), outstanding);
            assert_eq!(r.queue_len(), queued as usize);
            // a queue can only exist when all units are busy
            if queued > 0 {
                assert_eq!(outstanding, total);
            }
        }
    }
}

#[test]
fn calendar_pops_in_nondecreasing_time_order() {
    let mut rng = Rng::seed_from_u64(0x44C0_FFEE);
    for _ in 0..CASES {
        let n = rng.range_inclusive(1, 299) as usize;
        let mut cal = Calendar::new();
        for i in 0..n {
            cal.schedule(SimTime::from_nanos(rng.below(1_000_000)), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = cal.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, n);
    }
}

#[test]
fn rng_streams_are_reproducible() {
    let mut seeder = Rng::seed_from_u64(0x55C0_FFEE);
    for _ in 0..CASES {
        let seed = seeder.next_u64();
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // derived streams differ from the parent
        let mut d = Rng::seed_from_u64(seed).derive(1);
        let mut a2 = Rng::seed_from_u64(seed);
        let same = (0..16).all(|_| d.next_u64() == a2.next_u64());
        assert!(!same);
    }
}

/// Erlang-C: probability an arrival waits in an M/M/k queue.
fn erlang_c(k: usize, offered: f64) -> f64 {
    // offered load a = lambda/mu (in Erlangs), k servers
    let a = offered;
    let mut term = 1.0; // a^0/0!
    let mut sum = term;
    for n in 1..k {
        term *= a / n as f64;
        sum += term;
    }
    let ak = term * a / k as f64; // a^k/k!
    let rho = a / k as f64;
    let top = ak / (1.0 - rho);
    top / (sum + top)
}

#[test]
fn multiserver_matches_mmk_theory() {
    // Drive an M/M/k queue through the calendar + MultiServer exactly
    // as the simulator does and compare the mean wait against the
    // Erlang-C formula: Wq = C(k, a) / (k*mu - lambda).
    use desim::stats::RunningStat;
    for (k, lambda, mu) in [(1usize, 600.0f64, 1000.0), (4, 2500.0, 1000.0)] {
        let mut cal = Calendar::new();
        let mut srv = MultiServer::new(k as u32);
        let mut rng = Rng::seed_from_u64(99);
        let mut wait = RunningStat::new();
        #[derive(Debug)]
        enum Ev {
            Arrival,
        }
        cal.schedule(SimTime::ZERO, Ev::Arrival);
        let horizon = SimTime::from_secs(400);
        while let Some((now, ev)) = cal.pop() {
            if now > horizon {
                break;
            }
            match ev {
                Ev::Arrival => {
                    let svc = SimDuration::from_secs_f64(rng.exp(1.0 / mu));
                    let done = srv.offer(now, svc);
                    wait.record((done - now - svc).as_secs_f64());
                    let gap = SimDuration::from_secs_f64(rng.exp(1.0 / lambda));
                    cal.schedule(now + gap, Ev::Arrival);
                }
            }
        }
        let a = lambda / mu;
        let expect = erlang_c(k, a) / (k as f64 * mu - lambda);
        let measured = wait.mean();
        let rel = (measured - expect).abs() / expect;
        assert!(
            rel < 0.06,
            "M/M/{k} at rho={:.2}: measured Wq {measured:.6}s vs Erlang-C {expect:.6}s (rel {rel:.3})",
            a / k as f64
        );
    }
}
