//! Queueing stations: FIFO multi-server delay stations and counted
//! resources with explicit waiter queues.

use crate::stats::TimeWeighted;
use crate::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A FIFO multi-server *delay station* (e.g., a disk, the GEM unit, or
/// the interconnection network).
///
/// Because service is FIFO and non-preemptive, the completion time of a
/// request is fully determined at request time: `offer` returns it
/// immediately and the caller schedules a calendar event for it. This
/// requires that requests are issued in non-decreasing time order,
/// which holds when `offer` is only called while processing the event
/// at the current simulation time.
///
/// ```rust
/// use desim::{MultiServer, SimTime, SimDuration};
/// let mut disk = MultiServer::new(1);
/// let t0 = SimTime::ZERO;
/// let d1 = disk.offer(t0, SimDuration::from_millis(15));
/// let d2 = disk.offer(t0, SimDuration::from_millis(15));
/// assert_eq!(d1, SimTime::from_millis(15));
/// assert_eq!(d2, SimTime::from_millis(30)); // queued behind the first
/// ```
#[derive(Debug)]
pub struct MultiServer {
    /// Next-free instants of the `k` servers (min-heap).
    free_at: BinaryHeap<Reverse<SimTime>>,
    servers: u32,
    busy: SimDuration,
    last_request: SimTime,
}

impl MultiServer {
    /// Creates a station with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "station needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers as usize);
        for _ in 0..servers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        MultiServer {
            free_at,
            servers,
            busy: SimDuration::ZERO,
            last_request: SimTime::ZERO,
        }
    }

    /// Submits a request of length `service` at time `now`; returns the
    /// completion instant (after any FIFO queueing delay).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes an earlier request
    /// (requests must arrive in time order for FIFO completion times to
    /// be computable at request time).
    pub fn offer(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        debug_assert!(
            now >= self.last_request,
            "offer() out of time order: {now} < {}",
            self.last_request
        );
        self.last_request = now;
        let Reverse(free) = self.free_at.pop().expect("server heap never empty");
        let start = now.max(free);
        let done = start + service;
        self.free_at.push(Reverse(done));
        self.busy += service;
        done
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Cumulative busy server-time accrued so far (full service is
    /// accrued at request time — see [`offer`](MultiServer::offer)).
    /// Snapshot-friendly: difference two readings to attribute busy
    /// time to a window (attributed to the *issue* window).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Utilization over `[0, now]`: busy server-time divided by
    /// available server-time.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (now.as_secs_f64() * self.servers as f64)
    }

    /// Resets accumulated statistics (e.g., at the end of warm-up) while
    /// leaving queue state intact. Utilization is then measured from
    /// `now` onwards.
    pub fn reset_stats(&mut self, _now: SimTime) {
        self.busy = SimDuration::ZERO;
    }

    /// Utilization measured over the window `(since, now]`, assuming
    /// `reset_stats(since)` was called at `since`.
    pub fn utilization_since(&self, since: SimTime, now: SimTime) -> f64 {
        let span = (now - since).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / (span * self.servers as f64)
    }
}

/// A counted resource (e.g., the CPUs of a node, or the
/// multiprogramming-level slots of the transaction manager) whose units
/// are explicitly acquired and released, with a FIFO queue of waiting
/// tokens of type `T`.
///
/// Unlike [`MultiServer`], holders keep their unit across an arbitrary
/// number of intervening events — required to model the paper's
/// *synchronous* GEM accesses, which keep the CPU busy until the GEM
/// operation completes.
///
/// ```rust
/// use desim::{Resource, SimTime};
/// let mut cpus: Resource<&str> = Resource::new(1);
/// let t = SimTime::ZERO;
/// assert_eq!(cpus.acquire(t, "job-a"), Some("job-a")); // granted
/// assert_eq!(cpus.acquire(t, "job-b"), None);          // queued
/// assert_eq!(cpus.release(t), Some(("job-b", t))); // unit passes to b
/// assert_eq!(cpus.release(t), None);          // unit becomes free
/// ```
#[derive(Debug)]
pub struct Resource<T> {
    total: u32,
    in_use: u32,
    queue: VecDeque<(T, SimTime)>,
    busy_integral: TimeWeighted,
    queue_integral: TimeWeighted,
}

impl<T> Resource<T> {
    /// Creates a resource with `total` units, all free.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "resource needs at least one unit");
        Resource {
            total,
            in_use: 0,
            queue: VecDeque::new(),
            busy_integral: TimeWeighted::new(),
            queue_integral: TimeWeighted::new(),
        }
    }

    /// Attempts to acquire one unit for `token` at time `now`.
    ///
    /// Returns `Some(token)` if granted immediately (the caller
    /// proceeds with the token) or `None` if the token was enqueued; it
    /// will be handed out by a later [`release`](Resource::release).
    #[must_use = "a granted token must be acted on"]
    pub fn acquire(&mut self, now: SimTime, token: T) -> Option<T> {
        if self.in_use < self.total && self.queue.is_empty() {
            self.busy_integral.update(now, f64::from(self.in_use));
            self.in_use += 1;
            self.busy_integral.set_current(f64::from(self.in_use));
            Some(token)
        } else {
            self.queue_integral.update(now, self.queue.len() as f64);
            self.queue.push_back((token, now));
            self.queue_integral.set_current(self.queue.len() as f64);
            None
        }
    }

    /// Releases one unit at time `now`.
    ///
    /// If a token is waiting, the unit passes directly to it and
    /// `Some((token, enqueue_time))` is returned — the caller must
    /// schedule that token's work starting at `now`. Otherwise the unit
    /// becomes free and `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if no unit is currently held.
    pub fn release(&mut self, now: SimTime) -> Option<(T, SimTime)> {
        assert!(self.in_use > 0, "release without acquire");
        if let Some((token, since)) = self.queue.pop_front() {
            self.queue_integral
                .update(now, self.queue.len() as f64 + 1.0);
            self.queue_integral.set_current(self.queue.len() as f64);
            Some((token, since))
        } else {
            self.busy_integral.update(now, f64::from(self.in_use));
            self.in_use -= 1;
            self.busy_integral.set_current(f64::from(self.in_use));
            None
        }
    }

    /// Units currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Total units.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Tokens currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The busy-units integral (unit-seconds) up to `now`, without
    /// mutating the accumulator. Difference two readings for the busy
    /// time inside an arbitrary window.
    pub fn busy_integral_at(&self, now: SimTime) -> f64 {
        self.busy_integral.integral_at(now)
    }

    /// Time-averaged number of busy units over `[stats start, now]`,
    /// divided by `total` — i.e., utilization.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.busy_integral.update(now, f64::from(self.in_use));
        self.busy_integral.mean(now) / f64::from(self.total)
    }

    /// Time-averaged queue length.
    pub fn mean_queue_len(&mut self, now: SimTime) -> f64 {
        self.queue_integral.update(now, self.queue.len() as f64);
        self.queue_integral.mean(now)
    }

    /// Restarts statistics windows at `now` (end of warm-up).
    pub fn reset_stats(&mut self, now: SimTime) {
        self.busy_integral.reset(now, f64::from(self.in_use));
        self.queue_integral.reset(now, self.queue.len() as f64);
    }

    /// Removes every queued token into `out` (failure handling: the
    /// waiters are redirected elsewhere). Held units are unaffected.
    /// The caller owns `out` so repeated drains reuse one buffer; it is
    /// appended to, not cleared.
    pub fn drain_queue_into(&mut self, now: SimTime, out: &mut Vec<T>) {
        self.queue_integral.update(now, self.queue.len() as f64);
        self.queue_integral.set_current(0.0);
        out.extend(self.queue.drain(..).map(|(t, _)| t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiserver_single_queues_fifo() {
        let mut s = MultiServer::new(1);
        let d1 = s.offer(SimTime::ZERO, SimDuration::from_millis(10));
        let d2 = s.offer(SimTime::from_millis(2), SimDuration::from_millis(10));
        let d3 = s.offer(SimTime::from_millis(25), SimDuration::from_millis(10));
        assert_eq!(d1, SimTime::from_millis(10));
        assert_eq!(d2, SimTime::from_millis(20)); // waited 8ms
        assert_eq!(d3, SimTime::from_millis(35)); // idle gap 20..25
    }

    #[test]
    fn multiserver_parallel_servers() {
        let mut s = MultiServer::new(2);
        let d1 = s.offer(SimTime::ZERO, SimDuration::from_millis(10));
        let d2 = s.offer(SimTime::ZERO, SimDuration::from_millis(10));
        let d3 = s.offer(SimTime::ZERO, SimDuration::from_millis(10));
        assert_eq!(d1, SimTime::from_millis(10));
        assert_eq!(d2, SimTime::from_millis(10));
        assert_eq!(d3, SimTime::from_millis(20));
    }

    #[test]
    fn multiserver_utilization() {
        let mut s = MultiServer::new(2);
        s.offer(SimTime::ZERO, SimDuration::from_millis(10));
        // one server busy 10ms of a 2x10ms window
        assert!((s.utilization(SimTime::from_millis(10)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiserver_utilization_since_reset() {
        let mut s = MultiServer::new(1);
        s.offer(SimTime::ZERO, SimDuration::from_millis(10));
        s.reset_stats(SimTime::from_millis(10));
        s.offer(SimTime::from_millis(10), SimDuration::from_millis(5));
        let u = s.utilization_since(SimTime::from_millis(10), SimTime::from_millis(20));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resource_grant_and_queue() {
        let mut r: Resource<u32> = Resource::new(2);
        assert_eq!(r.acquire(SimTime::ZERO, 1), Some(1));
        assert_eq!(r.acquire(SimTime::ZERO, 2), Some(2));
        assert_eq!(r.acquire(SimTime::ZERO, 3), None);
        assert_eq!(r.in_use(), 2);
        assert_eq!(r.queue_len(), 1);
        let (tok, since) = r.release(SimTime::from_millis(5)).unwrap();
        assert_eq!(tok, 3);
        assert_eq!(since, SimTime::ZERO);
        assert_eq!(r.in_use(), 2); // unit transferred, not freed
        assert!(r.release(SimTime::from_millis(6)).is_none());
        assert_eq!(r.in_use(), 1);
    }

    #[test]
    fn resource_fifo_order() {
        let mut r: Resource<u32> = Resource::new(1);
        assert_eq!(r.acquire(SimTime::ZERO, 0), Some(0));
        for i in 1..=5 {
            assert_eq!(r.acquire(SimTime::ZERO, i), None);
        }
        for i in 1..=5 {
            let (tok, _) = r.release(SimTime::from_millis(i as u64)).unwrap();
            assert_eq!(tok, i);
        }
    }

    #[test]
    fn resource_utilization_tracks_busy_time() {
        let mut r: Resource<()> = Resource::new(1);
        assert_eq!(r.acquire(SimTime::ZERO, ()), Some(()));
        r.release(SimTime::from_millis(5));
        // busy 5ms of 10ms
        let u = r.utilization(SimTime::from_millis(10));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn resource_release_underflow_panics() {
        let mut r: Resource<()> = Resource::new(1);
        r.release(SimTime::ZERO);
    }

    #[test]
    fn resource_drain_queue_into_reuses_buffer() {
        let mut r: Resource<u32> = Resource::new(1);
        assert_eq!(r.acquire(SimTime::ZERO, 0), Some(0));
        for i in 1..=3 {
            assert_eq!(r.acquire(SimTime::ZERO, i), None);
        }
        let mut out = Vec::new();
        r.drain_queue_into(SimTime::from_millis(1), &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(r.queue_len(), 0);
        assert_eq!(r.in_use(), 1); // held unit untouched
                                   // A second drain appends into the same (cleared) buffer.
        out.clear();
        assert_eq!(r.acquire(SimTime::from_millis(2), 9), None);
        r.drain_queue_into(SimTime::from_millis(3), &mut out);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn resource_reset_stats_window() {
        let mut r: Resource<()> = Resource::new(1);
        assert_eq!(r.acquire(SimTime::ZERO, ()), Some(()));
        r.reset_stats(SimTime::from_millis(100));
        // still busy from reset point
        let u = r.utilization(SimTime::from_millis(150));
        assert!((u - 1.0).abs() < 1e-9, "{u}");
    }
}
