//! The future event list.

use crate::SimTime;
use std::collections::VecDeque;

/// A far-lane entry. The ordering key packs `(time, seq)` into one
/// `u128` — time in the high 64 bits, insertion sequence in the low
/// 64 — so ordering decisions perform a single integer comparison
/// instead of two chained ones. The event payload itself lives in a
/// side slab and only its slot index rides in the entry: bucket scans
/// then walk 32-byte entries instead of the (much larger) event
/// values, which is where an event-loop-bound simulation spends most
/// of its memory traffic. Events scheduled earlier (in wall-clock
/// order of `schedule` calls) at the same instant fire first; this
/// FIFO tie-breaking is what makes runs deterministic regardless of
/// scheduler internals.
#[derive(Clone, Copy)]
struct Entry {
    /// `(time.as_nanos() << 64) | seq`.
    key: u128,
    /// Index of the event in the calendar's slab.
    slot: u32,
}

impl Entry {
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
}

/// Smallest / largest bucket-ring sizes (powers of two). The floor
/// keeps tiny calendars cheap; the ceiling bounds ring memory for
/// scale runs (65536 `Vec` headers ≈ 1.5 MB).
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;
/// Bucket width is `1 << shift` nanoseconds; the cap keeps day
/// arithmetic well inside u64 (2^40 ns ≈ 18 min per bucket).
const MAX_SHIFT: u32 = 40;

/// The far lane of the calendar: a classic bucketed *calendar queue*
/// (R. Brown, CACM 1988). Pending entries hash by "day" — their
/// timestamp divided by a power-of-two bucket width — into a ring of
/// buckets covering the horizon `[base_day, base_day + nbuckets)`;
/// entries beyond the horizon wait in an overflow list. Insertion is
/// O(1) (a shift, a mask, a `Vec::push`); popping scans the current
/// day's bucket for its minimum key, which is the *global* minimum
/// because every other bucket holds a strictly later day and the
/// overflow lies beyond the horizon entirely.
///
/// The bucket width and ring size adapt to the observed event
/// population on rebuild: width ≈ pending-time span / pending count
/// (the mean inter-event gap), ring size ≈ pending count — so in
/// steady state a bucket holds O(1) entries and both ends of the
/// queue run in amortized constant time, replacing the binary heap's
/// O(log n) sifts. All decisions are pure functions of the schedule /
/// pop sequence, so the pop order is bit-identical to the heap's:
/// keys are unique and both structures always yield the minimum.
struct FarLane {
    /// `buckets.len()` is a power of two; `mask = len - 1`. A day `d`
    /// within the horizon lives at `buckets[d & mask]`.
    buckets: Vec<Vec<Entry>>,
    mask: u64,
    /// Bucket width exponent: `day = time_nanos >> shift`.
    shift: u32,
    /// Day of the earliest possibly-nonempty bucket. Advances lazily
    /// as pops drain days; never decreases.
    base_day: u64,
    /// Entries currently in the ring.
    count: usize,
    /// Entries with `day >= base_day + nbuckets`, unordered.
    overflow: Vec<Entry>,
    /// Minimum key in `overflow` (`u128::MAX` when empty), so the
    /// per-advance migration check is O(1).
    overflow_min: u128,
    /// Whether the bucket at `base_day` is sorted descending by key
    /// (minimum at the back). Buckets are unsorted until the day they
    /// cover becomes current: sorting is paid once per day, pops are
    /// then O(1) from the back, and same-day inserts keep the order by
    /// binary insertion. Future-day buckets never pay for ordering
    /// they may not need (a rebuild can redistribute them wholesale).
    cur_sorted: bool,
}

impl FarLane {
    fn new() -> Self {
        FarLane {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            shift: 20, // 1 ms buckets until the first rebuild adapts
            base_day: 0,
            count: 0,
            overflow: Vec::new(),
            overflow_min: u128::MAX,
            cur_sorted: false,
        }
    }

    #[inline]
    fn day_of(&self, key: u128) -> u64 {
        ((key >> 64) as u64) >> self.shift
    }

    fn len(&self) -> usize {
        self.count + self.overflow.len()
    }

    /// Inserts an entry. `now_ns` is the calendar clock — the anchor a
    /// grow-rebuild must not advance past, since any *future* insert
    /// can still arrive at any time ≥ now.
    #[inline]
    fn insert(&mut self, e: Entry, now_ns: u64) {
        let day = self.day_of(e.key);
        debug_assert!(day >= self.base_day);
        if day - self.base_day < self.buckets.len() as u64 {
            self.place(e, day);
            self.count += 1;
            if self.count > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
                self.rebuild(now_ns);
            }
        } else {
            self.overflow_min = self.overflow_min.min(e.key);
            self.overflow.push(e);
        }
    }

    /// Places an in-horizon entry into its day's bucket, preserving the
    /// current bucket's descending sort when it has one.
    #[inline]
    fn place(&mut self, e: Entry, day: u64) {
        let b = &mut self.buckets[(day & self.mask) as usize];
        if day == self.base_day && self.cur_sorted {
            // Keys are unique, so `partition_point` lands on the exact
            // slot that keeps the bucket strictly descending. Near-now
            // continuations (the common case) sit close to the back:
            // the memmove is a handful of 16-byte entries.
            let pos = b.partition_point(|x| x.key > e.key);
            b.insert(pos, e);
        } else {
            b.push(e);
        }
    }

    /// Removes and returns the minimum-key entry, plus the number of
    /// remaining far entries sharing its *time* (the caller tracks
    /// same-instant stragglers to interleave with the near lane).
    fn pop(&mut self) -> Option<(Entry, usize)> {
        if self.count == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            // Pull the overflow into a fresh horizon anchored at its
            // minimum — that entry is popped right away and becomes the
            // new `now`, so the anchor never outruns the clock. With
            // the anchor *on* the minimum, the first bucket is
            // guaranteed nonempty: no rebase can loop.
            self.rebuild((self.overflow_min >> 64) as u64);
            debug_assert!(self.count > 0);
        }
        loop {
            let idx = (self.base_day & self.mask) as usize;
            if self.buckets[idx].is_empty() {
                self.base_day += 1;
                self.cur_sorted = false;
                self.migrate_due_overflow();
                continue;
            }
            let b = &mut self.buckets[idx];
            if !self.cur_sorted {
                // First pop from this day: order it once (descending,
                // minimum at the back), then every further pop is O(1)
                // and same-day inserts binary-insert into place.
                b.sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
                self.cur_sorted = true;
            }
            let e = b.pop().expect("bucket checked nonempty");
            // All far entries at the minimum's *time* live in this same
            // bucket (same day ⇒ same bucket), contiguous at the back
            // of the descending sort.
            let min_t = e.key >> 64;
            let same = b
                .iter()
                .rev()
                .take_while(|x| (x.key >> 64) == min_t)
                .count();
            self.count -= 1;
            if self.count * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
                // Anchor at the entry being popped: it becomes `now`
                // before the caller can schedule anything else.
                self.rebuild((e.key >> 64) as u64);
            }
            return Some((e, same));
        }
    }

    /// Time of the minimum-key entry without removing it.
    fn peek_time(&self) -> Option<SimTime> {
        if self.count > 0 {
            for d in 0..self.buckets.len() as u64 {
                let b = &self.buckets[((self.base_day + d) & self.mask) as usize];
                if let Some(min) = b.iter().map(|e| e.key).min() {
                    return Some(SimTime::from_nanos((min >> 64) as u64));
                }
            }
            unreachable!("count > 0 but all buckets empty");
        }
        if self.overflow.is_empty() {
            None
        } else {
            Some(SimTime::from_nanos((self.overflow_min >> 64) as u64))
        }
    }

    /// Moves overflow entries whose day has entered the horizon into
    /// the ring. O(1) unless entries actually became due.
    fn migrate_due_overflow(&mut self) {
        let horizon = self.base_day + self.buckets.len() as u64;
        if self.overflow.is_empty() || self.day_of(self.overflow_min) >= horizon {
            return;
        }
        let mut new_min = u128::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let e = self.overflow[i];
            let day = self.day_of(e.key);
            if day < horizon {
                self.overflow.swap_remove(i);
                self.place(e, day);
                self.count += 1;
            } else {
                new_min = new_min.min(e.key);
                i += 1;
            }
        }
        self.overflow_min = new_min;
    }

    /// Re-derives the ring size and bucket width from the pending
    /// population and redistributes every entry. Ring size tracks the
    /// entry count; width tracks the mean gap between `anchor_ns` and
    /// the latest pending entry — together they put O(1) entries in
    /// each occupied day while guaranteeing the horizon reaches the
    /// whole population (width is rounded *up* to a power of two).
    /// Deterministic: a pure function of the pending entries and the
    /// anchor, which itself comes from the schedule/pop sequence.
    ///
    /// `anchor_ns` must not exceed the time of any pending entry or of
    /// any entry the caller may insert before the next rebuild; the
    /// new `base_day` sits on it.
    fn rebuild(&mut self, anchor_ns: u64) {
        self.cur_sorted = false;
        let mut all: Vec<Entry> = Vec::with_capacity(self.len());
        for b in &mut self.buckets {
            all.append(b);
        }
        all.append(&mut self.overflow);
        self.overflow_min = u128::MAX;
        self.count = 0;

        let nbuckets = all
            .len()
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        if nbuckets != self.buckets.len() {
            // Every bucket is empty here (drained into `all`), so a
            // resize in either direction only moves empty Vecs.
            self.buckets.resize_with(nbuckets, Vec::new);
            self.mask = (nbuckets - 1) as u64;
        }

        if all.is_empty() {
            // Keep shift/base_day: the next insert lands relative to
            // the current clock, wherever that is.
            return;
        }
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for e in &all {
            let t = (e.key >> 64) as u64;
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        let anchor = anchor_ns.min(min_t);
        // Round the width up (ceil log2) so `span / width <= count <=
        // nbuckets`: every entry fits in the horizon unless the shift
        // cap truncates truly enormous spans into the overflow.
        let ideal = ((max_t - anchor) / all.len() as u64).max(1);
        let shift = if ideal <= 1 {
            0
        } else {
            64 - (ideal - 1).leading_zeros()
        };
        self.shift = shift.min(MAX_SHIFT);
        self.base_day = anchor >> self.shift;
        for e in all {
            let day = self.day_of(e.key);
            if day - self.base_day < self.buckets.len() as u64 {
                self.buckets[(day & self.mask) as usize].push(e);
                self.count += 1;
            } else {
                self.overflow_min = self.overflow_min.min(e.key);
                self.overflow.push(e);
            }
        }
    }
}

/// The future event list of a simulation run.
///
/// Events of type `E` are scheduled at absolute [`SimTime`]s and popped
/// in non-decreasing time order. Ties are broken by insertion order.
///
/// Internally the calendar is two-tier: events scheduled *at the
/// current instant* — the dominant pattern on the engine's CPU-dispatch
/// and protocol paths, where a handler schedules its continuation at
/// `now` — go to a FIFO "near lane" (`VecDeque`, O(1) push/pop) and
/// never touch the far lane. Events with a genuinely future timestamp
/// go to a bucketed calendar queue (the "far lane") with O(1) amortized
/// insertion and extraction.
///
/// The FIFO tie-break contract is preserved exactly: a far entry at
/// time `t` was necessarily scheduled before the clock reached `t`,
/// hence before any lane entry (which is created at `now == t`), and
/// sequence numbers are globally monotonic — so draining the far
/// lane's `t`-entries before the near lane reproduces insertion order.
///
/// ```rust
/// use desim::{Calendar, SimTime};
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_millis(2), "second");
/// cal.schedule(SimTime::from_millis(1), "first");
/// assert_eq!(cal.pop(), Some((SimTime::from_millis(1), "first")));
/// assert_eq!(cal.pop(), Some((SimTime::from_millis(2), "second")));
/// assert_eq!(cal.pop(), None);
/// ```
pub struct Calendar<E> {
    far: FarLane,
    /// Event payloads of far entries; `Entry::slot` indexes here.
    /// Slots are recycled through `free`, so the slab's size tracks the
    /// peak number of pending events, not the total ever scheduled.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// Events at `time == now`, in insertion order. Invariant: every
    /// lane entry's timestamp equals `now`, and its seq is greater than
    /// any far entry's seq at that same timestamp.
    lane: VecDeque<E>,
    /// Far entries whose time equals `now` (they predate — and must
    /// fire before — every near-lane entry). Maintained by far pops;
    /// while the near lane is nonempty, `schedule(now, ..)` goes to
    /// the near lane, so inserts can never raise this count.
    far_at_now: usize,
    next_seq: u64,
    now: SimTime,
    scheduled: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar positioned at time zero.
    pub fn new() -> Self {
        Calendar {
            far: FarLane::new(),
            slab: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            far_at_now: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            scheduled: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past of the last popped event — a
    /// causality violation that would silently corrupt results.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        if at == self.now && self.now != SimTime::ZERO {
            // Same-instant continuation: O(1), bypasses the far lane.
            // Time zero is excluded so that pre-run setup (scheduled
            // before the first pop, while `now` is still zero) orders
            // through the far lane like any other future event.
            self.lane.push_back(event);
        } else {
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slab[s as usize] = Some(event);
                    s
                }
                None => {
                    self.slab.push(Some(event));
                    (self.slab.len() - 1) as u32
                }
            };
            self.far.insert(
                Entry {
                    key: pack(at, seq),
                    slot,
                },
                self.now.as_nanos(),
            );
        }
    }

    /// Removes and returns the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Far entries at `now` predate every lane entry (smaller seq),
        // so drain them first; the lane only fires once the far lane's
        // next event lies strictly in the future.
        if self.lane.is_empty() || self.far_at_now > 0 {
            if let Some((entry, same_time_left)) = self.far.pop() {
                let t = entry.time();
                debug_assert!(t >= self.now);
                self.now = t;
                self.far_at_now = same_time_left;
                let event = self.slab[entry.slot as usize]
                    .take()
                    .expect("far entry has a slab payload");
                self.free.push(entry.slot);
                return Some((t, event));
            }
        }
        self.lane.pop_front().map(|e| (self.now, e))
    }

    /// The time of the most recently popped event (the current clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.lane.is_empty() {
            // Lane entries are at `now`; nothing in the far lane can be
            // earlier.
            return Some(self.now);
        }
        self.far.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.far.len() + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.far.len() == 0 && self.lane.is_empty()
    }

    /// Total number of events ever scheduled (for diagnostics).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }
}

impl<E> std::fmt::Debug for Calendar<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calendar")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("near_lane", &self.lane.len())
            .field("total_scheduled", &self.scheduled)
            .field("far_buckets", &self.far.buckets.len())
            .field("far_shift", &self.far.shift)
            .field("far_overflow", &self.far.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(5), 5);
        cal.schedule(SimTime::from_millis(1), 1);
        cal.schedule(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(7), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(10), ());
        cal.pop();
        cal.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(1), "a");
        let (t, _) = cal.pop().unwrap();
        cal.schedule(t + crate::SimDuration::from_millis(1), "b");
        cal.schedule(t, "same-time"); // same instant as current clock: allowed
        assert_eq!(cal.pop().unwrap().1, "same-time");
        assert_eq!(cal.pop().unwrap().1, "b");
        assert!(cal.is_empty());
        assert_eq!(cal.total_scheduled(), 3);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek_time(), None);
        cal.schedule(SimTime::from_micros(9), ());
        cal.schedule(SimTime::from_micros(4), ());
        assert_eq!(cal.peek_time(), Some(SimTime::from_micros(4)));
        assert_eq!(cal.len(), 2);
    }

    /// The lane optimization must not reorder far entries and lane
    /// entries that share a timestamp: far-resident events scheduled
    /// *before* the clock reached `t` fire before same-time events
    /// scheduled *at* `t`.
    #[test]
    fn lane_respects_fifo_against_far() {
        let mut cal = Calendar::new();
        let t = SimTime::from_millis(3);
        cal.schedule(SimTime::from_millis(1), "start");
        cal.schedule(t, "far-1"); // scheduled while now < t
        cal.schedule(t, "far-2");
        assert_eq!(cal.pop().unwrap().1, "start");
        assert_eq!(cal.pop().unwrap().1, "far-1"); // clock is now t
        cal.schedule(t, "lane-1"); // same-instant: near lane
        cal.schedule(t, "lane-2");
        assert_eq!(cal.peek_time(), Some(t));
        // far-2 (seq 2) precedes lane-1 (seq 3): insertion order holds.
        assert_eq!(cal.pop().unwrap().1, "far-2");
        assert_eq!(cal.pop().unwrap().1, "lane-1");
        assert_eq!(cal.pop().unwrap().1, "lane-2");
        assert!(cal.pop().is_none());
    }

    /// Lane entries fire before any strictly-later far entry.
    #[test]
    fn lane_fires_before_future_far_events() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(1), "a");
        cal.pop();
        cal.schedule(SimTime::from_millis(9), "future");
        cal.schedule(SimTime::from_millis(1), "lane");
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(cal.pop().unwrap(), (SimTime::from_millis(1), "lane"));
        assert_eq!(cal.pop().unwrap(), (SimTime::from_millis(9), "future"));
    }

    /// A dense burst of same-instant events mixed with future ones —
    /// the CPU-server churn pattern — keeps global FIFO order.
    #[test]
    fn same_time_churn_keeps_global_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_millis(1), 0u32);
        let mut popped = Vec::new();
        let mut next = 1u32;
        while let Some((t, e)) = cal.pop() {
            popped.push(e);
            if next < 40 {
                // alternate same-instant and +1ms continuations
                cal.schedule(t, next);
                next += 1;
                cal.schedule(t + crate::SimDuration::from_millis(1), next);
                next += 1;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped.len(), 41);
        assert_eq!(sorted, (0..41).collect::<Vec<_>>());
    }

    /// Far-future events land in the overflow list and still pop in
    /// exact order once the horizon reaches them.
    #[test]
    fn overflow_events_pop_in_order() {
        let mut cal = Calendar::new();
        // Widely spread timestamps force overflow at the default width.
        for i in (0..200u64).rev() {
            cal.schedule(SimTime::from_millis(1 + i * 3_600_000), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    // -- property tests vs a BinaryHeap reference model ----------------

    /// The reference model: the exact pre-calendar-queue scheduler — a
    /// BinaryHeap of (time, seq) with FIFO tie-break and the same
    /// near-lane rule.
    struct HeapModel {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
        vals: std::collections::HashMap<u64, u64>,
        lane: VecDeque<(u64, u64)>,
        next_seq: u64,
        now: u64,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: Default::default(),
                vals: Default::default(),
                lane: Default::default(),
                next_seq: 0,
                now: 0,
            }
        }

        fn schedule(&mut self, at: u64, v: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            if at == self.now && self.now != 0 {
                self.lane.push_back((seq, v));
            } else {
                self.heap.push(std::cmp::Reverse((at, seq)));
                self.vals.insert(seq, v);
            }
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            if let Some(std::cmp::Reverse((t, _))) = self.heap.peek() {
                if self.lane.is_empty() || *t == self.now {
                    let std::cmp::Reverse((t, seq)) = self.heap.pop().unwrap();
                    self.now = t;
                    return Some((t, self.vals.remove(&seq).unwrap()));
                }
            }
            self.lane.pop_front().map(|(_, v)| (self.now, v))
        }
    }

    /// Deterministic xorshift so the property tests need no external
    /// RNG crate.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Random interleavings of schedule/pop with clustered, uniform,
    /// and far-future timestamps: the calendar queue must agree with
    /// the heap model on every popped (time, value) pair — this pins
    /// the global insertion-sequence tie-break across bucket sizing,
    /// overflow migration, and rebuilds.
    #[test]
    fn matches_heap_reference_on_random_interleavings() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        for case in 0..30 {
            let mut cal = Calendar::new();
            let mut model = HeapModel::new();
            let mut val = 0u64;
            let ops = 500 + (xorshift(&mut seed) % 1500) as usize;
            for _ in 0..ops {
                let r = xorshift(&mut seed);
                if r % 100 < 60 {
                    // Schedule: mix of near-now, uniform, and far-future
                    // offsets to exercise every lane of the structure.
                    let offset_ns = match r % 7 {
                        0 => 0,                                       // at `now`
                        1..=3 => xorshift(&mut seed) % 1_000_000,     // < 1 ms
                        4 | 5 => xorshift(&mut seed) % 1_000_000_000, // < 1 s
                        _ => xorshift(&mut seed) % 3_600_000_000_000, // < 1 h
                    };
                    let now = cal.now().as_nanos();
                    let at = now + offset_ns;
                    cal.schedule(SimTime::from_nanos(at), val);
                    model.schedule(at, val);
                    val += 1;
                } else {
                    let got = cal.pop().map(|(t, v)| (t.as_nanos(), v));
                    let want = model.pop();
                    assert_eq!(got, want, "case {case}: pop diverged");
                }
            }
            // Drain both completely; the tails must agree too.
            loop {
                let got = cal.pop().map(|(t, v)| (t.as_nanos(), v));
                let want = model.pop();
                assert_eq!(got, want, "case {case}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
            assert!(cal.is_empty());
        }
    }

    /// Same property, burst-shaped: long stretches of identical
    /// timestamps (worst case for bucket clustering) interleaved with
    /// jumps, so rebuilds see zero-span populations.
    #[test]
    fn matches_heap_reference_on_bursty_timestamps() {
        let mut seed = 0xfeed_face_cafe_beefu64;
        for case in 0..10 {
            let mut cal = Calendar::new();
            let mut model = HeapModel::new();
            let mut val = 0u64;
            let mut t = 1u64;
            for _ in 0..80 {
                let burst = 1 + (xorshift(&mut seed) % 50) as usize;
                for _ in 0..burst {
                    cal.schedule(SimTime::from_nanos(t), val);
                    model.schedule(t, val);
                    val += 1;
                }
                let pops = (xorshift(&mut seed) % 40) as usize;
                for _ in 0..pops {
                    let got = cal.pop().map(|(time, v)| (time.as_nanos(), v));
                    assert_eq!(got, model.pop(), "case {case}: pop diverged");
                    if got.is_none() {
                        break;
                    }
                }
                t = cal.now().as_nanos().max(t) + 1 + xorshift(&mut seed) % 10_000_000_000;
            }
            loop {
                let got = cal.pop().map(|(time, v)| (time.as_nanos(), v));
                assert_eq!(got, model.pop(), "case {case}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// peek_time always matches the next pop, across ring, overflow,
    /// and near-lane states.
    #[test]
    fn peek_agrees_with_pop_under_churn() {
        let mut seed = 0x0dd0_ba11_5eed_2026u64;
        let mut cal = Calendar::new();
        let mut val = 0u64;
        for _ in 0..2000 {
            let r = xorshift(&mut seed);
            if r % 10 < 6 {
                let at = cal.now().as_nanos() + xorshift(&mut seed) % 100_000_000_000;
                cal.schedule(SimTime::from_nanos(at), val);
                val += 1;
            } else {
                let peeked = cal.peek_time();
                let popped = cal.pop();
                assert_eq!(peeked, popped.map(|(t, _)| t));
            }
        }
    }
}
