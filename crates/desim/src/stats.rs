//! Statistics collection: running moments, time-weighted averages,
//! histograms with percentiles, and batch means.

use crate::{SimDuration, SimTime};

/// Running scalar statistics (Welford's algorithm): count, mean,
/// variance, min, max.
///
/// ```rust
/// use desim::stats::RunningStat;
/// let mut s = RunningStat::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunningStat {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStat {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration observation in milliseconds.
    pub fn record_dur_ms(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStat) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all observations.
    pub fn reset(&mut self) {
        *self = RunningStat::new();
    }
}

/// A time-weighted average of a piecewise-constant signal (queue
/// lengths, busy-unit counts, buffer occupancy).
///
/// ```rust
/// use desim::{SimTime, stats::TimeWeighted};
/// let mut tw = TimeWeighted::new();
/// tw.set_current(2.0);                       // value 2 from t=0
/// tw.update(SimTime::from_secs(10), 0.0);    // ... until t=10, then 0
/// assert_eq!(tw.mean(SimTime::from_secs(20)), 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    integral: f64,
    current: f64,
    last_update: SimTime,
    window_start: SimTime,
}

impl TimeWeighted {
    /// Creates an accumulator starting at value 0 at time 0.
    pub fn new() -> Self {
        TimeWeighted::default()
    }

    /// Accumulates the current value up to `now`, then switches to `value`.
    pub fn update(&mut self, now: SimTime, value: f64) {
        if now > self.last_update {
            self.integral += self.current * (now - self.last_update).as_secs_f64();
            self.last_update = now;
        }
        self.current = value;
    }

    /// Overrides the current value without accumulating (used right
    /// after an `update` at the same instant).
    pub fn set_current(&mut self, value: f64) {
        self.current = value;
    }

    /// The accumulated integral (value × seconds) up to `now`, without
    /// mutating the accumulator. Snapshot-friendly: two calls at
    /// different instants can be differenced to get the integral over
    /// an arbitrary window.
    pub fn integral_at(&self, now: SimTime) -> f64 {
        let pending = if now > self.last_update {
            self.current * (now - self.last_update).as_secs_f64()
        } else {
            0.0
        };
        self.integral + pending
    }

    /// The time-weighted mean over `[window start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let pending = if now > self.last_update {
            self.current * (now - self.last_update).as_secs_f64()
        } else {
            0.0
        };
        let span = (now - self.window_start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            (self.integral + pending) / span
        }
    }

    /// Restarts the measurement window at `now`, carrying `value` as the
    /// current signal level.
    pub fn reset(&mut self, now: SimTime, value: f64) {
        self.integral = 0.0;
        self.current = value;
        self.last_update = now;
        self.window_start = now;
    }
}

/// A log-linear histogram of durations (HDR-style), giving cheap
/// percentile estimates with bounded relative error (~1/16).
///
/// ```rust
/// use desim::{SimDuration, stats::DurationHistogram};
/// let mut h = DurationHistogram::new();
/// for ms in 1..=100 { h.record(SimDuration::from_millis(ms)); }
/// let p50 = h.percentile(50.0).as_millis_f64();
/// assert!((45.0..=56.0).contains(&p50), "{p50}");
/// ```
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    /// buckets[b][s]: counts for magnitude b, sub-bucket s (16 per magnitude).
    buckets: Vec<[u64; 16]>,
    count: u64,
    sum: SimDuration,
    max: SimDuration,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl DurationHistogram {
    const SUB: u64 = 16;

    /// Creates an empty histogram covering 1 ns .. ~584 years.
    pub fn new() -> Self {
        DurationHistogram {
            buckets: vec![[0; 16]; 64],
            count: 0,
            sum: SimDuration::ZERO,
            max: SimDuration::ZERO,
        }
    }

    fn index(d: SimDuration) -> (usize, usize) {
        let v = d.as_nanos().max(1);
        let mag = 63 - v.leading_zeros() as usize; // floor(log2 v)
        if mag < 4 {
            (0, v as usize % 16)
        } else {
            let sub = ((v >> (mag - 4)) - Self::SUB) as usize;
            (mag - 3, sub)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let (b, s) = Self::index(d);
        self.buckets[b][s] += 1;
        self.count += 1;
        self.sum += d;
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean duration (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.sum / self.count
        }
    }

    /// Largest recorded duration.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Approximate `p`-th percentile (0 < p ≤ 100), upper bucket bound.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (b, subs) in self.buckets.iter().enumerate() {
            for (s, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= target {
                    let nanos = if b == 0 {
                        s as u64
                    } else {
                        let mag = b + 3;
                        (Self::SUB + s as u64) << (mag - 4)
                    };
                    // upper edge of the bucket
                    let width = if b == 0 { 1 } else { 1u64 << (b + 3 - 4) };
                    return SimDuration::from_nanos(nanos + width - 1);
                }
            }
        }
        self.max
    }

    /// Clears the histogram.
    pub fn reset(&mut self) {
        *self = DurationHistogram::new();
    }
}

/// Batch-means confidence intervals for a steady-state mean.
///
/// Observations are grouped into fixed-size batches; the half-width of
/// the 95% confidence interval is computed from the batch means
/// (Student-t with a normal approximation for many batches).
///
/// Memory is bounded: once [`BatchMeans::MAX_BATCHES`] batches have
/// completed, adjacent pairs of means are collapsed (exact, since the
/// batches are equal-sized) and the batch size doubles, so an
/// arbitrarily long run holds at most `MAX_BATCHES` stored means.
///
/// ```rust
/// use desim::stats::BatchMeans;
/// let mut bm = BatchMeans::new(100);
/// for i in 0..1_000 { bm.record((i % 10) as f64); }
/// assert_eq!(bm.batches(), 10);
/// // Every batch averages exactly 4.5, so the interval has no width.
/// assert_eq!(bm.ci95_half_width(), Some(0.0));
/// ```
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    in_batch: u64,
    batch_sum: f64,
    means: Vec<f64>,
}

impl BatchMeans {
    /// Stored-means ceiling; even, so pair-collapsing is always exact.
    pub const MAX_BATCHES: usize = 4096;

    /// Creates an accumulator with the given observations per batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            in_batch: 0,
            batch_sum: 0.0,
            means: Vec::new(),
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.batch_sum += x;
        self.in_batch += 1;
        if self.in_batch == self.batch_size {
            self.means.push(self.batch_sum / self.batch_size as f64);
            self.batch_sum = 0.0;
            self.in_batch = 0;
            if self.means.len() == Self::MAX_BATCHES {
                self.collapse();
            }
        }
    }

    /// Halves the stored means by averaging adjacent pairs and doubles
    /// the batch size. Equal-sized batches make the pairwise average
    /// the exact mean of the combined batch. The in-flight partial
    /// batch simply keeps filling toward the new, larger size.
    fn collapse(&mut self) {
        let half = self.means.len() / 2;
        for i in 0..half {
            self.means[i] = (self.means[2 * i] + self.means[2 * i + 1]) / 2.0;
        }
        self.means.truncate(half);
        self.batch_size *= 2;
    }

    /// Completed batches.
    pub fn batches(&self) -> usize {
        self.means.len()
    }

    /// Mean of completed batch means.
    fn grand_mean(&self) -> f64 {
        if self.means.is_empty() {
            0.0
        } else {
            self.means.iter().sum::<f64>() / self.means.len() as f64
        }
    }

    /// Half-width of the ~95% confidence interval on the mean (normal
    /// approximation; returns `None` with fewer than 2 batches).
    pub fn ci95_half_width(&self) -> Option<f64> {
        let k = self.means.len();
        if k < 2 {
            return None;
        }
        let mean = self.grand_mean();
        let var = self
            .means
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / (k - 1) as f64;
        Some(1.96 * (var / k as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stat_moments() {
        let mut s = RunningStat::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stat_empty_is_zero() {
        let s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn running_stat_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStat::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStat::new();
        let mut b = RunningStat::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_piecewise() {
        let mut tw = TimeWeighted::new();
        tw.update(SimTime::ZERO, 4.0); // 0 until t=0 (no-op), then 4
        tw.update(SimTime::from_secs(5), 2.0); // 4 for 5s, then 2
                                               // at t=10: (4*5 + 2*5)/10 = 3
        assert!((tw.mean(SimTime::from_secs(10)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset_window() {
        let mut tw = TimeWeighted::new();
        tw.update(SimTime::ZERO, 10.0);
        tw.reset(SimTime::from_secs(100), 1.0);
        assert!((tw.mean(SimTime::from_secs(110)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_bounded_error() {
        let mut h = DurationHistogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let est = h.percentile(p).as_micros_f64();
            let exact = 10_000.0 * p / 100.0;
            assert!(
                (est - exact).abs() <= exact * 0.08 + 1.0,
                "p{p}: est {est} exact {exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.mean().as_micros_f64() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_empty_and_tiny() {
        let mut h = DurationHistogram::new();
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        h.record(SimDuration::from_nanos(1));
        assert_eq!(h.count(), 1);
        assert!(h.percentile(100.0).as_nanos() >= 1);
    }

    #[test]
    fn histogram_max_tracked() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_millis(3));
        h.record(SimDuration::from_millis(77));
        assert_eq!(h.max(), SimDuration::from_millis(77));
    }

    #[test]
    fn batch_means_ci_shrinks() {
        let mut bm = BatchMeans::new(50);
        let mut rng = crate::Rng::seed_from_u64(1);
        for _ in 0..500 {
            bm.record(rng.exp(10.0));
        }
        let wide = bm.ci95_half_width().unwrap();
        for _ in 0..49_500 {
            bm.record(rng.exp(10.0));
        }
        let narrow = bm.ci95_half_width().unwrap();
        assert!(narrow < wide, "{narrow} !< {wide}");
        assert!((bm.grand_mean() - 10.0).abs() < 0.5);
    }

    #[test]
    fn batch_means_memory_stays_bounded() {
        // Enough observations for 3x the cap at the initial batch size.
        let mut bm = BatchMeans::new(4);
        let total = BatchMeans::MAX_BATCHES as u64 * 4 * 3;
        for i in 0..total {
            bm.record((i % 8) as f64);
        }
        assert!(bm.batches() < BatchMeans::MAX_BATCHES, "{}", bm.batches());
        assert!(bm.batch_size > 4, "batch size never doubled");
        // The pairwise collapse is exact for equal-sized batches, so
        // the grand mean over a periodic signal stays exact.
        assert!((bm.grand_mean() - 3.5).abs() < 1e-9, "{}", bm.grand_mean());
        assert!(bm.ci95_half_width().is_some());
    }

    #[test]
    fn batch_means_collapse_preserves_grand_mean() {
        // Same data fed to a capped accumulator and an uncapped
        // reference built from first principles.
        let mut bm = BatchMeans::new(1);
        let mut rng = crate::Rng::seed_from_u64(7);
        let mut sum = 0.0;
        let total = BatchMeans::MAX_BATCHES as u64 * 2;
        for _ in 0..total {
            let x = rng.exp(3.0);
            sum += x;
            bm.record(x);
        }
        assert!((bm.grand_mean() - sum / total as f64).abs() < 1e-9);
    }

    #[test]
    fn batch_means_needs_two_batches() {
        let mut bm = BatchMeans::new(10);
        for _ in 0..15 {
            bm.record(1.0);
        }
        assert_eq!(bm.batches(), 1);
        assert!(bm.ci95_half_width().is_none());
    }
}
