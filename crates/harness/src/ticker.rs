//! The live progress ticker: a sampling thread that reports what a
//! long harness run is doing, without touching it.
//!
//! The engine publishes coarse counters into a per-job
//! [`ProgressGauge`] (relaxed atomic stores every few thousand
//! events); this module's thread samples those gauges on a wall-clock
//! cadence and prints one stderr line per tick — jobs done/running,
//! aggregate event rate, simulated time reached, an ETA from committed
//! transactions, and current peak RSS. Strictly observer-only: the
//! sampler never writes into the simulation, and `sim/tests/progress.rs`
//! pins that a gauge-carrying run reports bit-identical metrics.
//! Everything goes to stderr, so captured stdout stays byte-identical
//! with the ticker on or off.

use crate::rss;
use dbshare_sim::ProgressGauge;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The registry shared between the pool's workers (who register a
/// gauge per running job) and the sampling thread (who only reads).
#[derive(Debug)]
pub struct TickerState {
    jobs_total: usize,
    jobs_done: AtomicUsize,
    /// Events from *finished* jobs; running jobs are sampled live.
    events_done: AtomicU64,
    active: Mutex<Vec<(String, Arc<ProgressGauge>)>>,
    stop: AtomicBool,
    started: Instant,
}

impl TickerState {
    fn new(jobs_total: usize) -> Self {
        TickerState {
            jobs_total,
            jobs_done: AtomicUsize::new(0),
            events_done: AtomicU64::new(0),
            active: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// Registers a job as running and returns the gauge its engine
    /// should publish into.
    pub fn register(&self, label: String) -> Arc<ProgressGauge> {
        let gauge = Arc::new(ProgressGauge::default());
        if let Ok(mut active) = self.active.lock() {
            active.push((label, gauge.clone()));
        }
        gauge
    }

    /// Retires a finished job's gauge, folding its final event count
    /// into the completed total.
    pub fn finish(&self, gauge: &Arc<ProgressGauge>, events_processed: u64) {
        if let Ok(mut active) = self.active.lock() {
            active.retain(|(_, g)| !Arc::ptr_eq(g, gauge));
        }
        self.events_done
            .fetch_add(events_processed, Ordering::Relaxed);
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// One tick's stderr line, from the current counters.
    fn line(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let done = self.jobs_done.load(Ordering::Relaxed);
        let snaps: Vec<(String, dbshare_sim::ProgressSnapshot)> = self
            .active
            .lock()
            .map(|active| {
                active
                    .iter()
                    .map(|(label, g)| (label.clone(), g.snapshot()))
                    .collect()
            })
            .unwrap_or_default();

        let live_events: u64 = snaps.iter().map(|(_, s)| s.events).sum();
        let events = self.events_done.load(Ordering::Relaxed) + live_events;
        let rate = events as f64 / elapsed;
        let sim_max = snaps.iter().map(|(_, s)| s.sim_seconds).fold(0.0, f64::max);
        let live_fraction: f64 = snaps.iter().map(|(_, s)| s.fraction()).sum();
        let fraction = if self.jobs_total == 0 {
            1.0
        } else {
            ((done as f64 + live_fraction) / self.jobs_total as f64).min(1.0)
        };

        let mut line = format!(
            "[tick {:>5.0}s] jobs {done}/{} ({} running) | {:.1}M ev/s | sim t={sim_max:.1}s",
            elapsed,
            self.jobs_total,
            snaps.len(),
            rate / 1e6,
        );
        if fraction > 0.0 && fraction < 1.0 {
            let eta = elapsed * (1.0 - fraction) / fraction;
            line.push_str(&format!(" | {:.0}% eta {eta:.0}s", fraction * 100.0));
        } else {
            line.push_str(&format!(" | {:.0}%", fraction * 100.0));
        }
        line.push_str(&format!(" | rss {} MB", rss::format_mb(rss::peak_rss_mb())));
        line
    }
}

/// The sampling thread. Create with [`Ticker::spawn`]; dropping it
/// stops and joins the thread (the harness drops it right after the
/// pool drains, so no tick outlives the run).
#[derive(Debug)]
pub struct Ticker {
    state: Arc<TickerState>,
    handle: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Spawns the sampler: one stderr line every `every`, until
    /// dropped. `jobs_total` scales the ETA.
    pub fn spawn(every: Duration, jobs_total: usize) -> Ticker {
        let state = Arc::new(TickerState::new(jobs_total));
        let sampler = state.clone();
        let handle = std::thread::spawn(move || {
            // Sleep in short slices so a finished run stops the ticker
            // promptly instead of waiting out a whole interval. The
            // slice scales with the interval (bounded at 250 ms of
            // shutdown latency) so a single-CPU host isn't preempted
            // 20 times a second for a slow tick cadence.
            let slice = (every / 4)
                .clamp(Duration::from_millis(50), Duration::from_millis(250))
                .min(every);
            let mut next = Instant::now() + every;
            while !sampler.stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                if sampler.stop.load(Ordering::Relaxed) {
                    break;
                }
                if Instant::now() >= next {
                    next += every;
                    eprintln!("{}", sampler.line());
                }
            }
        });
        Ticker {
            state,
            handle: Some(handle),
        }
    }

    /// The shared registry, for the pool's workers.
    pub fn state(&self) -> &Arc<TickerState> {
        &self.state
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_finish_and_line_track_job_lifecycle() {
        let state = TickerState::new(2);
        let gauge = state.register("PCL/NOFORCE n=64".into());
        gauge.snapshot(); // the sampler's read path works on a fresh gauge
        let line = state.line();
        assert!(line.contains("jobs 0/2 (1 running)"), "{line}");
        state.finish(&gauge, 1_000);
        let line = state.line();
        assert!(line.contains("jobs 1/2 (0 running)"), "{line}");
        assert!(line.contains("rss "), "{line}");
    }

    #[test]
    fn ticker_stops_on_drop() {
        let ticker = Ticker::spawn(Duration::from_secs(3600), 1);
        let state = ticker.state().clone();
        drop(ticker);
        assert!(state.stop.load(Ordering::Relaxed));
    }
}
