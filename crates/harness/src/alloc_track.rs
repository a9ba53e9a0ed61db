//! Heap-allocation accounting for perf regression tracking.
//!
//! [`CountingAlloc`] is a `GlobalAlloc` wrapper around the system
//! allocator that bumps *thread-local* counters on every `alloc` /
//! `alloc_zeroed` / `realloc` / `dealloc`. Binaries that want
//! allocation numbers (the `repro` CLI, the allocation-regression and
//! memory tests) install it with `#[global_allocator]`; everything else
//! links the plain system allocator and the counters read zero.
//!
//! The counters are thread-local on purpose: every harness job runs
//! start-to-finish on one worker thread, so the pool can attribute
//! allocator traffic to a job by snapshotting [`thread_allocs`] /
//! [`thread_alloc_bytes`] around `RunSpec::execute` with no
//! synchronization and no cross-job bleed, and can read the job's peak
//! heap as [`thread_peak_bytes`] after a [`reset_thread_peak`] at job
//! start. The thread-locals are const-initialized `Cell`s — no lazy
//! initialization and no destructor, so reading them from inside the
//! allocator cannot recurse into the allocator or touch torn-down TLS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Heap allocations (`alloc` + `realloc` calls) this thread has
/// performed since it started, when [`CountingAlloc`] is installed.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap bytes this thread has requested since it started, when
/// [`CountingAlloc`] is installed.
pub fn thread_alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Heap bytes this thread has allocated and not freed, when
/// [`CountingAlloc`] is installed. A free counts against the thread
/// that performs it, so the figure goes negative on a thread that
/// frees more than it allocated.
pub fn thread_live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The largest [`thread_live_bytes`] since the thread started or since
/// its last [`reset_thread_peak`].
pub fn thread_peak_bytes() -> i64 {
    PEAK.with(Cell::get)
}

/// Restarts this thread's high-water mark at its current live bytes.
pub fn reset_thread_peak() {
    PEAK.with(|p| p.set(thread_live_bytes()));
}

#[inline]
fn note(bytes: usize) {
    // `try_with` so a (theoretical) access after TLS teardown degrades
    // to "not counted" instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

#[inline]
fn grow(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

/// A counting wrapper around [`System`]. Install with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install `CountingAlloc`, so the
    // counters must stay zero no matter how much the test allocates —
    // exactly the behavior the sim-crate tests rely on.
    #[test]
    fn counters_read_zero_without_installation() {
        let before = (thread_allocs(), thread_alloc_bytes(), thread_live_bytes());
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(v.len(), 1000);
        let after = (thread_allocs(), thread_alloc_bytes(), thread_live_bytes());
        assert_eq!(after, before);
    }

    #[test]
    fn note_bumps_both_counters() {
        let (a0, b0) = (thread_allocs(), thread_alloc_bytes());
        note(48);
        note(16);
        assert_eq!(thread_allocs(), a0 + 2);
        assert_eq!(thread_alloc_bytes(), b0 + 64);
    }

    #[test]
    fn the_peak_holds_the_high_water_mark_until_reset() {
        let live0 = thread_live_bytes();
        reset_thread_peak();
        grow(100);
        grow(-60);
        grow(30);
        assert_eq!(thread_live_bytes(), live0 + 70);
        assert_eq!(thread_peak_bytes(), live0 + 100);
        reset_thread_peak();
        assert_eq!(thread_peak_bytes(), live0 + 70);
        grow(-70);
        assert_eq!(thread_peak_bytes(), live0 + 70);
    }
}
