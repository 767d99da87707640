//! Request-latency recording and the server's aggregate statistics.

use std::sync::Mutex;
use std::time::Duration;

use halide_runtime::PoolStats;

use crate::unpoison;

/// Samples a default [`LatencyRecorder`] retains. Percentiles are computed
/// over the most recent window of this size; older samples age out.
pub const DEFAULT_LATENCY_WINDOW: usize = 4096;

/// Collects per-request latencies in a fixed-size ring and summarizes the
/// retained window as percentiles.
///
/// Recording is a lock plus one slot write — **bounded memory no matter how
/// long the server lives**. A long-lived server recording every request into
/// a growing `Vec` would leak by design; the ring instead keeps the most
/// recent `window` samples (old ones are overwritten), which is also the
/// operationally useful distribution: percentiles over *current* traffic,
/// not the whole process lifetime. The total-recorded count stays monotone.
#[derive(Debug)]
pub struct LatencyRecorder {
    state: Mutex<Ring>,
    window: usize,
}

#[derive(Debug)]
struct Ring {
    samples_ms: Vec<f64>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Monotone count of everything ever recorded (survives aging-out).
    total: u64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// A recorder retaining the default window
    /// ([`DEFAULT_LATENCY_WINDOW`] samples).
    pub fn new() -> Self {
        Self::with_window(DEFAULT_LATENCY_WINDOW)
    }

    /// A recorder retaining the most recent `window` samples (at least 1).
    pub fn with_window(window: usize) -> Self {
        LatencyRecorder {
            state: Mutex::new(Ring {
                samples_ms: Vec::new(),
                next: 0,
                total: 0,
            }),
            window: window.max(1),
        }
    }

    /// Records one request's latency, overwriting the oldest retained sample
    /// once the window is full.
    pub fn record(&self, latency: Duration) {
        let ms = latency.as_secs_f64() * 1e3;
        let mut ring = unpoison(self.state.lock());
        if ring.samples_ms.len() < self.window {
            ring.samples_ms.push(ms);
        } else {
            let i = ring.next;
            ring.samples_ms[i] = ms;
        }
        ring.next = (ring.next + 1) % self.window;
        ring.total += 1;
    }

    /// Drops every retained sample and zeroes the total (for phase-separated
    /// benchmarking).
    pub fn reset(&self) {
        let mut ring = unpoison(self.state.lock());
        ring.samples_ms.clear();
        ring.next = 0;
        ring.total = 0;
    }

    /// Summarizes the retained window. `count` is the total ever recorded;
    /// the percentiles describe the most recent `window` samples.
    pub fn snapshot(&self) -> LatencyStats {
        let (mut samples, total) = {
            let ring = unpoison(self.state.lock());
            (ring.samples_ms.clone(), ring.total)
        };
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mut stats = LatencyStats::from_sorted(&samples);
        stats.count = total;
        stats
    }
}

/// Percentile summary of a latency distribution, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Total samples ever recorded (monotone; may exceed the retained
    /// window the percentiles are computed over).
    pub count: u64,
    /// Arithmetic mean of the retained window.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst retained sample.
    pub max_ms: f64,
}

impl LatencyStats {
    fn from_sorted(sorted: &[f64]) -> LatencyStats {
        if sorted.is_empty() {
            return LatencyStats::default();
        }
        LatencyStats {
            count: sorted.len() as u64,
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(sorted, 0.50),
            p95_ms: percentile(sorted, 0.95),
            p99_ms: percentile(sorted, 0.99),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A point-in-time view of everything a [`PipelineServer`] counts.
///
/// [`PipelineServer`]: crate::PipelineServer
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests served to completion.
    pub requests: u64,
    /// Requests rejected with `Overloaded` (the backpressure signal).
    pub rejected: u64,
    /// Requests shed with `DeadlineExceeded` before doing useful work.
    pub shed: u64,
    /// Requests served by fanning out another request's realization
    /// (coalescing followers).
    pub coalesced: u64,
    /// Pipeline realizations actually executed (each coalesced batch
    /// realizes once, however many requests it serves).
    pub realizations: u64,
    /// Requests that had to lower + compile their program (cache cold).
    pub cold_compiles: u64,
    /// Entries currently in the compiled-program cache.
    pub cached_programs: u64,
    /// Programs evicted from the cache to satisfy its budget.
    pub evicted_programs: u64,
    /// Latency distribution over served requests.
    pub latency: LatencyStats,
    /// Buffer-pool accounting (outputs and scratch combined).
    pub pool: PoolStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let rec = LatencyRecorder::new();
        for ms in 1..=100u64 {
            rec.record(Duration::from_millis(ms));
        }
        let s = rec.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        rec.reset();
        assert_eq!(rec.snapshot(), LatencyStats::default());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let rec = LatencyRecorder::new();
        rec.record(Duration::from_millis(7));
        let s = rec.snapshot();
        assert_eq!(
            (s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms),
            (7.0, 7.0, 7.0, 7.0)
        );
    }

    /// The ring bounds memory and computes percentiles over exactly the most
    /// recent `window` samples — pinned by recording a known 1..=1000 ramp
    /// into a 64-slot window, which must retain exactly 937..=1000.
    #[test]
    fn window_bounds_memory_and_tracks_recent_traffic() {
        let rec = LatencyRecorder::with_window(64);
        for ms in 1..=1000u64 {
            rec.record(Duration::from_millis(ms));
        }
        let s = rec.snapshot();
        assert_eq!(s.count, 1000, "total count stays monotone past the window");
        // Window holds 937..=1000; nearest-rank over 64 samples:
        // p50 -> rank 32 -> 968, p95 -> rank 61 -> 997, p99 -> rank 64 -> 1000.
        assert_eq!(s.p50_ms, 968.0);
        assert_eq!(s.p95_ms, 997.0);
        assert_eq!(s.p99_ms, 1000.0);
        assert_eq!(s.max_ms, 1000.0);
        assert!((s.mean_ms - 968.5).abs() < 1e-9);
        // And the retained storage is the window, not the stream.
        assert_eq!(rec.state.lock().unwrap().samples_ms.len(), 64);
    }

    /// Overwrite order is oldest-first: a ring of 4 fed 6 samples keeps the
    /// last 4, regardless of wrap position.
    #[test]
    fn ring_overwrites_oldest_first() {
        let rec = LatencyRecorder::with_window(4);
        for ms in [10u64, 20, 30, 40, 50, 60] {
            rec.record(Duration::from_millis(ms));
        }
        let s = rec.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.p50_ms, 40.0); // retained: 30 40 50 60
        assert_eq!(s.max_ms, 60.0);
        assert_eq!((s.mean_ms * 10.0).round() / 10.0, 45.0);
    }

    /// Filling the ring to exactly its window keeps every sample: nothing
    /// has aged out yet, even though the next record will overwrite slot 0.
    #[test]
    fn exactly_full_window_retains_every_sample() {
        let rec = LatencyRecorder::with_window(8);
        for ms in 1..=8u64 {
            rec.record(Duration::from_millis(ms));
        }
        let s = rec.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.p50_ms, 4.0); // nearest rank: ceil(0.50 * 8) = 4
        assert_eq!(s.p95_ms, 8.0); // ceil(0.95 * 8) = 8
        assert_eq!(s.p99_ms, 8.0);
        assert_eq!(s.max_ms, 8.0);
        assert!((s.mean_ms - 4.5).abs() < 1e-9);
        assert_eq!(rec.state.lock().unwrap().samples_ms.len(), 8);
    }

    /// The (window + 1)-th record evicts exactly the oldest sample and
    /// nothing else.
    #[test]
    fn window_plus_one_evicts_only_the_oldest() {
        let rec = LatencyRecorder::with_window(8);
        for ms in 1..=9u64 {
            rec.record(Duration::from_millis(ms));
        }
        let s = rec.snapshot();
        assert_eq!(s.count, 9, "total count keeps growing past the window");
        // Retained: 2..=9. The minimum shifted but the max did not.
        assert_eq!(s.p50_ms, 5.0); // rank 4 of [2..=9]
        assert_eq!(s.max_ms, 9.0);
        assert!((s.mean_ms - 5.5).abs() < 1e-9);
        assert_eq!(rec.state.lock().unwrap().samples_ms.len(), 8);
    }

    /// Nearest-rank with n = 2: p50 is the lower sample (rank 1), every
    /// higher percentile is the upper one (rank 2).
    #[test]
    fn two_samples_split_at_the_median() {
        let rec = LatencyRecorder::new();
        rec.record(Duration::from_millis(10));
        rec.record(Duration::from_millis(30));
        let s = rec.snapshot();
        assert_eq!(s.p50_ms, 10.0); // ceil(0.50 * 2) = rank 1
        assert_eq!(s.p95_ms, 30.0); // ceil(0.95 * 2) = rank 2
        assert_eq!(s.p99_ms, 30.0);
        assert_eq!(s.max_ms, 30.0);
        assert!((s.mean_ms - 20.0).abs() < 1e-9);
    }

    /// A degenerate all-equal distribution reports that value for every
    /// summary statistic — no interpolation artifacts.
    #[test]
    fn all_equal_samples_collapse_every_statistic() {
        let rec = LatencyRecorder::with_window(16);
        for _ in 0..40 {
            rec.record(Duration::from_millis(5));
        }
        let s = rec.snapshot();
        assert_eq!(s.count, 40);
        assert_eq!(
            (s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms, s.mean_ms),
            (5.0, 5.0, 5.0, 5.0, 5.0)
        );
    }
}
