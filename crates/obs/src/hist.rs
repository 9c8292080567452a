//! Lock-free latency histograms and the scoped timers that feed them.
//!
//! The bucketing arithmetic is [`crowd_stats::buckets::LogLinearBuckets`]
//! — the same shared layout math as `crowd_stats::Histogram`, here with
//! an atomic bucket array so any number of threads can record without a
//! lock. A recording is: one binary search over ~80 precomputed edges,
//! one relaxed `fetch_add` on the bucket, a CAS loop folding the value
//! into the running sum, and a monotone `fetch_max` on the max — no
//! allocation, no lock, no syscall.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crowd_stats::buckets::LogLinearBuckets;

/// The shared interior of a registered histogram.
#[derive(Debug)]
pub(crate) struct HistInner {
    layout: LogLinearBuckets,
    buckets: Box<[AtomicU64]>,
    /// Running sum of recorded values, stored as `f64` bits and folded
    /// in with a CAS loop (relaxed — the sum is a statistic, not a
    /// synchronisation point).
    sum_bits: AtomicU64,
    /// Largest recorded value, as `f64` bits. `f64::to_bits` is
    /// order-preserving for non-negative floats, so a plain integer
    /// `fetch_max` implements a float max.
    max_bits: AtomicU64,
}

impl HistInner {
    pub(crate) fn new(layout: LogLinearBuckets) -> Self {
        let buckets = (0..layout.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            layout,
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn record(&self, value: f64) {
        self.buckets[self.layout.index(value)].fetch_add(1, Ordering::Relaxed);
        if value.is_finite() && value > 0.0 {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
            self.max_bits.fetch_max(value.to_bits(), Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        // Buckets are read individually (each read atomic); the derived
        // count is their sum, so concurrent snapshots are monotone and
        // never under-report a bucket they over-count elsewhere.
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count: buckets.iter().sum(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            layout: self.layout.clone(),
            buckets,
        }
    }
}

/// A handle to a registered latency histogram. Cloning shares the
/// underlying buckets; handles are cheap to cache in a `OnceLock` at the
/// call site (the idiomatic pattern for hot paths).
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistInner>);

impl Histogram {
    /// Record one observation (typically seconds). No-op while recording
    /// is disabled. Non-positive and non-finite values land in the
    /// underflow bucket and leave sum/max untouched.
    #[inline]
    pub fn record(&self, value: f64) {
        if crate::enabled() {
            self.0.record(value);
        }
    }

    /// Start a scoped timer that records its elapsed seconds into this
    /// histogram when dropped (or explicitly [`Timer::stop`]ped). While
    /// recording is disabled the timer is a no-op that never reads the
    /// clock.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer {
            hist: self.clone(),
            start: crate::enabled().then(Instant::now),
        }
    }

    /// Observations recorded so far (sum over buckets).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }
}

/// A scoped timing guard from [`Histogram::start_timer`]: records the
/// elapsed wall time on drop, so early returns and unwinds are measured
/// exactly like the straight-line path.
#[derive(Debug)]
pub struct Timer {
    hist: Histogram,
    start: Option<Instant>,
}

impl Timer {
    /// Stop now, record, and return the elapsed seconds (0.0 when the
    /// timer was started while recording was disabled).
    pub fn stop(mut self) -> f64 {
        match self.start.take() {
            Some(t0) => {
                let dt = t0.elapsed().as_secs_f64();
                self.hist.record(dt);
                dt
            }
            None => 0.0,
        }
    }

    /// Abandon the timer without recording anything.
    pub fn discard(mut self) {
        self.start = None;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            self.hist.record(t0.elapsed().as_secs_f64());
        }
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// The registered metric name.
    pub name: String,
    /// Total observations (derived as the sum over buckets).
    pub count: u64,
    /// Sum of all positive finite observations.
    pub sum: f64,
    /// Largest positive observation (0.0 when none recorded).
    pub max: f64,
    /// The bucket layout (shared bucketing math from `crowd-stats`).
    pub layout: LogLinearBuckets,
    /// Per-bucket counts, underflow first, overflow last.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded positive observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile readout (`0.0 ..= 1.0`): the upper edge of
    /// the bucket holding the rank-`q` observation, capped at
    /// [`max`](Self::max) — an upper bound within one bucket's relative
    /// resolution that never reads above the largest observation.
    /// Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        let mut bucket = self.buckets.len() - 1;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                bucket = i;
                break;
            }
        }
        self.layout.quantile_edge(bucket).min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(_name: &str) -> Histogram {
        Histogram(Arc::new(
            HistInner::new(LogLinearBuckets::latency_seconds()),
        ))
    }

    #[test]
    fn records_land_in_the_right_buckets() {
        let h = fresh("t");
        h.record(3e-6);
        h.record(3e-6);
        h.record(0.5);
        h.record(-1.0); // underflow, not in sum/max
        h.record(f64::NAN); // underflow
        let s = h.0.snapshot("t");
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets[0], 2, "negative + NaN underflow");
        assert_eq!(s.buckets[s.layout.index(3e-6)], 2);
        assert!((s.sum - 0.500006).abs() < 1e-9);
        assert_eq!(s.max, 0.5);
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h = fresh("q");
        for _ in 0..95 {
            h.record(1e-3);
        }
        for _ in 0..5 {
            h.record(0.9);
        }
        let s = h.0.snapshot("q");
        let p50 = s.quantile(0.5);
        let p95 = s.quantile(0.95);
        let p99 = s.quantile(0.99);
        assert!((1e-3..=2e-3).contains(&p50), "p50 {p50}");
        assert!(p95 <= 2e-3, "p95 {p95} (rank 94 is still small)");
        assert!((0.9..=1.0).contains(&p99), "p99 {p99}");
        assert!(s.quantile(1.0) >= 0.9);
        assert_eq!(s.quantile(0.0), s.quantile(0.0)); // no NaN
    }

    #[test]
    fn quantiles_never_read_above_the_max() {
        // The largest observation sits low in its bucket, [0.1, 0.2):
        // the bucket's upper edge would overstate every tail quantile.
        let h = fresh("cap");
        for _ in 0..50 {
            h.record(1e-3);
        }
        for _ in 0..50 {
            h.record(0.101);
        }
        let s = h.0.snapshot("cap");
        assert_eq!(s.max, 0.101);
        for q in [0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), s.max, "q {q}");
        }
        assert!((1e-3..=2e-3).contains(&s.quantile(0.1)));
    }

    #[test]
    fn timer_records_once_on_drop_and_once_on_stop() {
        let h = fresh("t2");
        {
            let _t = h.start_timer();
        }
        let dt = h.start_timer().stop();
        assert!(dt >= 0.0);
        h.start_timer().discard();
        assert_eq!(h.count(), 2);
    }
}
