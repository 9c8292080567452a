//! The drift guard: a fixed reference loop timed next to every
//! compute-bound section, and the host's steal counters read around it,
//! so a timing can be restated at the speed the host had when the
//! nominal time was recorded.
//!
//! The loop is benchmark-only code and never changes with the library,
//! so a change in its time is a change in the host, not in the program.
//! It has two halves: a dependent chain of multiply-adds, square roots
//! and divisions on a handful of registers, which tracks the core's
//! clock; and a churn of short-lived small vectors, which tracks the
//! allocator and cache contention that a shared host adds. Neither
//! tracks contended atomics, so read-path timings are not rescaled.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::Timed;

/// Iterations of the floating-point chain (about 0.5 ms).
const ITERATIONS: u32 = 40_000;
/// Rounds and rows of the allocation churn (about 0.5 ms).
const CHURN_ROUNDS: u32 = 4;
const CHURN_ROWS: u32 = 2_000;

/// Median seconds of one reference run, recorded on the host the bounds
/// were set on (2 vCPUs, release build); rescaled timings are stated at
/// this speed.
pub const NOMINAL_S: f64 = 0.001_1;

#[inline(never)]
fn chain(iterations: u32, seed: f64) -> f64 {
    let (mut a, mut b, mut c) = (seed, seed * 0.5, seed * 0.25);
    for _ in 0..iterations {
        a = a.mul_add(0.999_999_7, 1.0e-3).sqrt() + 0.5;
        b = (b * 1.000_000_3 + a) / (1.0 + b);
        c = c.mul_add(0.5, b * 1.0e-3);
    }
    a + b + c
}

/// Short-lived small vectors, built, read and freed: the allocator and
/// cache traffic that a published snapshot or an EM buffer costs.
#[inline(never)]
fn churn(rounds: u32) -> f64 {
    let mut acc = 0.0;
    for r in 0..rounds {
        let rows: Vec<Vec<f64>> = (0..CHURN_ROWS).map(|i| vec![f64::from(i + r); 2]).collect();
        let sums: Vec<f64> = black_box(&rows).iter().map(|x| x[0] * 0.5 + x[1]).collect();
        acc += black_box(sums)[CHURN_ROWS as usize / 2];
    }
    acc
}

/// Seconds one run of the reference loop takes now.
pub fn measure() -> f64 {
    let start = Instant::now();
    black_box(chain(black_box(ITERATIONS), black_box(1.25)));
    black_box(churn(black_box(CHURN_ROUNDS)));
    start.elapsed().as_secs_f64()
}

/// The VM's CPU time as the host accounts it (`/proc/stat`, in clock
/// ticks): time it ran and time it was runnable but the host ran another
/// guest instead (steal). A shared host can take a third of the time
/// away for seconds at a stretch; the reference loop, timed in short
/// runs, cannot see that, so timings are also scaled by the share of
/// CPU time the host left the VM.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostClock {
    busy: u64,
    steal: u64,
}

impl HostClock {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        Self {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time the VM wanted since `earlier` that the host
    /// withheld (0 when nothing was measured).
    pub fn stolen_since(&self, earlier: &HostClock) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            0.0
        } else {
            (steal as f64 / (busy + steal) as f64).min(0.9)
        }
    }
}

/// Run `f` `n` times (at least once), each beside the reference loop,
/// and return the last output; each earlier one is dropped, untimed,
/// before the next run. Every timing carries the share the host stole
/// over all `n` runs (set-up repeats are too short to count steal one by
/// one).
pub fn repeated<T>(n: usize, mut f: impl FnMut(usize) -> T) -> (T, Vec<Timed>) {
    let clock = HostClock::now();
    let mut last = None;
    let mut times = Vec::with_capacity(n);
    for k in 0..n.max(1) {
        drop(last.take());
        let (out, raw, reference) = around(|| f(k));
        last = Some(out);
        times.push((raw, reference));
    }
    let stolen = HostClock::now().stolen_since(&clock);
    let times = times
        .into_iter()
        .map(|(raw, reference)| Timed {
            raw,
            reference,
            stolen,
        })
        .collect();
    (last.expect("at least one run"), times)
}

/// [`around`], with the share the host stole over the section.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let clock = HostClock::now();
    let (out, raw, reference) = around(f);
    let stolen = HostClock::now().stolen_since(&clock);
    (
        out,
        Timed {
            raw,
            reference,
            stolen,
        },
    )
}

/// The reference time next to a section: the mean of one run before and
/// one after it, so drift during the section is split evenly.
pub fn around<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = measure();
    let start = Instant::now();
    let out = f();
    let raw = start.elapsed().as_secs_f64();
    let after = measure();
    (out, raw, 0.5 * (before + after))
}
