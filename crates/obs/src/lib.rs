//! # crowd-obs — the std-only observability spine
//!
//! The stack runs EM under budgets, drains bounded queues, fsyncs WALs,
//! and auto-restarts poisoned sessions; this crate is the runtime signal
//! for all of it — a process-global [`MetricsRegistry`] of named
//! [`Counter`]s, [`Gauge`]s (with built-in high-water marks), and
//! lock-free log-linear latency [`Histogram`]s, plus the scoped
//! [`Timer`] guards that feed them. Each event is recorded once, as a
//! metric, and the registry has one output: the JSON snapshot
//! ([`MetricsSnapshot::to_json`]) that `crowd-repro --metrics` prints
//! and every bench artifact embeds.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies** beyond `std` and the bucketing math shared
//!    with [`crowd_stats::buckets`] — the build environment is offline.
//! 2. **Cheap enough to leave on**: every record path is a handful of
//!    relaxed atomic ops; `crowd-serve-bench` prices them as
//!    `obs_overhead_ratio`, the mem-mode wall time with metrics on over
//!    metrics off.
//! 3. **Observation only**: nothing in this crate feeds back into
//!    inference — enabling or disabling metrics cannot perturb any
//!    output bit (pinned by the determinism guard in
//!    `crowd-stream`'s tests).
//!
//! ## Switching it off
//!
//! Recording is gated on one process-global flag, initialised from the
//! `CROWD_OBS` environment variable (`0`/`false`/`off` disable; unset,
//! empty, `1`/`true`/`on` enable; anything else warns once on stderr
//! and enables) and togglable at runtime with [`set_enabled`] — the
//! A/B switch the overhead bench uses. Disabled recording is a single
//! relaxed load; registration, snapshots, and reads keep working.
//!
//! ## Naming scheme
//!
//! Metric names are `layer.component.metric` (e.g.
//! `serve.wal.append_seconds`, `core.pool.queue_depth`); histograms of
//! durations end in `_seconds`, counters in `_total`. Each call site
//! holds its metric through a [`handle!`] function. See
//! ARCHITECTURE.md §observability for the full catalogue.
//!
//! ```
//! let reqs = crowd_obs::counter("doc.example.requests_total");
//! reqs.inc();
//! let lat = crowd_obs::histogram("doc.example.latency_seconds");
//! {
//!     let _t = lat.start_timer(); // records on drop
//! }
//! lat.record(3.2e-4);
//! let snap = crowd_obs::snapshot();
//! assert!(snap.counter("doc.example.requests_total") >= 1);
//! println!("{}", snap.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod render;

pub use hist::{Histogram, HistogramSnapshot, Timer};
pub use registry::{
    counter, gauge, histogram, snapshot, Counter, Gauge, GaugeSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use render::render_json;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-global record switch (see module docs). `OnceLock` holds
/// the env-derived initial value so tests and the overhead bench can
/// flip the live flag without racing env parsing.
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn enabled_flag() -> &'static AtomicBool {
    ENABLED.get_or_init(|| AtomicBool::new(enabled_from_env()))
}

/// `CROWD_OBS` parsing: empty/unset means on, recognised negatives turn
/// recording off, and anything unrecognised warns **once** on stderr and
/// stays on (same loud-malformed-env contract as `CROWD_THREADS`).
fn enabled_from_env() -> bool {
    let Ok(raw) = std::env::var("CROWD_OBS") else {
        return true;
    };
    let v = raw.trim().to_ascii_lowercase();
    match v.as_str() {
        "" | "1" | "true" | "on" | "yes" => true,
        "0" | "false" | "off" | "no" => false,
        _ => {
            static WARNED: OnceLock<()> = OnceLock::new();
            WARNED.get_or_init(|| {
                eprintln!(
                    "warning: unrecognised CROWD_OBS value {raw:?} \
                     (expected 0/1/true/false/on/off); metrics stay enabled"
                );
            });
            true
        }
    }
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turn recording on or off at runtime (process-global). Registration
/// and snapshots are unaffected; only new recordings are dropped while
/// off. This is the switch the serve bench uses to measure the
/// metrics-on vs metrics-off overhead in one process.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Define a cached metric handle: a function returning a `&'static`
/// [`Counter`], [`Gauge`] or [`Histogram`] that registers `name` on first
/// use and reads a `OnceLock` after that, so a hot path pays a couple of
/// atomic ops and never the registry's map lock. Doc attributes and a
/// visibility pass through to the function.
///
/// ```
/// crowd_obs::handle!(
///     /// Requests served.
///     requests, counter, "doc.handle.requests_total"
/// );
/// requests().inc();
/// assert!(crowd_obs::snapshot().counter("doc.handle.requests_total") >= 1);
/// ```
#[macro_export]
macro_rules! handle {
    ($(#[$attr:meta])* $vis:vis $fn_name:ident, counter, $name:literal) => {
        $(#[$attr])*
        $vis fn $fn_name() -> &'static $crate::Counter {
            static H: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::counter($name))
        }
    };
    ($(#[$attr:meta])* $vis:vis $fn_name:ident, gauge, $name:literal) => {
        $(#[$attr])*
        $vis fn $fn_name() -> &'static $crate::Gauge {
            static H: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::gauge($name))
        }
    };
    ($(#[$attr:meta])* $vis:vis $fn_name:ident, histogram, $name:literal) => {
        $(#[$attr])*
        $vis fn $fn_name() -> &'static $crate::Histogram {
            static H: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::histogram($name))
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_by_default() {
        // The suite runs without CROWD_OBS set, so recording starts
        // enabled. Toggling is covered by `tests/disabled.rs` in its own
        // process — flipping the process-global flag here would race the
        // sibling unit tests that record concurrently.
        assert!(enabled());
    }
}
