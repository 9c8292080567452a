//! The process-global metrics registry.
//!
//! One [`MetricsRegistry`] per process, reached through the free
//! functions [`counter`], [`gauge`], and [`histogram`]: registration
//! takes a short mutex on the name map and hands back an `Arc` handle;
//! recording through a handle is lock-free. Hot call sites cache their
//! handle in a `OnceLock` so the map lock is paid once per site, not
//! per event.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crowd_stats::buckets::LogLinearBuckets;

use crate::hist::{HistInner, Histogram, HistogramSnapshot};

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one. No-op while recording is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. No-op while recording is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
pub(crate) struct GaugeInner {
    value: AtomicI64,
    high: AtomicI64,
}

/// An instantaneous level (queue depth, jobs in flight) with a built-in
/// high-water mark. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Set the level. No-op while recording is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.value.store(v, Ordering::Relaxed);
            self.0.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adjust the level by `delta` (negative to decrease). No-op while
    /// recording is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            let now = self.0.value.fetch_add(delta, Ordering::Relaxed) + delta;
            self.0.high.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set (0 if never set above 0).
    pub fn high_water(&self) -> i64 {
        self.0.high.load(Ordering::Relaxed)
    }
}

/// The named-metric registry. Normally used through the process-global
/// instance behind [`counter`]/[`gauge`]/[`histogram`]/[`snapshot`]; a
/// standalone registry is constructible for tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry (tests; production code uses the globals).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter map poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(GaugeInner::default())))
            .clone()
    }

    /// The histogram registered under `name` (default latency layout:
    /// 1µs–1000s log-linear), creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.hists.lock().expect("histogram map poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| {
                Histogram(Arc::new(
                    HistInner::new(LogLinearBuckets::latency_seconds()),
                ))
            })
            .clone()
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.value()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, g)| GaugeSnapshot {
                name: k.clone(),
                value: g.value(),
                high_water: g.high_water(),
            })
            .collect();
        let histograms = self
            .hists
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, h)| h.0.snapshot(k))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

fn global() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-global counter registered under `name`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The process-global gauge registered under `name`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// The process-global histogram registered under `name`.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// A point-in-time copy of every metric in the process-global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// One gauge's state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The registered metric name.
    pub name: String,
    /// Level at snapshot time.
    pub value: i64,
    /// Highest level ever recorded.
    pub high_water: i64,
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge states, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The named counter's value (0 when absent — an unregistered
    /// counter and a never-incremented one are indistinguishable).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render as a JSON object (schema `crowd-obs/v1`); see
    /// [`crate::render_json`].
    pub fn to_json(&self) -> String {
        crate::render_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_cell() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.y.z_total");
        let b = r.counter("x.y.z_total");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(r.snapshot().counter("x.y.z_total"), 4);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let r = MetricsRegistry::new();
        let g = r.gauge("q.depth");
        g.add(5);
        g.add(3);
        g.add(-6);
        assert_eq!(g.value(), 2);
        assert_eq!(g.high_water(), 8);
        g.set(1);
        let s = r.snapshot();
        let gs = s.gauge("q.depth").unwrap();
        assert_eq!((gs.value, gs.high_water), (1, 8));
    }

    #[test]
    fn global_registry_is_shared() {
        counter("obs.test.global_total").add(2);
        assert!(snapshot().counter("obs.test.global_total") >= 2);
    }
}
