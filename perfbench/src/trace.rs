//! Spans recorded by the benchmark's own code around every call into a
//! library layer (`--trace 1` only). Spans stay in memory and are written
//! out when the run ends; nothing inside the library is instrumented.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers, named after the crates and modules the benchmark calls.
pub const LAYERS: [&str; 11] = [
    "data",
    "views",
    "methods",
    "kernels",
    "experiments",
    "exec",
    "stream",
    "serve",
    "durable",
    "truth",
    "obs",
];

/// One recorded span. `count` is the number of calls it covers (a reader
/// records one span per chunk of reads, not one per read).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub thread: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    recorder();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Run `f` inside a span of `layer` (a no-op wrapper when recording is
/// off). Spans opened inside `f` on the same thread become its children.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_n(layer, name, 1, f)
}

/// [`span`] covering `count` calls.
pub fn span_n<T>(layer: &'static str, name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        thread: THREAD.with(|t| *t),
        layer,
        name,
        start_ns,
        end_ns,
        count,
    };
    recorder()
        .spans
        .lock()
        .expect("span buffer lock: no span push panics")
        .push(span);
    out
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span buffer lock: no span push panics")
        .clone()
}

/// The calling thread's id in span records.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// Per-layer totals of a traced run.
#[derive(Debug, Default, Clone)]
pub struct LayerReport {
    /// Self time per layer: span time minus the part its children cover.
    pub busy_s: BTreeMap<&'static str, f64>,
    /// Calls per layer.
    pub calls: BTreeMap<&'static str, u64>,
    /// Time inside the window covered by at least one layer span.
    pub covered_s: f64,
}

/// Busy time and call counts per layer over all `spans` (every thread,
/// probes included), and how much of the measured window
/// `[from_ns, to_ns)` the measuring `thread`'s spans cover.
pub fn layer_report(spans: &[Span], thread: u32, from_ns: u64, to_ns: u64) -> LayerReport {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut report = LayerReport::default();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *report.busy_s.entry(s.layer).or_default() += own as f64 * 1e-9;
        *report.calls.entry(s.layer).or_default() += s.count;
    }
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.thread == thread && s.start_ns >= from_ns && s.end_ns <= to_ns)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    report.covered_s = union_ns(&mut intervals) as f64 * 1e-9;
    report
}

/// Total length of the union of half-open intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        current = match current {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The spans as JSON lines, for the run's detail file.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            s.count
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        thread: u32,
        layer: &'static str,
        a: u64,
        b: u64,
    ) -> Span {
        Span {
            id,
            parent,
            thread,
            layer,
            name: "x",
            start_ns: a,
            end_ns: b,
            count: 1,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(&mut [(30, 40), (0, 10), (10, 15)]), 25);
    }

    #[test]
    fn busy_time_is_self_time_and_coverage_is_one_thread() {
        let spans = vec![
            span(1, None, 0, "serve", 0, 100),
            span(2, Some(1), 0, "stream", 10, 40),
            span(3, None, 0, "data", 200, 250),
            span(4, None, 1, "truth", 0, 1_000),
            span(5, None, 0, "data", 2_000, 3_000),
        ];
        let r = layer_report(&spans, 0, 0, 1_000);
        assert!((r.busy_s["serve"] - 70e-9).abs() < 1e-15);
        assert!((r.busy_s["stream"] - 30e-9).abs() < 1e-15);
        assert!((r.busy_s["truth"] - 1_000e-9).abs() < 1e-15);
        assert_eq!(r.calls["data"], 2, "busy time and calls count every span");
        assert!(
            (r.covered_s - 150e-9).abs() < 1e-15,
            "coverage counts the measuring thread inside the window only"
        );
    }
}
