//! Snapshot rendering: hand-rolled JSON (the `crowd_bench::json` style —
//! no serde in the offline build).

use std::fmt::Write as _;

use crate::registry::MetricsSnapshot;

/// JSON-escape a metric name (names are ASCII `layer.component.metric`,
/// but the renderer must not emit broken JSON on any input).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON number token — never `NaN`/`inf` (both are invalid
/// JSON); non-finite values render as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9}")
    } else {
        "0".to_string()
    }
}

/// Render a snapshot as a JSON object:
///
/// ```json
/// {
///   "schema": "crowd-obs/v1",
///   "counters": {"serve.wal.appends_total": 12},
///   "gauges": {"serve.ingest.queue_depth": {"value": 0, "high_water": 384}},
///   "histograms": {
///     "serve.wal.append_seconds": {
///       "count": 12, "sum": 0.001, "max": 0.0002, "mean": 0.00008,
///       "p50": 0.0001, "p95": 0.0002, "p99": 0.0002,
///       "buckets": [[1e-05, 2e-05, 7], [2e-05, 3e-05, 5]]
///     }
///   }
/// }
/// ```
///
/// Histogram `buckets` list only the non-empty buckets as
/// `[lo, hi, count]` triples (the overflow bucket's `hi` is rendered as
/// its finite lower edge — JSON has no `inf`).
pub fn render_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"crowd-obs/v1\",\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {v}", esc(name));
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, g) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    \"{}\": {{\"value\": {}, \"high_water\": {}}}",
            esc(&g.name),
            g.value,
            g.high_water
        );
    }
    if !snap.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, h) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
             \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            esc(&h.name),
            h.count,
            num(h.sum),
            num(h.max),
            num(h.mean()),
            num(h.quantile(0.50)),
            num(h.quantile(0.95)),
            num(h.quantile(0.99)),
        );
        let mut first = true;
        for (b, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = h.layout.bounds(b);
            let hi = if hi.is_finite() { hi } else { lo };
            let _ = write!(
                out,
                "{}[{}, {}, {c}]",
                if first { "" } else { ", " },
                num(lo),
                num(hi)
            );
            first = false;
        }
        out.push_str("]}");
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}");
    out
}

#[cfg(test)]
mod tests {
    use crate::registry::MetricsRegistry;

    #[test]
    fn json_dump_has_all_sections_and_no_nan() {
        let r = MetricsRegistry::new();
        r.counter("a.b.c_total").add(3);
        r.gauge("a.b.depth").set(7);
        r.histogram("a.b.lat_seconds").record(2e-4);
        r.histogram("a.b.empty_seconds"); // registered, never recorded
        let j = r.snapshot().to_json();
        assert!(j.contains("\"schema\": \"crowd-obs/v1\""));
        assert!(j.contains("\"a.b.c_total\": 3"));
        assert!(j.contains("\"value\": 7, \"high_water\": 7"));
        assert!(j.contains("\"a.b.lat_seconds\""));
        assert!(j.contains("\"count\": 1"));
        assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
        // Balanced braces (cheap well-formedness check; the bench crate
        // re-parses the full dump with its real JSON reader).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON"
        );
    }
}
