//! `crowd-obs-check` — structural validation of a `crowd-obs` metrics
//! dump, the CI obs-smoke gate.
//!
//! Accepts either a bare registry snapshot (the `crowd-repro --metrics`
//! output) or a bench artifact whose top level embeds one under
//! `"obs"`. Checks, exiting non-zero on the first violation:
//!
//! - the dump parses and carries `"schema": "crowd-obs/v1"`;
//! - every series the instrumented serve path must emit is present and
//!   non-trivial (`--expect-serve`, which the CI smoke job passes after
//!   running `crowd-serve-bench`);
//! - counters and gauge high-waters are non-negative;
//! - histograms are internally consistent: quantiles finite,
//!   non-negative, and monotone (p50 ≤ p95 ≤ p99), `sum`/`max`
//!   non-negative, every rendered bucket non-empty with `lo ≤ hi`, and
//!   the bucket counts adding up to `count` exactly.
//!
//! Usage: `crowd-obs-check <dump.json> [--expect-serve]`

use crowd_bench::json::{self, Json};
use std::process::ExitCode;

/// Counters the serve bench's workload cannot avoid incrementing.
const EXPECT_SERVE_COUNTERS: [&str; 12] = [
    "core.kernel.fused_rows_total",
    "core.pool.submits_total",
    "core.shard.dirty_rebuilds_total",
    "serve.ingest.answers_total",
    "serve.ingest.batches_total",
    "serve.recovery.sessions_recovered_total",
    "serve.snapshot.writes_total",
    "serve.truth.publishes_total",
    "serve.truth.reads_total",
    "serve.wal.appends_total",
    "stream.engine.batches_total",
    "stream.engine.warm_resumes_total",
];

/// Histograms likewise guaranteed non-empty by the serve bench.
const EXPECT_SERVE_HISTOGRAMS: [&str; 10] = [
    "core.kernel.estep_seconds",
    "core.pool.dispatch_seconds",
    "core.shard.estep_seconds",
    "core.shard.reduce_seconds",
    "serve.recovery.replay_seconds",
    "serve.shard.tick_seconds",
    "serve.truth.read_seconds",
    "serve.wal.append_seconds",
    "stream.engine.batch_push_seconds",
    "stream.engine.converge_seconds",
];

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing {key:?}"))
}

fn num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    let v = field(obj, key, ctx)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: {key:?} is not a number"))?;
    if !v.is_finite() {
        return Err(format!("{ctx}: {key:?} is not finite ({v})"));
    }
    if v < 0.0 {
        return Err(format!("{ctx}: {key:?} is negative ({v})"));
    }
    Ok(v)
}

fn check_histogram(name: &str, h: &Json) -> Result<(), String> {
    let ctx = format!("histogram {name:?}");
    let count = num(h, "count", &ctx)?;
    num(h, "sum", &ctx)?;
    num(h, "max", &ctx)?;
    num(h, "mean", &ctx)?;
    let p50 = num(h, "p50", &ctx)?;
    let p95 = num(h, "p95", &ctx)?;
    let p99 = num(h, "p99", &ctx)?;
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "{ctx}: quantiles not monotone (p50 {p50}, p95 {p95}, p99 {p99})"
        ));
    }
    let buckets = field(h, "buckets", &ctx)?
        .as_arr()
        .ok_or_else(|| format!("{ctx}: \"buckets\" is not an array"))?;
    let mut total = 0.0f64;
    for (i, b) in buckets.iter().enumerate() {
        let triple = b
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| format!("{ctx}: bucket {i} is not a [lo, hi, count] triple"))?;
        let lo = triple[0].as_num().unwrap_or(f64::NAN);
        let hi = triple[1].as_num().unwrap_or(f64::NAN);
        let c = triple[2].as_num().unwrap_or(f64::NAN);
        if !(lo.is_finite() && hi.is_finite() && lo >= 0.0 && hi >= lo) {
            return Err(format!("{ctx}: bucket {i} has bad bounds [{lo}, {hi}]"));
        }
        if !(c.is_finite() && c >= 1.0) {
            return Err(format!(
                "{ctx}: bucket {i} rendered with non-positive count {c}"
            ));
        }
        total += c;
    }
    if total != count {
        return Err(format!(
            "{ctx}: bucket counts sum to {total} but count is {count}"
        ));
    }
    Ok(())
}

fn check_snapshot(snap: &Json, expect_serve: bool) -> Result<(usize, usize, usize), String> {
    let schema = field(snap, "schema", "snapshot")?
        .as_str()
        .unwrap_or_default();
    if schema != "crowd-obs/v1" {
        return Err(format!("unexpected snapshot schema {schema:?}"));
    }

    let counters = field(snap, "counters", "snapshot")?
        .fields()
        .ok_or("snapshot: \"counters\" is not an object")?;
    for (name, v) in counters {
        let x = v
            .as_num()
            .ok_or_else(|| format!("counter {name:?} is not a number"))?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("counter {name:?} has bad value {x}"));
        }
    }

    let gauges = field(snap, "gauges", "snapshot")?
        .fields()
        .ok_or("snapshot: \"gauges\" is not an object")?;
    for (name, g) in gauges {
        let ctx = format!("gauge {name:?}");
        let value = field(g, "value", &ctx)?
            .as_num()
            .ok_or_else(|| format!("{ctx}: \"value\" is not a number"))?;
        let hw = num(g, "high_water", &ctx)?;
        if value > hw {
            return Err(format!("{ctx}: value {value} above high_water {hw}"));
        }
    }

    let hists = field(snap, "histograms", "snapshot")?
        .fields()
        .ok_or("snapshot: \"histograms\" is not an object")?;
    for (name, h) in hists {
        check_histogram(name, h)?;
    }

    if expect_serve {
        for name in EXPECT_SERVE_COUNTERS {
            let v = counters
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_num())
                .ok_or_else(|| format!("expected serve counter {name:?} missing"))?;
            if v == 0.0 {
                return Err(format!("expected serve counter {name:?} is zero"));
            }
        }
        for name in EXPECT_SERVE_HISTOGRAMS {
            let h = hists
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, h)| h)
                .ok_or_else(|| format!("expected serve histogram {name:?} missing"))?;
            if num(h, "count", name)? == 0.0 {
                return Err(format!("expected serve histogram {name:?} is empty"));
            }
        }
    }

    Ok((counters.len(), gauges.len(), hists.len()))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut expect_serve = false;
    for arg in &args {
        match arg.as_str() {
            "--expect-serve" => expect_serve = true,
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown flag {other}\nusage: crowd-obs-check <dump.json> [--expect-serve]"
                ));
            }
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("usage: crowd-obs-check <dump.json> [--expect-serve]".to_string());
                }
            }
        }
    }
    let path = path.ok_or("usage: crowd-obs-check <dump.json> [--expect-serve]")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;

    // Every bench artifact embeds the snapshot under "obs".
    let snap = root.get("obs").unwrap_or(&root);
    let (nc, ng, nh) = check_snapshot(snap, expect_serve)?;
    println!(
        "obs-check OK: {path} valid ({nc} counters, {ng} gauges, {nh} histograms{})",
        if expect_serve {
            ", serve series present"
        } else {
            ""
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("crowd-obs-check: {msg}");
            ExitCode::FAILURE
        }
    }
}
