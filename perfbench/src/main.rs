//! `perfbench` — the end-to-end benchmark of the paths the repository
//! serves: one Table-6 inference per cell (`table6`, whose traced run
//! also times the paper's quick reproduction) and the durable service's
//! ingest-to-visible freshness beside wait-free reads (`serve`).
//!
//! ```text
//! perfbench --workload <table6|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Raw and drift-rescaled timings, the reference times measured next to
//! them, and the spans of a traced run go to `.perfbench/` in the
//! working directory. `design.json` beside this package documents the
//! workloads, the metrics and the constants.

mod refloop;
mod report;
mod repro;
mod schedule;
mod serve;
mod stats;
mod table6;
mod trace;

use report::Values;

/// A seeded permutation of `0..n` (splitmix64 driving Fisher–Yates).
pub(crate) fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Every layer's busy time and call count, and the wall time of the
/// measured window that no layer span covers.
pub(crate) fn put_layer_report(v: &mut Values, layers: &trace::LayerReport, wall_s: f64) {
    for layer in trace::LAYERS {
        v.insert(
            format!("{layer}.busy_s"),
            layers.busy_s.get(layer).copied().unwrap_or(0.0),
        );
        v.insert(
            format!("{layer}.calls"),
            layers.calls.get(layer).copied().unwrap_or(0) as f64,
        );
    }
    let unattributed = (wall_s - layers.covered_s).max(0.0);
    v.insert("trace.wall_s".into(), wall_s);
    v.insert("trace.unattributed_s".into(), unattributed);
    v.insert("trace.unattributed_share".into(), unattributed / wall_s);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            report::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table6|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} kernels={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        crowd_stats::kernels::backend_name()
    );
    let outcome = match args.workload.as_str() {
        "table6" => table6::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    match outcome {
        Ok(outcome) => println!("{}", report::result_line(&outcome)),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(53, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..53).collect::<Vec<_>>());
        assert_eq!(a, shuffled(53, 1));
        assert_ne!(a, shuffled(53, 2));
        assert!(shuffled(0, 3).is_empty());
    }
}
