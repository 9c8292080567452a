//! The metric registry, the result line and the detail file.
//!
//! Every workload reports the same end-to-end names (with `--trace 0`)
//! and the same per-layer names (with `--trace 1`), each measured on the
//! workload's own path. A per-layer metric of a layer that a workload
//! does not call reads 0 there; `design.json` names the workload each
//! one is measured on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::LAYERS;

pub const WORKLOADS: [&str; 2] = ["table6", "serve"];

/// `(name, unit, better)` of the end-to-end metrics, in output order.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("rss_peak_mb", "MB", "lower"),
    ("job_s", "s", "lower"),
    ("op_typical_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
];

/// The methods of Table 6, as metric-name stems.
pub const METHOD_STEMS: [&str; 17] = [
    "mv", "zc", "glad", "ds", "minimax", "bcc", "cbcc", "lfc", "catd", "pm", "multi", "kos",
    "vi_bp", "vi_mf", "lfc_n", "mean", "median",
];

/// The experiments of the quick reproduction, in `crowd-repro` order.
pub const EXPERIMENTS: [&str; 17] = [
    "example",
    "table5",
    "consistency",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table6",
    "table7",
    "fig7",
    "fig8",
    "fig9",
    "streaming",
    "assignment",
    "advisor",
    "ablation",
];

/// A per-layer metric: name, unit, direction, and the workload that must
/// measure it (`None`: every workload does).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub owner: Option<&'static str>,
}

fn m(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    owner: Option<&'static str>,
) -> LayerMetric {
    LayerMetric {
        name: name.into(),
        unit,
        better,
        owner,
    }
}

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<LayerMetric> {
    let (t6, serve) = (Some("table6"), Some("serve"));
    let mut v = Vec::new();
    for layer in LAYERS {
        v.push(m(format!("{layer}.busy_s"), "s", "lower", None));
        v.push(m(format!("{layer}.calls"), "count", "lower", None));
    }
    v.push(m("trace.wall_s", "s", "lower", None));
    v.push(m("trace.unattributed_s", "s", "lower", None));
    v.push(m("trace.unattributed_share", "ratio", "lower", None));
    v.push(m("trace.overhead_share", "ratio", "lower", None));
    v.push(m("data.generate_s", "s", "lower", t6));
    v.push(m("views.cat_build_s", "s", "lower", t6));
    v.push(m("views.build_share", "ratio", "lower", t6));
    for stem in METHOD_STEMS {
        v.push(m(format!("methods.{stem}.infer_s"), "s", "lower", t6));
        v.push(m(
            format!("methods.{stem}.iterations"),
            "count",
            "lower",
            t6,
        ));
    }
    for k in [
        "exp_slice",
        "ln_slice",
        "log_normalize_rows_flat",
        "log_sum_exp_rows_flat",
    ] {
        v.push(m(format!("kernels.{k}_ns"), "ns", "lower", t6));
    }
    for e in EXPERIMENTS {
        v.push(m(format!("experiments.{e}_s"), "s", "lower", t6));
    }
    v.push(m("experiments.lost_cells", "count", "lower", t6));
    v.push(m("exec.submit_roundtrip_s", "s", "lower", serve));
    v.push(m("exec.parallel_chunks_s", "s", "lower", serve));
    v.push(m("stream.push_batch_s", "s", "lower", serve));
    v.push(m("stream.converge_s", "s", "lower", serve));
    v.push(m("stream.sync_shards_s", "s", "lower", serve));
    v.push(m("stream.converge_iterations", "count", "lower", serve));
    v.push(m("serve.submit_s", "s", "lower", serve));
    v.push(m("serve.tick_s", "s", "lower", serve));
    v.push(m("serve.tick_overhead_s", "s", "lower", serve));
    v.push(m("serve.queue_wait_s", "s", "lower", serve));
    v.push(m("serve.busy_frac", "ratio", "lower", serve));
    v.push(m("serve.backlog_answers_max", "count", "lower", serve));
    v.push(m("serve.churn_s", "s", "lower", serve));
    v.push(m("serve.generator_late_s", "s", "lower", serve));
    v.push(m("serve.capacity_answers_per_s", "1/s", "higher", serve));
    v.push(m("durable.wal_bytes_per_answer", "B", "lower", serve));
    v.push(m("truth.read_idle_ns", "ns", "lower", serve));
    v.push(m("truth.read_obs_off_ns", "ns", "lower", serve));
    v.push(m("truth.reads_per_s", "1/s", "higher", serve));
    v.push(m("truth.read_p50_s", "s", "lower", serve));
    v.push(m("truth.read_p99_s", "s", "lower", serve));
    v.push(m("truth.fanout_reads_per_s", "1/s", "higher", serve));
    v.push(m("obs.read_overhead_ns", "ns", "lower", serve));
    v.push(m("obs.fanout_reads_per_s_off", "1/s", "higher", serve));
    v
}

/// Values a workload measured, by metric name.
pub type Values = BTreeMap<String, f64>;

/// What a run prints: operations attempted and failed, and its metrics.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Check and order a workload's end-to-end values: exactly the
/// registered names, each finite and above zero.
pub fn end_to_end(values: &Values) -> Result<Vec<(String, f64, &'static str)>, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !END_TO_END.iter().any(|(n, _, _)| n == k))
    {
        return Err(format!("unregistered end-to-end metric {extra}"));
    }
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| match values.get(name) {
            Some(&v) if v.is_finite() && v > 0.0 => Ok((name.to_string(), v, unit)),
            Some(&v) => Err(format!("end-to-end metric {name} = {v} is not positive")),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

/// Check and order a workload's per-layer values: no unregistered name,
/// every metric the workload owns present, the rest 0.
pub fn per_layer_values(
    workload: &str,
    values: &Values,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let registry = per_layer();
    if let Some(extra) = values
        .keys()
        .find(|k| !registry.iter().any(|m| &m.name == *k))
    {
        return Err(format!("unregistered per-layer metric {extra}"));
    }
    registry
        .into_iter()
        .map(|m| {
            let owned = m.owner.is_none_or(|o| o == workload);
            match values.get(&m.name) {
                Some(&v) if v.is_finite() => Ok((m.name, v, m.unit)),
                Some(&v) => Err(format!("per-layer metric {} = {v} is not finite", m.name)),
                None if owned => Err(format!("{workload} did not measure {}", m.name)),
                None => Ok((m.name, 0.0, m.unit)),
            }
        })
        .collect()
}

/// The result line.
pub fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a run leaves its detail file and scratch files, relative to the
/// checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench";

/// A flat JSON object of numbers.
pub fn json_object(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:?}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Write the run's detail file: its end-to-end values rescaled and raw,
/// every timed section, and the spans of a traced run.
pub fn write_details(
    workload: &str,
    seed: u64,
    traced: bool,
    rescaled: &Values,
    raw: &Values,
    timings: &[String],
) {
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nominal_ref_s\":{:?},\"rescaled\":{},\"raw\":{},\"timings\":[{}],\"spans\":{}}}",
        crate::refloop::NOMINAL_S,
        json_object(rescaled),
        json_object(raw),
        timings.join(",\n"),
        crate::trace::spans_json(&crate::trace::spans())
    );
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ));
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("perfbench: details in {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// One timed section for the detail file: raw seconds, the reference
/// time measured next to it, the host's stolen share, and the rescaled
/// seconds.
pub fn timed_json(label: &str, t: &crate::stats::Timed) -> String {
    format!(
        "{{\"section\":\"{label}\",\"raw_s\":{:?},\"ref_s\":{:?},\"stolen\":{:?},\"rescaled_s\":{:?}}}",
        t.raw,
        t.reference,
        t.stolen,
        t.rescaled(crate::refloop::NOMINAL_S)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quoted string values of key `key` inside the JSON array that
    /// follows `"section":` in `text` (enough of a parser for a file this
    /// repository writes itself).
    fn names_in(text: &str, section: &str, key: &str) -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let open = start + text[start..].find('[').expect("array");
        let mut depth = 0;
        let mut close = open;
        for (i, c) in text[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &text[open..close];
        let pat = format!("\"{key}\": \"");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &body[i + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let text = benchmark_json();
        let workloads = names_in(&text, "workloads", "name");
        assert_eq!(workloads, WORKLOADS);
        let e2e = names_in(&text, "end_to_end", "name");
        let e2e_units = names_in(&text, "end_to_end", "unit");
        let e2e_better = names_in(&text, "end_to_end", "better");
        let want: Vec<_> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(e2e, want);
        let want_units: Vec<_> = END_TO_END.iter().map(|(_, u, _)| u.to_string()).collect();
        assert_eq!(e2e_units, want_units);
        let want_better: Vec<_> = END_TO_END.iter().map(|(_, _, b)| b.to_string()).collect();
        assert_eq!(e2e_better, want_better);
        let layer = per_layer();
        assert_eq!(
            names_in(&text, "per_layer", "name"),
            layer.iter().map(|m| m.name.clone()).collect::<Vec<_>>()
        );
        assert_eq!(
            names_in(&text, "per_layer", "unit"),
            layer.iter().map(|m| m.unit.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(
            names_in(&text, "per_layer", "better"),
            layer
                .iter()
                .map(|m| m.better.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn design_names_every_per_layer_metric_with_its_workload() {
        let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/design.json"))
            .expect("design.json beside the benchmark");
        for m in per_layer() {
            let owner = m.owner.unwrap_or("all");
            let entry = format!("\"{}\": {{\"workload\": \"{owner}\"", m.name);
            assert!(design.contains(&entry), "design.json lacks {entry}");
        }
        for (name, _, _) in END_TO_END {
            for w in WORKLOADS {
                assert!(
                    design.contains(&format!("\"{w}.{name}\"")),
                    "design.json lacks {w}.{name}"
                );
            }
        }
    }

    #[test]
    fn each_workload_emits_exactly_the_registered_names() {
        let mut values: Values = END_TO_END
            .iter()
            .map(|(n, _, _)| (n.to_string(), 1.0))
            .collect();
        let out = end_to_end(&values).expect("complete");
        assert_eq!(out.len(), END_TO_END.len());
        values.insert("t6_sweep_s".into(), 1.0);
        assert!(end_to_end(&values).is_err(), "an extra name is refused");
        values.remove("t6_sweep_s");
        values.remove("job_s");
        assert!(end_to_end(&values).is_err(), "a missing name is refused");
        values.insert("job_s".into(), 0.0);
        assert!(end_to_end(&values).is_err(), "a zero is refused");

        let registry = per_layer();
        for w in WORKLOADS {
            let owned: Values = registry
                .iter()
                .filter(|m| m.owner.is_none_or(|o| o == w))
                .map(|m| (m.name.clone(), 1.0))
                .collect();
            let out = per_layer_values(w, &owned).expect("owned metrics suffice");
            assert_eq!(out.len(), registry.len());
            let mut short = owned.clone();
            let first = short.keys().next().cloned().expect("non-empty");
            short.remove(&first);
            assert!(
                per_layer_values(w, &short).is_err(),
                "{w}: a missing owned name is refused"
            );
            let mut extra = owned.clone();
            extra.insert("serve.fresh_p99_s".into(), 1.0);
            assert!(
                per_layer_values(w, &extra).is_err(),
                "{w}: an extra name is refused"
            );
        }
        // Every per-layer metric is either common or owned by one workload.
        for m in &registry {
            assert!(m.owner.is_none_or(|o| WORKLOADS.contains(&o)));
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(&Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![("job_s".into(), 0.25, "s")],
        });
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"job_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
