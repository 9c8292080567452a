//! Shared knobs for the bench targets, the `BENCH_*.json` reader, and
//! the bench-regression comparator; the criterion benches live under
//! `benches/` and the sweep binaries under `src/bin/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod regression;

/// Parse a `CROWD_BENCH_SCALE` value: a finite number in `(0, +∞)`,
/// clamped to `0.001..=1.0` (the clamp is a convenience, not an error —
/// asking for scale 7 means "as big as it goes").
pub fn parse_scale(value: &str) -> Result<f64, crowd_core::exec::EnvParseError> {
    let err = |reason| crowd_core::exec::EnvParseError {
        var: "CROWD_BENCH_SCALE",
        value: value.to_string(),
        reason,
    };
    let x: f64 = value.trim().parse().map_err(|_| err("not a number"))?;
    if !x.is_finite() {
        return Err(err("must be finite"));
    }
    if x <= 0.0 {
        return Err(err("scale must be positive"));
    }
    Ok(x.clamp(0.001, 1.0))
}

/// Benchmark dataset scale: `CROWD_BENCH_SCALE` when set (CI smoke
/// passes use `0.02`), otherwise `default`; always clamped to
/// `0.001..=1.0`. One definition so the criterion benches and the JSON
/// sweeps can never disagree about the knob's semantics.
///
/// A malformed value is **not** silently ignored: it prints a loud
/// warning to stderr and falls back to `default` (use [`parse_scale`]
/// for the typed-error path).
pub fn env_scale(default: f64) -> f64 {
    let fallback = default.clamp(0.001, 1.0);
    match std::env::var("CROWD_BENCH_SCALE") {
        Err(_) => fallback,
        // Empty means "unset" (CI matrices export empty strings to mean
        // exactly that), not a parse error.
        Ok(v) if v.trim().is_empty() => fallback,
        Ok(v) => match parse_scale(&v) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("WARNING: {e}; using the default scale of {fallback}");
                fallback
            }
        },
    }
}

#[cfg(test)]
mod tests {
    // `env_scale` reads process-global state, so its test exercises only
    // the unset-variable path (tests in one binary run concurrently;
    // setting the variable here would race other tests). The parse
    // semantics are pinned through `parse_scale`.
    #[test]
    fn default_passes_through_clamped() {
        if std::env::var("CROWD_BENCH_SCALE").is_err() {
            assert_eq!(super::env_scale(0.1), 0.1);
            assert_eq!(super::env_scale(7.0), 1.0);
            assert_eq!(super::env_scale(0.0), 0.001);
        }
    }

    #[test]
    fn parse_scale_semantics() {
        assert_eq!(super::parse_scale("0.1"), Ok(0.1));
        assert_eq!(super::parse_scale(" 0.02 "), Ok(0.02));
        // Clamped, not rejected.
        assert_eq!(super::parse_scale("7"), Ok(1.0));
        assert_eq!(super::parse_scale("1e-9"), Ok(0.001));
        // Malformed values are typed errors, not silent fallbacks.
        for bad in ["", "fast", "0", "-0.5", "nan", "inf"] {
            let e = super::parse_scale(bad).unwrap_err();
            assert_eq!(e.var, "CROWD_BENCH_SCALE", "{bad:?}");
            assert!(e.to_string().contains("CROWD_BENCH_SCALE"));
        }
    }
}
