//! Shared knobs for the timing binaries under `src/bin/`, and the JSON
//! reader `crowd-obs-check` validates metrics dumps with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use crowd_core::exec::EnvParseError;

/// Parse a `CROWD_BENCH_SCALE` value: a finite number in `(0, +∞)`,
/// clamped to `0.001..=1.0` (the clamp is a convenience, not an error —
/// asking for scale 7 means "as big as it goes").
pub fn parse_scale(value: &str) -> Result<f64, EnvParseError> {
    let err = |reason| EnvParseError {
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

/// Parse a `CROWD_BENCH_REPEATS` value: a positive integer, whitespace
/// tolerated (the `CROWD_THREADS` rule).
pub fn parse_repeats(value: &str) -> Result<usize, EnvParseError> {
    let err = |reason| EnvParseError {
        var: "CROWD_BENCH_REPEATS",
        value: value.to_string(),
        reason,
    };
    let n: usize = value
        .trim()
        .parse()
        .map_err(|_| err("not a non-negative integer"))?;
    if n == 0 {
        return Err(err("repeats must be at least 1"));
    }
    Ok(n)
}

/// `var` read through `parse`. Unset or empty (CI matrices export empty
/// strings to mean "unset") gives `default`; a malformed value is
/// **not** silently ignored: it prints a loud warning to stderr and
/// gives `default` too.
fn env_or<T: Copy + std::fmt::Display>(
    var: &str,
    default: T,
    parse: fn(&str) -> Result<T, EnvParseError>,
) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(v) if v.trim().is_empty() => default,
        Ok(v) => parse(&v).unwrap_or_else(|e| {
            eprintln!("WARNING: {e}; using the default of {default}");
            default
        }),
    }
}

/// Benchmark dataset scale: `CROWD_BENCH_SCALE` when set (CI smoke
/// passes use `0.02`), otherwise `default`; always clamped to
/// `0.001..=1.0`. Use [`parse_scale`] for the typed-error path.
pub fn env_scale(default: f64) -> f64 {
    env_or("CROWD_BENCH_SCALE", default.clamp(0.001, 1.0), parse_scale)
}

/// Timed repeats per cell: `CROWD_BENCH_REPEATS` when set, otherwise
/// `default` (at least 1). Use [`parse_repeats`] for the typed-error
/// path.
pub fn env_repeats(default: usize) -> usize {
    env_or("CROWD_BENCH_REPEATS", default.max(1), parse_repeats)
}

#[cfg(test)]
mod tests {
    // `env_scale` and `env_repeats` read process-global state, so their
    // test exercises only the unset-variable path (tests in one binary
    // run concurrently; setting a variable here would race other
    // tests). The parse semantics are pinned through `parse_scale` and
    // `parse_repeats`.
    #[test]
    fn default_passes_through_clamped() {
        if std::env::var("CROWD_BENCH_SCALE").is_err() {
            assert_eq!(super::env_scale(0.1), 0.1);
            assert_eq!(super::env_scale(7.0), 1.0);
            assert_eq!(super::env_scale(0.0), 0.001);
        }
        if std::env::var("CROWD_BENCH_REPEATS").is_err() {
            assert_eq!(super::env_repeats(3), 3);
            assert_eq!(super::env_repeats(0), 1);
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

    #[test]
    fn parse_repeats_semantics() {
        assert_eq!(super::parse_repeats("3"), Ok(3));
        assert_eq!(super::parse_repeats(" 1\n"), Ok(1));
        // Malformed values are typed errors, not silent fallbacks.
        for bad in ["", "three", "0", "-1", "2.5", "1e3"] {
            let e = super::parse_repeats(bad).unwrap_err();
            assert_eq!(e.var, "CROWD_BENCH_REPEATS", "{bad:?}");
            assert!(e.to_string().contains("CROWD_BENCH_REPEATS"));
        }
    }
}
