//! The `CROWD_FORCE_SCALAR` environment knob, proven end to end in its
//! own process (integration test files run as separate binaries, so
//! nothing else can touch the kernels' one-time feature detection
//! first). A single `#[test]` keeps the set-env → first-dispatch order
//! deterministic.
//!
//! The knob is captured once, at detection time: setting it before the
//! first kernel call must (a) keep the dispatcher off the vector leg
//! for the life of the process — even `force_scalar(false)`, the
//! runtime override the bench uses, cannot re-arm a vetoed unit — and
//! (b) leave every dispatcher output bit-identical to an explicit
//! per-element evaluation of libm, the scalar leg.

use crowd_stats::kernels;

#[test]
fn env_veto_forces_the_scalar_leg_for_the_whole_process() {
    // Before any kernel call: the OnceLock detection below is the first
    // reader.
    std::env::set_var("CROWD_FORCE_SCALAR", "1");

    // The vector leg must never report active, and a runtime un-force
    // must not resurrect it: the env veto is folded into the cached
    // availability, not the runtime flag.
    kernels::force_scalar(false);
    assert_eq!(kernels::backend_name(), "std");
    assert_eq!(kernels::lanes_active(), 1);

    // Dispatcher output == the scalar leg, bit for bit, over a slice
    // long enough to cover the (never-taken) vector body plus tails,
    // mixing ordinary magnitudes with the special-value classes.
    let mut xs: Vec<f64> = (-30..30).map(|i| i as f64 * 0.773).collect();
    xs.extend_from_slice(&[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e-320,
        709.5,
        -745.0,
    ]);

    let mut got = xs.clone();
    kernels::exp_slice(&mut got);
    for (&x, &g) in xs.iter().zip(&got) {
        assert_eq!(
            g.to_bits(),
            x.exp().to_bits(),
            "exp_slice({x:e}) = {g:e} != scalar leg"
        );
    }

    let mut got = xs.clone();
    kernels::ln_slice(&mut got);
    for (&x, &g) in xs.iter().zip(&got) {
        assert_eq!(
            g.to_bits(),
            x.ln().to_bits(),
            "ln_slice({x:e}) = {g:e} != scalar leg"
        );
    }

    let mut got = xs.clone();
    kernels::safe_ln_slice(&mut got);
    for (&x, &g) in xs.iter().zip(&got) {
        assert_eq!(
            g.to_bits(),
            kernels::safe_ln(x).to_bits(),
            "safe_ln_slice({x:e}) = {g:e} != scalar leg"
        );
    }

    let mut got = xs.clone();
    kernels::sigmoid_slice(&mut got);
    for (&x, &g) in xs.iter().zip(&got) {
        let e = (-x.abs()).exp();
        let want = if x >= 0.0 {
            1.0 / (1.0 + e)
        } else {
            e / (1.0 + e)
        };
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "sigmoid_slice({x:e}) = {g:e} != scalar leg"
        );
    }
}
