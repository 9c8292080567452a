//! # crowd-stats — numerical substrate for the truth-inference benchmark
//!
//! Self-contained numerical routines used by the inference methods and the
//! experiment harness: special functions (log-gamma, digamma, incomplete
//! gamma/beta), the chi-squared distribution (CDF and inverse CDF, required
//! by CATD's `X^2(0.975, |T^w|)` confidence coefficient), random samplers
//! (Gaussian, Gamma, Beta, Dirichlet, categorical) built on top of [`rand`],
//! fixed-bin histograms (Figures 2–3 of the paper), descriptive summaries
//! (weighted mean/median, quantiles), a row-major dense matrix ([`DMat`])
//! and the compressed-sparse-row adjacency ([`Csr`]) backing the
//! flat-memory dataset index and inference views, and a convergence
//! tracker shared by every iterative method (Algorithm 1 of the paper).
//!
//! Nothing here is crowd-specific; this is the substrate the paper's Python
//! implementations obtained from NumPy/SciPy, reimplemented in Rust.

#![warn(missing_docs)]

pub mod buckets;
pub mod chi2;
pub mod convergence;
pub mod csr;
pub mod dist;
pub mod dmat;
pub mod histogram;
pub mod kernels;
pub mod special;
pub mod summary;

pub use buckets::{LinearBuckets, LogLinearBuckets};
pub use chi2::{chi2_cdf, chi2_inv_cdf, chi2_quantile_975};
pub use convergence::ConvergenceTracker;
pub use csr::Csr;
pub use dist::{
    log_normalize, log_sum_exp, normalize, sample_beta, sample_categorical, sample_dirichlet,
    sample_gamma, sample_gaussian,
};
pub use dmat::DMat;
pub use histogram::Histogram;
pub use kernels::fused::{
    exp_map_into, fused_posterior_rows, fused_two_term_rows, ln_map_into, safe_ln_map_into,
    sigmoid_map_into,
};
pub use kernels::{
    backend_name, exp_slice, lanes_active, ln_slice, log_normalize_rows, safe_ln, safe_ln_eps,
    safe_ln_slice, sigmoid_slice, weighted_log_dot,
};
pub use special::{
    digamma, erf, erfc, inc_beta, inc_gamma_p, inc_gamma_q, ln_beta, ln_gamma, trigamma,
};
pub use summary::{mean, median, quantile, stddev, variance, weighted_mean, weighted_median};
