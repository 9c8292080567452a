//! The AVX2 leg of the kernels: glibc's `exp` and `log`, four lanes at a
//! time, returning libm's bits.
//!
//! # The contract
//!
//! Since 2.28, glibc's `exp` and `log` are Arm's optimized-routines
//! algorithms, built as `__exp_fma` and `__log_fma` on x86-64 hosts with
//! AVX2 and FMA: a 128-entry table, a short polynomial and no
//! data-dependent branch on the main path. This module mirrors both lane
//! for lane: every step is the multiply-add glibc's FMA build contracts,
//! in glibc's order, over the same tables (`simd/tables.rs`). A lane on a
//! mirrored path therefore returns exactly what `f64::exp`/`f64::ln`
//! return in the same process, and a lane off those paths is handed to
//! `f64::exp`/`f64::ln` themselves — so the vector leg is the scalar
//! leg's function, and which leg ran is unobservable in any output.
//!
//! Per lane:
//!
//! - **`exp`**: the main path covers `2⁻⁵⁴ ≤ |x| < 512` (glibc's
//!   top-12-bit test, `abstop` in `[0x3c9, 0x408)`); below it the tiny
//!   path returns `1.0 + x`, as glibc does; `|x| ≥ 512`, NaN and ±∞ go to
//!   `f64::exp`.
//! - **`ln`**: inputs in `[0x1.ep-1, 0x1.109p0)` (glibc's
//!   `ix − 0x3fee000000000000 < 0x3090000000000`) take the near-1
//!   polynomial; every other positive, normal, finite input takes the
//!   table path; zero, negatives, subnormals, ±∞ and NaN go to `f64::ln`.
//!
//! # Detection and the probe
//!
//! [`avx2_available`] runs once per process: AVX2 and FMA via
//! `is_x86_feature_detected!`, then an agreement probe
//! (`mirror_matches_libm`) that runs the mirror and the linked libm on
//! fixed inputs reaching every `exp` table index, every `ln` table index
//! and both `ln` paths. Any mismatch — a host whose libm is a different
//! algorithm, or a build that is not glibc's FMA variant — keeps the
//! process on the scalar leg, whose output is then that libm's. The probe
//! is detection, not a setting. `CROWD_FORCE_SCALAR` in the environment
//! vetoes the vector leg for the whole process, and [`force_scalar`]
//! flips the same veto at run time for benches and tests that measure
//! both legs in one process.
//!
//! # Drivers, alignment, tails
//!
//! - **Alignment**: every load and store is unaligned (`loadu`/`storeu`):
//!   callers hand in arbitrary row slices.
//! - **Tails**: slices run in chunks of 16 (four independent vectors, so
//!   the out-of-order core overlaps their dependency chains), then a
//!   4-wide step for 4..=15-element remainders, then a scalar loop for
//!   the last 0..=3 elements.
//! - **Screens**: each chunk is screened with a compare and a movemask;
//!   a chunk holding a lane off the mirrored paths runs element by
//!   element on libm. The screens are exactly the paths' domains, so the
//!   demotion costs time, never bits.

#![allow(unsafe_code)]

mod tables;

use core::arch::x86_64::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use tables::{
    EXP_C2, EXP_C3, EXP_C4, EXP_C5, EXP_SHIFT, EXP_TAB, INV_LN2_N, LN2_HI, LN2_LO, LOG_A, LOG_B,
    LOG_TAB, NEG_LN2_HI_N, NEG_LN2_LO_N,
};

/// Runtime veto flipped by [`force_scalar`]; ORed with the
/// `CROWD_FORCE_SCALAR` environment veto captured at detection time. It
/// publishes no other data, so `Relaxed` suffices.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// One-time detection of the vector leg: AVX2 + FMA, unless the
/// `CROWD_FORCE_SCALAR` environment knob (any value but `0` or empty)
/// disables it for the whole process, and only if the mirror agrees with
/// the linked libm on the probe inputs.
pub fn avx2_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        let forced = std::env::var("CROWD_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        !forced
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            // SAFETY: AVX2 and FMA were detected on the lines above.
            && unsafe { mirror_matches_libm() }
    })
}

/// Force the scalar leg (or release it) at runtime — the in-process
/// equivalent of `CROWD_FORCE_SCALAR=1`, used by the kernels bench to
/// measure both legs from one binary and by the tests to compare them.
#[doc(hidden)]
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the vector leg is taken *right now* (detection minus vetoes).
#[inline]
pub fn avx2_active() -> bool {
    avx2_available() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

/// The agreement probe behind [`avx2_available`]: the mirror against the
/// linked libm, bit for bit, on every `exp` table index at exponents
/// across the main path (and on the tiny path), and on every `ln` table
/// interval at exponents from 2⁻¹⁰⁰⁰ to 2¹⁰⁰⁰ (the near-1 path included,
/// which the interval points around 1 reach, plus a sweep of its window).
/// Allocation-free, a few microseconds, once per process.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mirror_matches_libm() -> bool {
    let step = std::f64::consts::LN_2 / 128.0;
    let mut ok = true;
    for i in 0..128 {
        // k = 128·m + i lands in table slot i; +0.37 keeps r off zero.
        let x = [-730.0, -5.0, 2.0, 730.0].map(|m: f64| (m * 128.0 + i as f64 + 0.37) * step);
        ok &= agrees(exp4_core(_mm256_loadu_pd(x.as_ptr())), x, f64::exp);
        // A point inside `ln` table interval i, at four exponents.
        let z = 0x3fe6_0000_0000_0000u64 + ((i as u64) << 45) + 0x1234_5678_9abc;
        let x = [-1000i64, -1, 0, 1000].map(|e| f64::from_bits(z.wrapping_add((e << 52) as u64)));
        ok &= agrees(ln4_core(_mm256_loadu_pd(x.as_ptr())), x, f64::ln);
    }
    for j in 0..32 {
        let x = [0, 1, 2, 3].map(|q| NEAR1_LO + (4 * j + q) as f64 * (NEAR1_HI - NEAR1_LO) / 128.0);
        ok &= agrees(ln4_core(_mm256_loadu_pd(x.as_ptr())), x, f64::ln);
    }
    let x = [0.0, -0.0, 1e-17, -3e-300];
    ok &= agrees(exp4_core(_mm256_loadu_pd(x.as_ptr())), x, f64::exp);
    ok
}

/// Whether every lane of `got` has the bits of `f` at the matching `x`.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn agrees(got: __m256d, x: [f64; 4], f: fn(f64) -> f64) -> bool {
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), got);
    lanes
        .iter()
        .zip(x)
        .all(|(g, x)| g.to_bits() == f(x).to_bits())
}

/// `x` in all four lanes.
///
/// # Safety
/// Requires AVX.
#[inline(always)]
unsafe fn splat(x: f64) -> __m256d {
    _mm256_set1_pd(x)
}

/// Bounds of the near-1 `ln` window, `[1 − 2⁻⁴, 1 + 0x1.09p-4)`.
const NEAR1_LO: f64 = f64::from_bits(0x3fee_0000_0000_0000);
const NEAR1_HI: f64 = f64::from_bits(0x3ff1_0900_0000_0000);

/// Upper end (exclusive) of the `exp` tiny path, 2⁻⁵⁴.
const EXP_TINY: f64 = f64::from_bits(0x3c90_0000_0000_0000);

/// Upper end (exclusive) of `|x|` on the `exp` main path.
const EXP_MAX: f64 = 512.0;

/// glibc's `__exp_fma` main path, four lanes at a time: `exp(x) =
/// 2^(k/N)·exp(r)` with `N = 128`, `x = k·ln2/N + r`, the table giving
/// `2^(k/N)` as a scale plus a tail, and `exp(r) − 1` a degree-5
/// polynomial. Lanes on the tiny path get `1.0 + x`.
///
/// # Safety
/// Requires AVX2 and FMA. Lanes with `|x| ≥ 512`, NaN or ±∞ return
/// unspecified values (the table index is masked, so every gather stays
/// inside the table); callers screen them to `f64::exp`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp4_core(x: __m256d) -> __m256d {
    // kd = x·N/ln2 + shift, one rounding: its low bits are k.
    let kd = _mm256_fmadd_pd(x, splat(INV_LN2_N), splat(EXP_SHIFT));
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, splat(EXP_SHIFT));
    let r = _mm256_fmadd_pd(
        kd,
        splat(NEG_LN2_LO_N),
        _mm256_fmadd_pd(kd, splat(NEG_LN2_HI_N), x),
    );
    // Table entry i = k mod N holds (tail, bits of 2^(i/N) − (i << 45));
    // `slot` indexes the flattened pairs.
    let slot = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(127)));
    let tab = EXP_TAB.as_ptr().cast::<u64>();
    let tail = _mm256_i64gather_pd::<8>(tab.cast::<f64>(), slot);
    let sbits = _mm256_add_epi64(
        _mm256_i64gather_epi64::<8>(tab.add(1).cast::<i64>(), slot),
        _mm256_slli_epi64::<45>(ki),
    );
    let scale = _mm256_castsi256_pd(sbits);
    // tmp = tail + r + r²·(C2 + r·C3) + r⁴·(C4 + r·C5)
    let r2 = _mm256_mul_pd(r, r);
    let tmp = _mm256_fmadd_pd(
        _mm256_fmadd_pd(r, splat(EXP_C3), splat(EXP_C2)),
        r2,
        _mm256_add_pd(tail, r),
    );
    let tmp = _mm256_fmadd_pd(
        _mm256_mul_pd(r2, r2),
        _mm256_fmadd_pd(r, splat(EXP_C5), splat(EXP_C4)),
        tmp,
    );
    let main = _mm256_fmadd_pd(scale, tmp, scale);
    let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(abs(x), splat(EXP_TINY));
    _mm256_blendv_pd(main, _mm256_add_pd(splat(1.0), x), tiny)
}

/// glibc's `__log_fma` table path, four lanes at a time: `x = 2^k·z`
/// with `z` in `[0x1.6p-1, 0x1.6p0)`, `ln x = k·ln2 + ln c + ln(z/c)`
/// for the centre `c` of `z`'s table interval, and `ln(1 + r) − r` a
/// polynomial in `r = z/c − 1`.
///
/// # Safety
/// Requires AVX2 and FMA. Lanes that are not positive, normal and finite
/// return unspecified values (every gather stays inside the table).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ln4_table(x: __m256d) -> __m256d {
    const OFF: i64 = 0x3fe6_0000_0000_0000;
    let ix = _mm256_castpd_si256(x);
    let tmp = _mm256_sub_epi64(ix, _mm256_set1_epi64x(OFF));
    let slot = _mm256_slli_epi64::<1>(_mm256_and_si256(
        _mm256_srli_epi64::<45>(tmp),
        _mm256_set1_epi64x(127),
    ));
    // k = tmp >> 52 (arithmetic), as a double: flipping the sign bit
    // biases the logical shift by 2048, which the magic-number
    // conversion subtracts again — exact, like glibc's `(double) k`.
    const MAGIC_BITS: i64 = 0x4338_0000_0000_0000; // bits of 1.5·2⁵²
    let biased = _mm256_srli_epi64::<52>(_mm256_xor_si256(tmp, _mm256_set1_epi64x(i64::MIN)));
    let kd = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_add_epi64(biased, _mm256_set1_epi64x(MAGIC_BITS))),
        splat(6755399441055744.0 + 2048.0),
    );
    let z = _mm256_castsi256_pd(_mm256_sub_epi64(
        ix,
        _mm256_and_si256(tmp, _mm256_set1_epi64x(0xfff0_0000_0000_0000u64 as i64)),
    ));
    let tab = LOG_TAB.as_ptr().cast::<u64>();
    let invc = _mm256_i64gather_pd::<8>(tab.cast::<f64>(), slot);
    let logc = _mm256_i64gather_pd::<8>(tab.add(1).cast::<f64>(), slot);
    let r = _mm256_fmadd_pd(z, invc, splat(-1.0));
    // hi + lo = r + ln c + k·ln2
    let w = _mm256_fmadd_pd(kd, splat(LN2_HI), logc);
    let hi = _mm256_add_pd(w, r);
    let lo = _mm256_fmadd_pd(kd, splat(LN2_LO), _mm256_add_pd(_mm256_sub_pd(w, hi), r));
    // lo + r²·A0 + r³·(A1 + r·A2 + r²·(A3 + r·A4)) + hi
    let r2 = _mm256_mul_pd(r, r);
    let p = _mm256_fmadd_pd(
        _mm256_fmadd_pd(r, splat(LOG_A[4]), splat(LOG_A[3])),
        r2,
        _mm256_fmadd_pd(r, splat(LOG_A[2]), splat(LOG_A[1])),
    );
    let y = _mm256_fmadd_pd(
        _mm256_mul_pd(r, r2),
        p,
        _mm256_fmadd_pd(r2, splat(LOG_A[0]), lo),
    );
    _mm256_add_pd(y, hi)
}

/// glibc's `__log_fma` near-1 path, four lanes at a time: a degree-11
/// polynomial in `r = x − 1`, with `r − r²/2` carried in extra
/// precision by splitting `r` at 2²⁷.
///
/// # Safety
/// Requires AVX2 and FMA. Meaningful only for lanes in the near-1
/// window.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ln4_near1(x: __m256d) -> __m256d {
    let r = _mm256_sub_pd(x, splat(1.0));
    let r2 = _mm256_mul_pd(r, r);
    let r3 = _mm256_mul_pd(r, r2);
    // r³·(B1 + r·B2 + r²·B3 + r³·(B4 + r·B5 + r²·B6
    //   + r³·(B7 + r·B8 + r²·B9 + r³·B10)))
    let mut b = [_mm256_setzero_pd(); 11];
    for (bi, &c) in b.iter_mut().zip(&LOG_B) {
        *bi = splat(c);
    }
    let p7 = _mm256_fmadd_pd(
        r3,
        b[10],
        _mm256_fmadd_pd(r2, b[9], _mm256_fmadd_pd(r, b[8], b[7])),
    );
    let p4 = _mm256_fmadd_pd(
        p7,
        r3,
        _mm256_fmadd_pd(r2, b[6], _mm256_fmadd_pd(r, b[5], b[4])),
    );
    let p1 = _mm256_fmadd_pd(
        p4,
        r3,
        _mm256_fmadd_pd(r2, b[3], _mm256_fmadd_pd(r, b[2], b[1])),
    );
    // rhi = r rounded to 26 bits, so that rhi² is exact.
    let two27 = splat(134217728.0);
    let rhi = _mm256_fnmadd_pd(two27, r, _mm256_fmadd_pd(r, two27, r));
    let rlo = _mm256_sub_pd(r, rhi);
    let rhi2 = _mm256_mul_pd(rhi, rhi);
    // hi + lo = r − rhi²/2 (B0 = −1/2), then the rlo correction.
    let hi = _mm256_fmadd_pd(rhi2, b[0], r);
    let lo = _mm256_fmadd_pd(rhi2, b[0], _mm256_sub_pd(r, hi));
    let lo = _mm256_fmadd_pd(_mm256_mul_pd(b[0], rlo), _mm256_add_pd(r, rhi), lo);
    _mm256_add_pd(hi, _mm256_fmadd_pd(p1, r3, lo))
}

/// glibc's `__log_fma` on lanes that are positive, normal and finite:
/// the near-1 path where a lane is in its window, the table path
/// elsewhere.
///
/// # Safety
/// Requires AVX2 and FMA. Other lanes return unspecified values; callers
/// screen them to `f64::ln`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ln4_core(x: __m256d) -> __m256d {
    let near = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GE_OQ>(x, splat(NEAR1_LO)),
        _mm256_cmp_pd::<_CMP_LT_OQ>(x, splat(NEAR1_HI)),
    );
    match _mm256_movemask_pd(near) {
        0 => ln4_table(x),
        0xF => ln4_near1(x),
        _ => _mm256_blendv_pd(ln4_table(x), ln4_near1(x), near),
    }
}

/// `|x|`, lane by lane.
///
/// # Safety
/// Requires AVX.
#[inline(always)]
unsafe fn abs(x: __m256d) -> __m256d {
    _mm256_andnot_pd(splat(-0.0), x)
}

/// All-lanes mask of `x` on a mirrored `exp` path: `|x| < 512` (NaN
/// fails the ordered compare).
///
/// # Safety
/// Requires AVX.
#[inline(always)]
unsafe fn exp_range_mask(x: __m256d) -> __m256d {
    _mm256_cmp_pd::<_CMP_LT_OQ>(abs(x), splat(EXP_MAX))
}

/// [`exp_range_mask`] as a 4-bit lane mask.
///
/// # Safety
/// Requires AVX.
#[inline(always)]
unsafe fn exp_in_range(x: __m256d) -> i32 {
    _mm256_movemask_pd(exp_range_mask(x))
}

/// All-lanes mask of `x` on a mirrored `ln` path: positive, normal,
/// finite. Zero, negatives, subnormals, ±∞ and NaN all fail.
///
/// # Safety
/// Requires AVX.
#[inline(always)]
unsafe fn ln_range_mask(x: __m256d) -> __m256d {
    let lo = _mm256_cmp_pd::<_CMP_GE_OQ>(x, splat(f64::MIN_POSITIVE));
    let hi = _mm256_cmp_pd::<_CMP_LT_OQ>(x, splat(f64::INFINITY));
    _mm256_and_pd(lo, hi)
}

/// [`ln_range_mask`] as a 4-bit lane mask.
///
/// # Safety
/// Requires AVX.
#[inline(always)]
unsafe fn ln_in_range(x: __m256d) -> i32 {
    _mm256_movemask_pd(ln_range_mask(x))
}

/// `x[i] ← exp(x[i])`: vector chunks, libm for the tail and for any
/// chunk holding a lane off the mirrored paths.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn exp_slice_avx2(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        // SAFETY: `chunk` holds 16 elements, so p..p+16 is in bounds.
        let (a, b, c, d) = unsafe {
            (
                _mm256_loadu_pd(p),
                _mm256_loadu_pd(p.add(4)),
                _mm256_loadu_pd(p.add(8)),
                _mm256_loadu_pd(p.add(12)),
            )
        };
        let ok = _mm256_and_pd(
            _mm256_and_pd(exp_range_mask(a), exp_range_mask(b)),
            _mm256_and_pd(exp_range_mask(c), exp_range_mask(d)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            // SAFETY: as for the loads.
            unsafe {
                _mm256_storeu_pd(p, exp4_core(a));
                _mm256_storeu_pd(p.add(4), exp4_core(b));
                _mm256_storeu_pd(p.add(8), exp4_core(c));
                _mm256_storeu_pd(p.add(12), exp4_core(d));
            }
        } else {
            chunk.iter_mut().for_each(|x| *x = x.exp());
        }
    }
    let mut tail = chunks.into_remainder().chunks_exact_mut(4);
    for chunk in &mut tail {
        // SAFETY: `chunk` holds 4 elements.
        let v = unsafe { _mm256_loadu_pd(chunk.as_ptr()) };
        if exp_in_range(v) == 0xF {
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_pd(chunk.as_mut_ptr(), exp4_core(v)) };
        } else {
            chunk.iter_mut().for_each(|x| *x = x.exp());
        }
    }
    tail.into_remainder().iter_mut().for_each(|x| *x = x.exp());
}

/// `x[i] ← ln(x[i])`: vector chunks, libm elsewhere.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn ln_slice_avx2(xs: &mut [f64]) {
    // SAFETY: the caller guarantees AVX2 and FMA.
    unsafe { ln_slice_clamped(xs, f64::NEG_INFINITY, f64::ln) }
}

/// `x[i] ← ln(max(x[i], eps))` — the clamp makes almost every lane
/// normal and positive, so the screen only trips on +∞ (and on NaN,
/// which `max` absorbs exactly like the scalar `f64::max`).
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn safe_ln_slice_avx2(xs: &mut [f64], eps: f64) {
    // SAFETY: the caller guarantees AVX2 and FMA.
    unsafe { ln_slice_clamped(xs, eps, |x| x.max(eps).ln()) }
}

/// The body of [`ln_slice_avx2`] and [`safe_ln_slice_avx2`]:
/// `x[i] ← ln(max(x[i], eps))` on the vector cores, where `eps = −∞`
/// clamps nothing, and `x[i] ← scalar(x[i])` for chunks the screen
/// demotes. `maxpd` returns its second operand when either is NaN —
/// `eps`, the same answer as `f64::max(x, eps)`; with `eps = −∞` a NaN
/// lane becomes −∞, which the screen demotes to `scalar` on the original
/// NaN.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ln_slice_clamped(xs: &mut [f64], eps: f64, scalar: impl Fn(f64) -> f64) {
    let epsv = splat(eps);
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        // SAFETY: `chunk` holds 16 elements, so p..p+16 is in bounds.
        let (a, b, c, d) = unsafe {
            (
                _mm256_max_pd(_mm256_loadu_pd(p), epsv),
                _mm256_max_pd(_mm256_loadu_pd(p.add(4)), epsv),
                _mm256_max_pd(_mm256_loadu_pd(p.add(8)), epsv),
                _mm256_max_pd(_mm256_loadu_pd(p.add(12)), epsv),
            )
        };
        let ok = _mm256_and_pd(
            _mm256_and_pd(ln_range_mask(a), ln_range_mask(b)),
            _mm256_and_pd(ln_range_mask(c), ln_range_mask(d)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            // SAFETY: as for the loads.
            unsafe {
                _mm256_storeu_pd(p, ln4_core(a));
                _mm256_storeu_pd(p.add(4), ln4_core(b));
                _mm256_storeu_pd(p.add(8), ln4_core(c));
                _mm256_storeu_pd(p.add(12), ln4_core(d));
            }
        } else {
            chunk.iter_mut().for_each(|x| *x = scalar(*x));
        }
    }
    let mut tail = chunks.into_remainder().chunks_exact_mut(4);
    for chunk in &mut tail {
        // SAFETY: `chunk` holds 4 elements.
        let v = unsafe { _mm256_max_pd(_mm256_loadu_pd(chunk.as_ptr()), epsv) };
        if ln_in_range(v) == 0xF {
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_pd(chunk.as_mut_ptr(), ln4_core(v)) };
        } else {
            chunk.iter_mut().for_each(|x| *x = scalar(*x));
        }
    }
    let rest = tail.into_remainder();
    rest.iter_mut().for_each(|x| *x = scalar(*x));
}

/// `x[i] ← σ(x[i])` in the overflow-stable two-sided form: both sides
/// share `e = exp(−|x|)` and pick the numerator (`1` or `e`) by sign,
/// exactly like the scalar kernel's branch.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sigmoid_slice_avx2(xs: &mut [f64]) {
    /// σ of the lanes of `v`, all of which passed the `exp` screen.
    ///
    /// # Safety
    /// Requires AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sigmoid4(v: __m256d) -> __m256d {
        // −|x|: the sign bit set, as the scalar `-x.abs()`.
        let e = exp4_core(_mm256_or_pd(v, splat(-0.0)));
        let numer = _mm256_blendv_pd(splat(1.0), e, _mm256_cmp_pd::<_CMP_LT_OQ>(v, splat(0.0)));
        _mm256_div_pd(numer, _mm256_add_pd(splat(1.0), e))
    }
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        // SAFETY: `chunk` holds 16 elements, so p..p+16 is in bounds.
        let (a, b, c, d) = unsafe {
            (
                _mm256_loadu_pd(p),
                _mm256_loadu_pd(p.add(4)),
                _mm256_loadu_pd(p.add(8)),
                _mm256_loadu_pd(p.add(12)),
            )
        };
        // exp(−|x|) is on a mirrored path exactly when |x| < 512.
        let ok = _mm256_and_pd(
            _mm256_and_pd(exp_range_mask(a), exp_range_mask(b)),
            _mm256_and_pd(exp_range_mask(c), exp_range_mask(d)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            // SAFETY: as for the loads.
            unsafe {
                _mm256_storeu_pd(p, sigmoid4(a));
                _mm256_storeu_pd(p.add(4), sigmoid4(b));
                _mm256_storeu_pd(p.add(8), sigmoid4(c));
                _mm256_storeu_pd(p.add(12), sigmoid4(d));
            }
        } else {
            chunk.iter_mut().for_each(|x| *x = super::sigmoid(*x));
        }
    }
    let mut tail = chunks.into_remainder().chunks_exact_mut(4);
    for chunk in &mut tail {
        // SAFETY: `chunk` holds 4 elements.
        let v = unsafe { _mm256_loadu_pd(chunk.as_ptr()) };
        if exp_in_range(v) == 0xF {
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_pd(chunk.as_mut_ptr(), sigmoid4(v)) };
        } else {
            chunk.iter_mut().for_each(|x| *x = super::sigmoid(*x));
        }
    }
    let rest = tail.into_remainder();
    rest.iter_mut().for_each(|x| *x = super::sigmoid(*x));
}

/// [`super::weighted_log_dot`]: `Σ w_i · ln(max(x_i, eps))` with the
/// logs four lanes at a time and the products added one by one in the
/// scalar kernel's left-to-right order, from `Sum`'s −0.0. Returns `None`
/// when a clamped lane is off the mirrored `ln` paths (+∞) — the caller
/// redoes the whole sum on libm.
///
/// # Safety
/// Requires AVX2 and FMA. `weights` and `xs` must have equal lengths.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn weighted_log_dot_avx2(weights: &[f64], xs: &[f64], eps: f64) -> Option<f64> {
    debug_assert_eq!(weights.len(), xs.len());
    let mut acc = -0.0f64;
    let mut ws = weights.chunks_exact(4);
    let mut chunks = xs.chunks_exact(4);
    for (w, x) in (&mut ws).zip(&mut chunks) {
        // SAFETY: `x` holds 4 elements.
        let v = _mm256_max_pd(unsafe { _mm256_loadu_pd(x.as_ptr()) }, splat(eps));
        if ln_in_range(v) != 0xF {
            return None;
        }
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` holds 4 elements.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), ln4_core(v)) };
        for (w, l) in w.iter().zip(lanes) {
            acc += w * l;
        }
    }
    for (w, x) in ws.remainder().iter().zip(chunks.remainder()) {
        acc += w * x.max(eps).ln();
    }
    Some(acc)
}

/// In-register [`super::log_sum_exp`] for a 4-wide row: max fold,
/// vector `exp(x − max)` with the max-lane `1.0` convention, the scalar
/// kernel's left-to-right summation, and the vector `ln` of the sum.
/// Returns `None` when the row is degenerate or leaves the `exp` main
/// path — the caller runs the scalar path, which owns those semantics.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_sum_exp4(xs: &[f64; 4]) -> Option<f64> {
    // SAFETY: `xs` holds 4 elements.
    let v = unsafe { _mm256_loadu_pd(xs.as_ptr()) };
    // Sequential max fold, exactly like the scalar `fold(-inf, max)`
    // (keeps f64::max's NaN-ignoring semantics; maxpd differs on NaN).
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return None;
    }
    let maxv = splat(max);
    let d = _mm256_sub_pd(v, maxv);
    if exp_in_range(d) != 0xF {
        return None;
    }
    let e = _mm256_blendv_pd(
        exp4_core(d),
        splat(1.0),
        _mm256_cmp_pd::<_CMP_EQ_OQ>(v, maxv),
    );
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` holds 4 elements.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), e) };
    // Left-to-right summation order, same as the scalar kernel; the sum
    // lies in [1, 4], on a mirrored `ln` path.
    let sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
    Some(max + _mm256_cvtsd_f64(ln4_core(splat(sum))))
}

/// In-register [`super::log_normalize`] for a 4-wide row (the ℓ = 4
/// posterior shape). Returns `false` without touching `xs` when any
/// intermediate leaves the `exp` main path or the row is degenerate —
/// the caller then runs the scalar path, which owns those semantics.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_normalize4(xs: &mut [f64; 4]) -> bool {
    // SAFETY: the caller guarantees AVX2 and FMA.
    let Some(lse) = (unsafe { log_sum_exp4(xs) }) else {
        return false;
    };
    // SAFETY: `xs` holds 4 elements.
    let v = unsafe { _mm256_loadu_pd(xs.as_ptr()) };
    let d2 = _mm256_sub_pd(v, splat(lse));
    if exp_in_range(d2) != 0xF {
        return false;
    }
    // SAFETY: as for the load.
    unsafe { _mm256_storeu_pd(xs.as_mut_ptr(), exp4_core(d2)) };
    true
}

// Lower screen of the packed row kernels: a lane at distance
// `d = x − max > −510` has `exp(d)` on the `exp` main path, and — the
// row sum being in [1, 4] — `exp(d − ln Σ)` too (`ln 4 < 2`). NaN and ±∞
// lanes, and rows whose spread reaches 510, fail the ordered compare and
// demote that row to the scalar kernel, which owns the edge semantics.
const PACKED_LO: f64 = -510.0;

/// The four rows `r..r+4` of a packed `L`-wide buffer, transposed:
/// `c[k]` lane `i` is row `r+i`'s element `k`.
///
/// # Safety
/// Requires AVX2; `base` must point at `4·L` readable elements.
#[target_feature(enable = "avx2")]
unsafe fn gather_columns<const L: usize>(base: *const f64) -> [__m256d; L] {
    let mut c = [_mm256_setzero_pd(); L];
    for (k, ck) in c.iter_mut().enumerate() {
        // SAFETY: the caller guarantees 4·L readable elements at `base`.
        *ck = unsafe {
            _mm256_set_pd(
                *base.add(3 * L + k),
                *base.add(2 * L + k),
                *base.add(L + k),
                *base.add(k),
            )
        };
    }
    c
}

/// Per-row log-sum-exp of four transposed rows `c`, with the per-row
/// demotion mask: bit `i` set when row `i` passed the `PACKED_LO`
/// screen (its lane of the result is then the scalar kernel's bits).
///
/// Each row's arithmetic is the scalar kernel's, op for op: sequential
/// max fold (NaN rows fail the screen, so `maxpd` agrees with `f64::max`
/// on every kept row), `exp(x − max)` with the max-lane `1.0`
/// convention, left-to-right summation, `max + ln(Σ)`.
///
/// # Safety
/// Requires AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn packed_log_sum_exp<const L: usize>(c: &[__m256d; L]) -> (__m256d, i32) {
    let mut maxv = splat(f64::NEG_INFINITY);
    for &ck in c {
        maxv = _mm256_max_pd(maxv, ck);
    }
    let mut ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    let mut d = [_mm256_setzero_pd(); L];
    for (dk, &ck) in d.iter_mut().zip(c) {
        *dk = _mm256_sub_pd(ck, maxv);
        ok = _mm256_and_pd(ok, _mm256_cmp_pd::<_CMP_GT_OQ>(*dk, splat(PACKED_LO)));
    }
    // Transposed layout ⇒ the movemask is a per-ROW demotion mask.
    let okbits = _mm256_movemask_pd(ok);
    if okbits == 0 {
        return (maxv, 0);
    }
    // Σ exp(x − max) in left-to-right lane order (0.0 + e₀ ≡ e₀: the
    // screened terms are all positive).
    let mut sum = _mm256_setzero_pd();
    for (&ck, &dk) in c.iter().zip(&d) {
        let e = _mm256_blendv_pd(
            exp4_core(dk),
            splat(1.0),
            _mm256_cmp_pd::<_CMP_EQ_OQ>(ck, maxv),
        );
        sum = _mm256_add_pd(sum, e);
    }
    // Kept rows' sums lie in [1, 4], on a mirrored `ln` path; demoted
    // rows compute garbage here, which the callers discard.
    (_mm256_add_pd(maxv, ln4_core(sum)), okbits)
}

/// Batched [`super::log_normalize`] over `data.len() / L` packed
/// `L`-wide rows (`L ≤ 4`), four rows per iteration.
///
/// The four rows are held transposed (register lane `i` = row `r+i`), so
/// the per-row reductions become plain vertical ops — in particular the
/// `ln` of the four row sums is a single `ln4_core` call, where the
/// per-row kernels spend a scalar `ln` each: one dispatch and one
/// `#[target_feature]` region for the whole buffer instead of per row.
/// Each row gets the per-row kernel's bits (`packed_log_sum_exp`, then
/// `exp(x − lse)`). Rows failing the `PACKED_LO` screen and the
/// `< 4`-row remainder run the per-row scalar kernel.
///
/// # Safety
/// Requires AVX2 and FMA. `data.len()` must be a multiple of `L`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_normalize_rows_packed<const L: usize>(data: &mut [f64]) {
    debug_assert!((1..=4).contains(&L));
    debug_assert!(data.len().is_multiple_of(L));
    let mut blocks = data.chunks_exact_mut(4 * L);
    for rows4 in &mut blocks {
        // SAFETY: `rows4` holds 4·L elements.
        let c = unsafe { gather_columns::<L>(rows4.as_ptr()) };
        let (lse, okbits) = packed_log_sum_exp(&c);
        if okbits != 0 {
            for (k, &ck) in c.iter().enumerate() {
                let mut t = [0.0f64; 4];
                // SAFETY: `t` holds 4 elements.
                unsafe { _mm256_storeu_pd(t.as_mut_ptr(), exp4_core(_mm256_sub_pd(ck, lse))) };
                for (i, &ti) in t.iter().enumerate() {
                    if okbits & (1 << i) != 0 {
                        rows4[i * L + k] = ti;
                    }
                }
            }
        }
        for (i, row) in rows4.chunks_exact_mut(L).enumerate() {
            if okbits & (1 << i) == 0 {
                super::log_normalize_scalar(row);
            }
        }
    }
    blocks
        .into_remainder()
        .chunks_exact_mut(L)
        .for_each(super::log_normalize_scalar);
}

/// Batched [`super::log_sum_exp`] over `data.len() / L` packed `L`-wide
/// rows: `out[i] ← lse(row i)`. Same transposed four-rows-per-iteration
/// scheme and screen as [`log_normalize_rows_packed`], minus the final
/// normalise pass; demoted and remainder rows run the per-row scalar
/// kernel.
///
/// # Safety
/// Requires AVX2 and FMA. `data.len()` must be a multiple of `L` and
/// `out.len() == data.len() / L`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_sum_exp_rows_packed<const L: usize>(data: &[f64], out: &mut [f64]) {
    debug_assert!((1..=4).contains(&L));
    debug_assert!(data.len().is_multiple_of(L));
    debug_assert_eq!(out.len(), data.len() / L);
    let mut blocks = data.chunks_exact(4 * L);
    let mut outs = out.chunks_exact_mut(4);
    for (rows4, out4) in (&mut blocks).zip(&mut outs) {
        // SAFETY: `rows4` holds 4·L elements.
        let c = unsafe { gather_columns::<L>(rows4.as_ptr()) };
        let (lse, okbits) = packed_log_sum_exp(&c);
        let mut t = [0.0f64; 4];
        // SAFETY: `t` holds 4 elements.
        unsafe { _mm256_storeu_pd(t.as_mut_ptr(), lse) };
        for (i, ((o, row), ti)) in out4
            .iter_mut()
            .zip(rows4.chunks_exact(L))
            .zip(t)
            .enumerate()
        {
            *o = if okbits & (1 << i) != 0 {
                ti
            } else {
                super::log_sum_exp_scalar(row)
            };
        }
    }
    let rest = blocks.remainder().chunks_exact(L);
    for (o, row) in outs.into_remainder().iter_mut().zip(rest) {
        *o = super::log_sum_exp_scalar(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The adversarial and sweep comparisons against libm live in
    // `tests/kernel_properties.rs`; these unit tests pin the cores and
    // the probe directly, so a broken intrinsic fails close to home.

    fn have_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    #[test]
    fn probe_passes_against_this_libm() {
        if !have_avx2() {
            return;
        }
        // SAFETY: AVX2 and FMA were detected above.
        assert!(unsafe { mirror_matches_libm() });
    }

    #[test]
    fn vector_exp_matches_libm_bitwise() {
        if !have_avx2() {
            return;
        }
        let mut xs: Vec<f64> = (-3000..3000).map(|i| i as f64 * 0.2345).collect();
        xs.extend([0.0, -0.0, 1.0, -1.0, 511.9, -511.9, 709.7, -745.0, f64::NAN]);
        let want: Vec<f64> = xs.iter().map(|&x| x.exp()).collect();
        let mut got = xs.clone();
        // SAFETY: AVX2 and FMA were detected above.
        unsafe { exp_slice_avx2(&mut got) };
        for ((&x, &w), &g) in xs.iter().zip(&want).zip(&got) {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "exp({x}): libm {w:?} vs vector {g:?}"
            );
        }
    }

    #[test]
    fn vector_ln_matches_libm_bitwise() {
        if !have_avx2() {
            return;
        }
        let mut xs: Vec<f64> = (1..6000).map(|i| i as f64 * 0.137).collect();
        xs.extend([
            1e-300,
            1e-12,
            1.0,
            0.95,
            1.05,
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            0.0,
        ]);
        let want: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
        let mut got = xs.clone();
        // SAFETY: AVX2 and FMA were detected above.
        unsafe { ln_slice_avx2(&mut got) };
        for ((&x, &w), &g) in xs.iter().zip(&want).zip(&got) {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "ln({x}): libm {w:?} vs vector {g:?}"
            );
        }
    }

    #[test]
    fn log_normalize4_matches_scalar_kernel() {
        if !have_avx2() {
            return;
        }
        for row in [
            [0.1, -0.4, 2.0, -3.0],
            [-690.0, -690.5, -691.0, -689.5],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, -500.0, 2.999, -250.0],
        ] {
            let mut want = row;
            super::super::log_normalize_scalar(&mut want);
            let mut got = row;
            // SAFETY: AVX2 and FMA were detected above.
            assert!(unsafe { log_normalize4(&mut got) }, "row {row:?} bailed");
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "row {row:?}");
        }
    }

    /// Adversarial packed-row buffer for a given width: ordinary rows
    /// mixed with rows that must demote (NaN, ±∞, all `-inf`, spread
    /// beyond the screen), at every row count so group/remainder
    /// boundaries are all exercised.
    fn packed_fixture(l: usize, rows: usize) -> Vec<f64> {
        let pool = [
            0.3,
            -2.0,
            1.7,
            -0.4,
            f64::NAN,
            f64::NEG_INFINITY,
            650.0,
            -650.0,
            0.0,
            -0.0,
            f64::INFINITY,
            -27.6,
        ];
        (0..rows * l)
            .map(|i| pool[(i * 7 + i / l) % pool.len()])
            .collect()
    }

    /// The packed-row kernels give every row the per-row scalar kernel's
    /// bits.
    #[test]
    fn packed_rows_match_scalar_kernel_bitwise() {
        if !have_avx2() {
            return;
        }
        for l in 1..=4usize {
            for rows in 0..=13usize {
                let data = packed_fixture(l, rows);
                let mut want = data.clone();
                for row in want.chunks_exact_mut(l) {
                    super::super::log_normalize_scalar(row);
                }
                let mut got = data.clone();
                // SAFETY: AVX2 and FMA were detected above; the buffer
                // is `rows` rows of width `l`.
                unsafe {
                    match l {
                        1 => log_normalize_rows_packed::<1>(&mut got),
                        2 => log_normalize_rows_packed::<2>(&mut got),
                        3 => log_normalize_rows_packed::<3>(&mut got),
                        _ => log_normalize_rows_packed::<4>(&mut got),
                    }
                }
                for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "normalize l={l} rows={rows} elem {i}: {w:?} vs {g:?}"
                    );
                }

                let want_lse: Vec<f64> = data
                    .chunks_exact(l)
                    .map(super::super::log_sum_exp_scalar)
                    .collect();
                let mut got_lse = vec![0.0f64; rows];
                // SAFETY: as above; `got_lse` has one slot per row.
                unsafe {
                    match l {
                        1 => log_sum_exp_rows_packed::<1>(&data, &mut got_lse),
                        2 => log_sum_exp_rows_packed::<2>(&data, &mut got_lse),
                        3 => log_sum_exp_rows_packed::<3>(&data, &mut got_lse),
                        _ => log_sum_exp_rows_packed::<4>(&data, &mut got_lse),
                    }
                }
                for (i, (&w, &g)) in want_lse.iter().zip(&got_lse).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "lse l={l} rows={rows} row {i}: {w:?} vs {g:?}"
                    );
                }
            }
        }
    }
}
