//! Seeded equivalence tests: the flat-memory substrate (CSR views, dense
//! posterior/confusion matrices, in-place hot loops, batched
//! transcendental kernels) must produce **bit-identical** truths and
//! worker-quality scalars to the pre-refactor nested-`Vec`
//! implementation — in the default build.
//!
//! Under the `fast-math` feature the kernels swap libm for the
//! polynomial cores (≤ 4 ULP per call), so trajectories drift by design
//! and bit equality is replaced by **pinned per-method tolerances**
//! (see [`FastMathTolerance`]): a bound on every worker-quality
//! scalar's divergence and on the fraction of flipped labels. Methods
//! whose decisions pass through discrete resamplers (the Gibbs pair
//! BCC/CBCC, or gradient ascent over many capped iterations) amplify
//! per-call ULPs into genuinely different trajectories and carry the
//! loose bounds; closed-form EM methods stay tight.
//!
//! The golden outputs live in `tests/fixtures/equivalence.tsv`, captured
//! from the nested-`Vec` code path before the refactor landed (see
//! `examples/gen_equivalence_fixtures.rs` for the format and the
//! regeneration command). Every method of the benchmark is covered on
//! every fixture dataset it supports, at two seeds.

use std::collections::HashMap;

use crowd_core::{InferenceOptions, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::Dataset;

/// Must match `examples/gen_equivalence_fixtures.rs`.
fn fixture_datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("toy", crowd_data::toy::paper_example()),
        ("dprod005", PaperDataset::DProduct.generate(0.05, 42)),
        ("srel002", PaperDataset::SRel.generate(0.02, 1234)),
        ("nemo02", PaperDataset::NEmotion.generate(0.2, 1234)),
    ]
}

struct Fixture {
    truths: String,
    scalars: String,
}

fn load_fixtures() -> HashMap<(String, String, u64), Fixture> {
    let raw = include_str!("fixtures/equivalence.tsv");
    let mut out = HashMap::new();
    for line in raw.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let method = parts.next().expect("method column").to_string();
        let dataset = parts.next().expect("dataset column").to_string();
        let seed: u64 = parts
            .next()
            .expect("seed column")
            .parse()
            .expect("seed parses");
        let truths = parts.next().expect("truths column").to_string();
        let scalars = parts.next().expect("scalars column").to_string();
        out.insert((method, dataset, seed), Fixture { truths, scalars });
    }
    out
}

fn encode_truths(dataset: &Dataset, truths: &[crowd_data::Answer]) -> String {
    if dataset.task_type().is_categorical() {
        let labels: Vec<String> = truths
            .iter()
            .map(|a| a.label().expect("categorical").to_string())
            .collect();
        format!("L:{}", labels.join(","))
    } else {
        let bits: Vec<String> = truths
            .iter()
            .map(|a| format!("{:016x}", a.numeric().expect("numeric").to_bits()))
            .collect();
        format!("N:{}", bits.join(","))
    }
}

/// Pinned `fast-math` divergence bounds for one method.
#[cfg(feature = "fast-math")]
struct FastMathTolerance {
    /// Max |Δ| on any worker-quality scalar vs the fixture.
    scalar_abs: f64,
    /// Max fraction of labels (or numeric truths beyond `scalar_abs`)
    /// that may disagree with the fixture.
    label_flip_frac: f64,
}

/// The pinned per-method `fast-math` contract. Bounds were measured
/// over the full fixture grid (both seeds, all supported datasets) and
/// pinned with generous headroom over the observed drift; tightening a
/// bound below the measured drift is a test failure, loosening one
/// requires editing this table (i.e. it is a reviewed decision, not
/// drift). Measured on this grid: every method except GLAD stays
/// within 1e-15 of the std trajectory and flips zero labels; GLAD —
/// gradient ascent run to its 100-iteration cap, with saturating
/// sigmoids against the ±8 clamps — reaches scalar drift 0.46 and a
/// 2.5% label-flip fraction, which is the honest cost of `fast-math`
/// on a capped non-converged trajectory (cf. the iteration-cap note on
/// the `Glad` struct).
#[cfg(feature = "fast-math")]
fn fast_math_tolerance(method: &str) -> FastMathTolerance {
    let (scalar_abs, label_flip_frac) = match method {
        // Vote/median/mean paths take no transcendental at all.
        "MV" | "Mean" | "Median" => (0.0, 0.0),
        // Closed-form EM / squash-only paths over the kernels: per-call
        // ULPs stay ULPs (measured ≤ 4e-16).
        "ZC" | "D&S" | "LFC" | "VI-MF" | "VI-BP" | "LFC_N" | "KOS" => (1e-9, 0.0),
        // Contracting gradient/coordinate descent: measured ≤ 1e-15,
        // but an exact-tie vote cascade (PM/CATD) or a late clamp graze
        // (Minimax/Multi) may legitimately reroute a label under a
        // different ≤4-ULP backend.
        "PM" | "CATD" | "Minimax" | "Multi" => (1e-6, 0.01),
        // Capped non-converged gradient ascent: trajectories genuinely
        // walk apart (measured 0.46 / 2.5% on dprod005).
        "GLAD" => (0.75, 0.06),
        // Gibbs samplers: measured 0 on this grid (the perturbed
        // weights did not flip any categorical draw), but one flipped
        // draw reroutes the whole chain, so the pin bounds
        // accuracy-level agreement rather than trajectory closeness.
        "BCC" | "CBCC" => (0.5, 0.25),
        other => panic!("no fast-math tolerance pinned for method {other}"),
    };
    FastMathTolerance {
        scalar_abs,
        label_flip_frac,
    }
}

/// Compare one method run against its fixture cell. Default build:
/// bit-for-bit string equality. `fast-math`: pinned tolerances.
fn check_cell(
    dataset: &Dataset,
    method: &str,
    key: &str,
    seed: u64,
    fixture: &Fixture,
    r: &crowd_core::InferenceResult,
) {
    let got_truths = encode_truths(dataset, &r.truths);
    let got_scalars: Vec<String> = r
        .worker_quality
        .iter()
        .map(|q| match q.scalar() {
            Some(s) => format!("{:016x}", s.to_bits()),
            None => "-".to_string(),
        })
        .collect();
    #[cfg(not(feature = "fast-math"))]
    {
        assert_eq!(
            got_truths, fixture.truths,
            "truths diverged from pre-refactor output: {method} on {key} seed {seed}"
        );
        assert_eq!(
            got_scalars.join(","),
            fixture.scalars,
            "worker scalars diverged from pre-refactor output: {method} on {key} seed {seed}"
        );
    }
    #[cfg(feature = "fast-math")]
    {
        let tol = fast_math_tolerance(method);
        let decode = |s: &str| -> Vec<Option<f64>> {
            s.split(',')
                .map(|tok| {
                    (tok != "-")
                        .then(|| f64::from_bits(u64::from_str_radix(tok, 16).expect("hex scalar")))
                })
                .collect()
        };
        // Truths: count disagreements (exact for labels, beyond
        // scalar_abs for numeric estimates).
        let (got_kind, got_vals) = got_truths.split_at(2);
        let (want_kind, want_vals) = fixture.truths.split_at(2);
        assert_eq!(got_kind, want_kind, "{method} on {key} seed {seed}");
        let flips = if got_kind == "L:" {
            got_vals
                .split(',')
                .zip(want_vals.split(','))
                .filter(|(a, b)| a != b)
                .count()
        } else {
            got_vals
                .split(',')
                .zip(want_vals.split(','))
                .filter(|(a, b)| {
                    let a = f64::from_bits(u64::from_str_radix(a, 16).expect("hex"));
                    let b = f64::from_bits(u64::from_str_radix(b, 16).expect("hex"));
                    (a - b).abs() > tol.scalar_abs
                })
                .count()
        };
        let n = got_vals.split(',').count().max(1);
        assert!(
            flips as f64 / n as f64 <= tol.label_flip_frac,
            "{method} on {key} seed {seed}: {flips}/{n} truths flipped under fast-math \
             (pinned fraction {})",
            tol.label_flip_frac
        );
        // Worker scalars: absolute bound.
        for (w, (got, want)) in decode(&got_scalars.join(","))
            .into_iter()
            .zip(decode(&fixture.scalars))
            .enumerate()
        {
            match (got, want) {
                (Some(g), Some(e)) => assert!(
                    (g - e).abs() <= tol.scalar_abs,
                    "{method} on {key} seed {seed}: worker {w} scalar {g} vs {e} \
                     (pinned |Δ| {})",
                    tol.scalar_abs
                ),
                (g, e) => assert_eq!(
                    g.is_some(),
                    e.is_some(),
                    "{method} on {key} seed {seed}: worker {w} scalar presence changed"
                ),
            }
        }
    }
}

#[test]
fn all_methods_match_pre_refactor_fixture_contract() {
    // Default build: bit-for-bit. `fast-math`: the pinned per-method
    // tolerances (the name stays honest in both CI legs).
    let fixtures = load_fixtures();
    assert!(
        !fixtures.is_empty(),
        "fixture file is empty — regenerate with gen_equivalence_fixtures"
    );
    let mut checked = 0usize;
    for (key, dataset) in fixture_datasets() {
        for method in Method::ALL {
            let instance = method.build();
            if !instance.supports(dataset.task_type()) {
                continue;
            }
            for seed in [7u64, 42] {
                let fixture = fixtures
                    .get(&(method.name().to_string(), key.to_string(), seed))
                    .unwrap_or_else(|| {
                        panic!(
                            "missing fixture for {} on {} seed {}",
                            method.name(),
                            key,
                            seed
                        )
                    });
                let r = instance
                    .infer(&dataset, &InferenceOptions::seeded(seed))
                    .expect("method runs");
                check_cell(&dataset, method.name(), key, seed, fixture, &r);
                checked += 1;
            }
        }
    }
    // 17 methods × the datasets they support × 2 seeds: 14 decision +
    // 10 single-choice (but toy is decision too) + 5 numeric. Guard
    // against the loop silently skipping everything.
    assert!(
        checked >= 80,
        "only {checked} fixture cells checked — coverage collapsed"
    );
}

/// FNV-1a over an inference result: every posterior cell, then every
/// worker's quality entries (a confusion matrix row-major, a skill
/// vector in order) as little-endian `f64` bits, then the truth labels
/// and the iteration count.
#[cfg(not(feature = "fast-math"))]
fn fnv1a(r: &crowd_core::InferenceResult) -> u64 {
    use crowd_core::WorkerQuality;
    fn eat(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn float(hash: &mut u64, x: f64) {
        eat(hash, &x.to_bits().to_le_bytes());
    }
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let post = r.posteriors.as_ref().expect("categorical posteriors");
    for &p in post.data() {
        float(&mut hash, p);
    }
    for q in &r.worker_quality {
        match q {
            WorkerQuality::Confusion(m) => m.iter().flatten().for_each(|&x| float(&mut hash, x)),
            WorkerQuality::Skills(s) => s.iter().for_each(|&x| float(&mut hash, x)),
            other => panic!("unexpected worker quality {other:?}"),
        }
    }
    for a in &r.truths {
        eat(&mut hash, &[a.label().expect("categorical")]);
    }
    eat(&mut hash, &(r.iterations as u64).to_le_bytes());
    hash
}

/// BCC, CBCC, Minimax and Multi keep every output bit — posteriors,
/// worker matrices and skill vectors, not only the truths and quality
/// scalars `equivalence.tsv` pins — at ℓ = 2 (D_Product) and 4 (S_Rel),
/// the paper's widths, and at ℓ = 3 and 6 (simulated streams), and Multi
/// at every `dims` of `crowd-repro`'s ablation plus the default. Every
/// width each method compiles runs here, and so does its generic body.
/// The hashes were taken from the code the current passes replaced: the
/// nested-table samplers, and Minimax's runtime-width twins.
#[cfg(not(feature = "fast-math"))]
#[test]
fn gibbs_and_multi_outputs_keep_their_bits() {
    use crowd_core::methods::{Bcc, Cbcc, Minimax, Multi};
    use crowd_core::TruthInference;
    use crowd_data::StreamSim;

    let datasets = [
        ("D_Product", PaperDataset::DProduct.generate(0.05, 7)),
        ("S_Rel", PaperDataset::SRel.generate(0.02, 7)),
        ("l3", StreamSim::new(11, 300, 25, 3, 5).to_dataset("l3")),
        ("l6", StreamSim::new(11, 300, 25, 6, 5).to_dataset("l6")),
    ];
    let multi = |dims| Multi {
        dims,
        ..Default::default()
    };
    let (bcc, cbcc, minimax) = (Bcc::default(), Cbcc::default(), Minimax::default());
    let (m1, m2, m3, m4, m8) = (multi(1), multi(2), multi(3), multi(4), multi(8));
    let pinned: [(&str, &dyn TruthInference, usize, u64); 17] = [
        ("BCC", &bcc, 0, 0x6419_1785_5702_6055),
        ("BCC", &bcc, 1, 0x44b3_39d8_3170_b73e),
        ("BCC", &bcc, 2, 0x1fe3_efac_4fd3_8760),
        ("BCC", &bcc, 3, 0xf8de_0dcb_41a0_6bad),
        ("CBCC", &cbcc, 0, 0xb253_8c18_36f6_5581),
        ("CBCC", &cbcc, 1, 0xd547_6f04_fae1_598c),
        ("CBCC", &cbcc, 2, 0x689e_af0d_17ea_a171),
        ("CBCC", &cbcc, 3, 0x2a49_d133_07d0_102f),
        ("Minimax", &minimax, 0, 0x4f06_6714_704c_5861),
        ("Minimax", &minimax, 1, 0xfa7e_6370_aa8d_0689),
        ("Minimax", &minimax, 2, 0x8aa1_35a4_8666_7448),
        ("Minimax", &minimax, 3, 0xbe26_f2f5_fd89_40fe),
        ("Multi/1", &m1, 0, 0x7911_abcd_672e_ccdc),
        ("Multi/2", &m2, 0, 0xcdd6_863d_7dd5_e86d),
        ("Multi/3", &m3, 0, 0x7d8b_a6a0_9d6f_03e3),
        ("Multi/4", &m4, 0, 0xb33f_8dae_77cf_37bb),
        ("Multi/8", &m8, 0, 0x6660_9b59_7364_8a83),
    ];
    for (label, method, d, want) in pinned {
        let (name, dataset) = &datasets[d];
        let r = method
            .infer(dataset, &InferenceOptions::seeded(3))
            .expect("method runs");
        assert_eq!(fnv1a(&r), want, "{label} on {name}: {:#018x}", fnv1a(&r));
    }
}
