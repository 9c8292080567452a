//! Property-based tests of the data substrate: builder/dataset adjacency
//! invariants, redundancy sub-sampling, golden splits, simulator
//! marginals under arbitrary configurations, the totality of the TSV
//! reader on arbitrary and damaged files, and pinned hashes of the paper
//! datasets and their sub-samples.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crowd_data::datasets::PaperDataset;
use crowd_data::io::{read_tsv, write_tsv};
use crowd_data::{
    datasets, subsample_redundancy, toy, Answer, AnswerRecord, CrowdSimulator, Dataset,
    DatasetBuilder, GoldenSplit, HardTaskMode, SimulatorConfig, TaskType, WorkerModel,
};

/// Random but valid simulator configurations.
fn arb_config() -> impl Strategy<Value = SimulatorConfig> {
    (
        5usize..40,  // tasks
        3usize..12,  // workers
        1usize..3,   // redundancy (bounded below workers)
        2u8..5,      // choices
        0.0f64..0.3, // spammers
        0.0f64..1.5, // zipf
        0.2f64..1.0, // truth fraction
        0.0f64..0.5, // hard fraction
    )
        .prop_map(
            |(tasks, workers, redundancy, choices, spam, zipf, truth_frac, hard)| SimulatorConfig {
                name: "prop".into(),
                task_type: TaskType::SingleChoice { choices },
                num_tasks: tasks,
                num_workers: workers,
                redundancy: redundancy.min(workers),
                truth_prior: vec![1.0 / choices as f64; choices as usize],
                worker_model: WorkerModel::OneCoin {
                    alpha: 4.0,
                    beta: 2.0,
                },
                spammer_fraction: spam,
                zipf_exponent: zipf,
                truth_fraction: truth_frac,
                numeric_task_offset_std: 0.0,
                hard_task_fraction: hard,
                hard_task_accuracy: 0.3,
                hard_task_mode: HardTaskMode::Flatten,
                truth_only_on_hard: false,
                heavy_worker_model: None,
            },
        )
}

/// The dataset index agrees with the log: each task's and each worker's
/// answers are `records()` filtered to that task or worker, in log order,
/// and `max_task_degree` is the largest task degree.
fn index_matches_log(d: &Dataset) -> Result<(), TestCaseError> {
    for t in 0..d.num_tasks() {
        let indexed: Vec<AnswerRecord> = d.answers_for_task(t).copied().collect();
        let filtered: Vec<AnswerRecord> = d
            .records()
            .iter()
            .filter(|r| r.task == t)
            .copied()
            .collect();
        prop_assert_eq!(&indexed, &filtered, "task {}", t);
        prop_assert_eq!(d.task_degree(t), filtered.len());
    }
    for w in 0..d.num_workers() {
        let indexed: Vec<AnswerRecord> = d.answers_by_worker(w).copied().collect();
        let filtered: Vec<AnswerRecord> = d
            .records()
            .iter()
            .filter(|r| r.worker == w)
            .copied()
            .collect();
        prop_assert_eq!(&indexed, &filtered, "worker {}", w);
        prop_assert_eq!(d.worker_degree(w), filtered.len());
    }
    let max = (0..d.num_tasks())
        .map(|t| d.task_degree(t))
        .max()
        .unwrap_or(0);
    prop_assert_eq!(d.max_task_degree(), max);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the configuration, the generated dataset satisfies the
    /// structural invariants: exact redundancy, distinct workers per
    /// task, degrees consistent with the log, labels in range.
    #[test]
    fn simulator_output_is_structurally_valid(cfg in arb_config(), seed in 0u64..1000) {
        let redundancy = cfg.redundancy;
        let choices = cfg.task_type.num_choices().unwrap();
        let d = CrowdSimulator::new(cfg, seed).generate();

        prop_assert_eq!(d.num_answers(), d.num_tasks() * redundancy);
        let mut degree_sum = 0usize;
        for t in 0..d.num_tasks() {
            let mut ws: Vec<usize> = d.answers_for_task(t).map(|r| r.worker).collect();
            prop_assert_eq!(ws.len(), redundancy);
            ws.sort_unstable();
            ws.dedup();
            prop_assert_eq!(ws.len(), redundancy, "duplicate worker on task {}", t);
        }
        for w in 0..d.num_workers() {
            degree_sum += d.worker_degree(w);
        }
        prop_assert_eq!(degree_sum, d.num_answers());
        for r in d.records() {
            prop_assert!(r.answer.label().unwrap() < choices);
        }
        for truth in d.truths().iter().flatten() {
            prop_assert!(truth.label().unwrap() < choices);
        }
    }

    /// Sub-sampling at any r keeps per-task degrees at min(r, degree) and
    /// never invents records.
    #[test]
    fn subsample_degrees_are_capped(cfg in arb_config(), seed in 0u64..100, r in 1usize..6) {
        let d = CrowdSimulator::new(cfg, seed).generate();
        let sub = subsample_redundancy(&d, r, seed);
        for t in 0..d.num_tasks() {
            prop_assert_eq!(sub.task_degree(t), d.task_degree(t).min(r));
        }
        prop_assert!(sub.num_answers() <= d.num_answers());
    }

    /// Golden splits partition the truth-labelled tasks for any fraction.
    #[test]
    fn golden_split_partitions(cfg in arb_config(), seed in 0u64..100, frac in 0.0f64..1.0) {
        let d = CrowdSimulator::new(cfg, seed).generate();
        let split = GoldenSplit::sample(&d, frac, seed);
        let total = d.num_truths();
        prop_assert_eq!(split.golden.len() + split.eval.len(), total);
        let mut all: Vec<usize> = split.golden.iter().chain(&split.eval).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), total, "overlap between golden and eval");
        for &t in &split.golden {
            prop_assert!(split.revealed[t].is_some());
        }
    }

    /// The builder accepts any permutation of valid inserts and the
    /// adjacency always matches the record log — on the built dataset
    /// and on `with_records` of a shuffled subset of its log.
    #[test]
    fn builder_adjacency_matches_log(
        edges in proptest::collection::vec((0usize..15, 0usize..8, 0u8..3), 0..80),
        keys in proptest::collection::vec(0u32..1000, 1..80),
    ) {
        let mut b = DatasetBuilder::new("p", TaskType::SingleChoice { choices: 3 }, 15, 8);
        let mut seen = std::collections::HashSet::new();
        let mut inserted = 0usize;
        for (t, w, l) in edges {
            if seen.insert((t, w)) {
                b.add_label(t, w, l).unwrap();
                inserted += 1;
            } else {
                prop_assert!(b.add_label(t, w, l).is_err(), "duplicate must be rejected");
            }
        }
        let d = b.build();
        prop_assert_eq!(d.num_answers(), inserted);
        let by_task: usize = (0..15).map(|t| d.task_degree(t)).sum();
        let by_worker: usize = (0..8).map(|w| d.worker_degree(w)).sum();
        prop_assert_eq!(by_task, inserted);
        prop_assert_eq!(by_worker, inserted);

        index_matches_log(&d)?;
        // Keep about two records in three, in the order of their keys.
        let mut keyed: Vec<(u32, AnswerRecord)> = keys
            .iter()
            .cycle()
            .copied()
            .zip(d.records().iter().copied())
            .filter(|(key, _)| key % 3 != 0)
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        let sub = d.with_records(keyed.into_iter().map(|(_, r)| r).collect());
        index_matches_log(&sub)?;
    }

    /// Simulators are pure functions of (config, seed).
    #[test]
    fn simulator_is_deterministic(cfg in arb_config(), seed in 0u64..200) {
        let a = CrowdSimulator::new(cfg.clone(), seed).generate();
        let b = CrowdSimulator::new(cfg, seed).generate();
        prop_assert_eq!(a.records(), b.records());
        prop_assert_eq!(a.truths(), b.truths());
    }
}

/// Bytes weighted toward what TSV lines are made of (tabs, newlines,
/// digits, signs, id letters, `nan`/`inf`, exponents). Each case draws
/// how often a byte is taken raw instead (never, 1 in 64, or 1 in 4), so
/// every byte value, invalid UTF-8 included, stays reachable while some
/// files still decode and reach the parser and the builder.
fn arb_tsv_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"\t\t\t\n\n\r 0123456789-+.eEtwqNaIinf";
    (0u8..3).prop_flat_map(|level| {
        let raw_below: u8 = [0, 4, 64][level as usize];
        let byte = (0u8..=255, 0u8..=255).prop_map(move |(b, roll)| {
            if roll < raw_below {
                b
            } else {
                ALPHABET[b as usize % ALPHABET.len()]
            }
        });
        proptest::collection::vec(byte, 0..160)
    })
}

/// A per-test scratch directory for the files the reader is fed.
fn tsv_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowd_tsv_total_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Feed `answers` (and `truths`, when given) to `read_tsv` as a
/// decision-making, a four-choice and a numeric dataset. Every call must
/// return, and an `Ok` dataset must hold only answers valid for its type.
fn read_is_total(dir: &Path, answers: &[u8], truths: Option<&[u8]>) -> Result<(), String> {
    let answers_path = dir.join("answers.tsv");
    let truths_path = dir.join("truths.tsv");
    std::fs::write(&answers_path, answers).unwrap();
    if let Some(bytes) = truths {
        std::fs::write(&truths_path, bytes).unwrap();
    }
    for task_type in [
        TaskType::DecisionMaking,
        TaskType::SingleChoice { choices: 4 },
        TaskType::Numeric,
    ] {
        let read = std::panic::catch_unwind(|| {
            read_tsv(
                &answers_path,
                truths.map(|_| truths_path.as_path()),
                task_type,
                "total",
            )
            .map_err(|e| e.to_string())
        });
        let valid = match read {
            Err(_) => false,
            Ok(Err(_)) => true,
            Ok(Ok(d)) => {
                d.records()
                    .iter()
                    .all(|r| task_type.check_answer(&r.answer).is_ok())
                    && d.truths()
                        .iter()
                        .flatten()
                        .all(|t| task_type.check_answer(t).is_ok())
            }
        };
        if !valid {
            return Err(format!(
                "read_tsv as {task_type:?} panicked or returned an invalid dataset on \
                 answers {:?} and truths {:?}",
                String::from_utf8_lossy(answers),
                truths.map(String::from_utf8_lossy),
            ));
        }
    }
    Ok(())
}

/// `write_tsv` output of `d`, as `(answers, truths)` bytes.
fn exported(d: &Dataset, dir: &Path) -> (Vec<u8>, Option<Vec<u8>>) {
    let out = dir.join("export");
    let answers_path = write_tsv(d, &out).unwrap();
    let truths = std::fs::read(out.join("truths.tsv")).ok();
    (std::fs::read(answers_path).unwrap(), truths)
}

/// A `(position, mask)` byte flip; half the masks stay in the low
/// nibble, which keeps ASCII text decodable (a digit turns into another
/// digit or a punctuation mark) so the damage reaches the parser.
fn arb_flip() -> impl Strategy<Value = (f64, u8)> {
    (0.0f64..1.0, 1u8..=255, 0u8..2).prop_map(|(at, mask, low)| {
        let mask = if low == 0 { mask } else { (mask & 0x0f).max(1) };
        (at, mask)
    })
}

/// Cut `bytes` to `keep` of its length and XOR the given `(position,
/// mask)` pairs into what is left.
fn damage(mut bytes: Vec<u8>, keep: f64, flips: &[(f64, u8)]) -> Vec<u8> {
    bytes.truncate((bytes.len() as f64 * keep) as usize);
    if !bytes.is_empty() {
        for &(at, mask) in flips {
            let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
            bytes[i] ^= mask;
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_tsv` is total: arbitrary bytes as the answer file, with or
    /// without an arbitrary truth file, give `Ok` or a typed
    /// `DataError` under every task type — never a panic.
    #[test]
    fn read_tsv_is_total_on_arbitrary_bytes(
        answers in arb_tsv_bytes(),
        truths in proptest::option::of(arb_tsv_bytes()),
    ) {
        let dir = tsv_dir("bytes");
        let checked = read_is_total(&dir, &answers, truths.as_deref());
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// The same for truncated and byte-flipped copies of real exports:
    /// the paper's toy example, a simulated single-choice log and a
    /// numeric one.
    #[test]
    fn read_tsv_is_total_on_damaged_exports(
        source in 0usize..3,
        seed in 0u64..1000,
        keep in (0.0f64..1.0, 0.0f64..1.0),
        flips in proptest::collection::vec(arb_flip(), 0..4),
    ) {
        let dir = tsv_dir("damaged");
        let d = match source {
            0 => toy::paper_example(),
            1 => datasets::d_product(0.01, seed),
            _ => datasets::n_emotion(0.05, seed),
        };
        let (answers, truths) = exported(&d, &dir);
        let answers = damage(answers, keep.0, &flips);
        let truths = truths.map(|t| damage(t, keep.1, &flips));
        let checked = read_is_total(&dir, &answers, truths.as_deref());
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// FNV-1a over a dataset's universe, answer log and truths: task and
/// worker as little-endian `u64`s, a label as `[0, label]`, a number as
/// `[1]` and its bits, an unknown truth as `[2]`.
fn fnv1a(d: &Dataset) -> u64 {
    fn eat(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn answer(hash: &mut u64, a: &Answer) {
        match a {
            Answer::Label(l) => eat(hash, &[0, *l]),
            Answer::Numeric(v) => {
                eat(hash, &[1]);
                eat(hash, &v.to_bits().to_le_bytes());
            }
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325;
    eat(&mut hash, &(d.num_tasks() as u64).to_le_bytes());
    eat(&mut hash, &(d.num_workers() as u64).to_le_bytes());
    for r in d.records() {
        eat(&mut hash, &(r.task as u64).to_le_bytes());
        eat(&mut hash, &(r.worker as u64).to_le_bytes());
        answer(&mut hash, &r.answer);
    }
    for truth in d.truths() {
        match truth {
            None => eat(&mut hash, &[2]),
            Some(a) => answer(&mut hash, a),
        }
    }
    hash
}

/// Every paper dataset at scale 0.1, seed 7, and its `r = 3` sub-sample
/// (seed 1) hash to pinned values: a change to how datasets are built
/// or sub-sampled must keep every generated bit, since every figure and
/// the equivalence fixtures are computed from the simulators' output.
#[test]
fn paper_datasets_and_subsamples_keep_their_bits() {
    const PINNED: [(&str, u64, u64); 5] = [
        ("D_Product", 0x8bcd_f928_e778_ce91, 0x8bcd_f928_e778_ce91),
        ("D_PosSent", 0x5c35_1447_cba0_5e49, 0xa4c5_85a4_7d13_d965),
        ("S_Rel", 0xcc0c_5617_c6f3_3bba, 0x18d0_ffc7_f432_3e0e),
        ("S_Adult", 0xe4c9_09ee_dec9_e342, 0x6399_621d_2461_e072),
        ("N_Emotion", 0xfc1e_0baf_e178_3961, 0x1e4c_29c8_cf4d_013a),
    ];
    for (id, (name, full, sub)) in PaperDataset::ALL.into_iter().zip(PINNED) {
        let d = id.generate(0.1, 7);
        assert_eq!(d.name(), name);
        assert_eq!(fnv1a(&d), full, "{name}: {:#018x}", fnv1a(&d));
        let s = subsample_redundancy(&d, 3, 1);
        assert_eq!(fnv1a(&s), sub, "{name} at r = 3: {:#018x}", fnv1a(&s));
    }
}
