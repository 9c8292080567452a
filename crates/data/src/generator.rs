//! The crowd simulator: generates answer logs with controlled statistics.
//!
//! The real answer logs behind Table 5 are not redistributable here, so the
//! benchmark is driven by this simulator instead (see DESIGN.md §5). The
//! simulator reproduces the *observable* statistics the paper reports:
//!
//! - task counts, worker counts and per-task redundancy (Table 5);
//! - long-tail worker participation via Zipf-weighted assignment
//!   (Figure 2: "most workers answer a few tasks and only a few workers
//!   answer plenty of tasks");
//! - worker-quality distributions (Figure 3), including class-conditional
//!   error structure — the paper explains D_Product workers have high
//!   specificity (`q_FF`) but low sensitivity (`q_TT`), which is exactly
//!   why confusion-matrix methods win there;
//! - spammer fractions (workers who answer uniformly at random);
//! - numeric workers with per-worker bias and variance (Section 4.2.3).
//!
//! Everything is seeded and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::DatasetBuilder;
use crate::model::{Dataset, TaskType};
use crowd_stats::dist::{sample_beta, sample_categorical, sample_gaussian};

/// How hard tasks degrade worker answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HardTaskMode {
    /// Every non-spammer answers at exactly `hard_task_accuracy` on hard
    /// tasks — skill is erased, so no method can separate workers there
    /// (the S_Adult signature).
    #[default]
    Flatten,
    /// Each worker's own correct-probability is multiplied by
    /// `hard_task_accuracy` (floored at chance) — skilled workers stay
    /// relatively better, so confusion-matrix methods retain their edge
    /// (the S_Rel regime of borderline-relevance judging).
    Scale,
}

/// How a simulated worker produces answers.
#[derive(Debug, Clone)]
pub enum WorkerModel {
    /// Single-probability worker: answers correctly with probability `p`
    /// drawn from `Beta(alpha, beta)`; errors are uniform over the
    /// remaining choices. The classic one-coin model (Section 4.2.1).
    OneCoin {
        /// Beta prior alpha for the per-worker accuracy.
        alpha: f64,
        /// Beta prior beta for the per-worker accuracy.
        beta: f64,
    },
    /// Confusion-matrix worker: one accuracy per true class, so error
    /// rates can be class-asymmetric (Section 4.2.2). `diag[j]` gives the
    /// Beta parameters for `Pr(answer = j | truth = j)`; off-diagonal mass
    /// is uniform over the other choices.
    ClassConditional {
        /// Per-class `(alpha, beta)` Beta parameters for the diagonal.
        diag: Vec<(f64, f64)>,
    },
    /// Full-confusion-matrix worker: each worker's row-stochastic
    /// confusion matrix is drawn from Dirichlet distributions centred on
    /// a population `base` matrix, `row_j ~ Dirichlet(concentration ·
    /// base[j])`. Unlike [`WorkerModel::ClassConditional`], errors are
    /// *label-asymmetric* (e.g. relevance judges confusing adjacent
    /// grades, raters defaulting to 'G') — the structure that lets
    /// confusion-matrix methods beat one-coin models on real
    /// single-choice data (§6.3.4).
    ConfusionMatrix {
        /// Population-level row-stochastic `ℓ × ℓ` confusion matrix.
        base: Vec<Vec<f64>>,
        /// Dirichlet concentration: larger = workers cluster tighter
        /// around `base`.
        concentration: f64,
    },
    /// Numeric worker with Gaussian bias and variance (Section 4.2.3):
    /// answers `truth + bias + N(0, sigma²)`, with `bias ~ N(0,
    /// bias_std²)` and `sigma` uniform in `[sigma_lo, sigma_hi]`.
    Numeric {
        /// Standard deviation of the per-worker bias.
        bias_std: f64,
        /// Lower bound of the per-worker noise standard deviation.
        sigma_lo: f64,
        /// Upper bound of the per-worker noise standard deviation.
        sigma_hi: f64,
    },
}

/// Full configuration of a simulated crowdsourcing run.
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// Dataset name.
    pub name: String,
    /// Task type (decides the answer representation).
    pub task_type: TaskType,
    /// Number of tasks `n`.
    pub num_tasks: usize,
    /// Number of workers `|W|`.
    pub num_workers: usize,
    /// Answers collected per task (Table 5's `|V|/n`).
    pub redundancy: usize,
    /// Class prior over truths for categorical tasks (length `ℓ`), or the
    /// `(lo, hi)` range truths are drawn uniformly from for numeric tasks
    /// encoded as a two-element vector.
    pub truth_prior: Vec<f64>,
    /// Worker behaviour model.
    pub worker_model: WorkerModel,
    /// Fraction of workers that are spammers (answer uniformly at random,
    /// or uniformly in the numeric range).
    pub spammer_fraction: f64,
    /// Zipf exponent for worker participation; larger means heavier tail
    /// (a handful of workers answer most tasks). 0 = uniform.
    pub zipf_exponent: f64,
    /// Fraction of tasks whose ground truth is published (S_Rel and
    /// S_Adult only release a subset; 1.0 elsewhere).
    pub truth_fraction: f64,
    /// Standard deviation of a per-task offset shared by *all* workers on
    /// numeric tasks (0 for categorical datasets). Real numeric crowd
    /// data shows correlated errors — the paper's consistency statistic
    /// C = 20.44 for N_Emotion sits well below the average per-worker
    /// RMSE of 28.9, which is only possible when part of each worker's
    /// error is common to the task. Ignored for categorical task types.
    pub numeric_task_offset_std: f64,
    /// Fraction of categorical tasks that are *hard*: on them every
    /// worker's per-answer accuracy is replaced by
    /// [`Self::hard_task_accuracy`], regardless of skill. Hard tasks are
    /// what caps real-data method quality below the independent-error
    /// ceiling (e.g. D_PosSent methods saturate at ≈96% despite 20
    /// answers per task) and what produces S_Adult's signature
    /// (consistent answers, C = 0.39, yet every method stuck at ≈36% on
    /// the gold subset). Ignored for numeric task types.
    pub hard_task_fraction: f64,
    /// Per-answer accuracy on hard tasks under [`HardTaskMode::Flatten`],
    /// or the multiplicative degradation factor under
    /// [`HardTaskMode::Scale`].
    pub hard_task_accuracy: f64,
    /// How hard tasks interact with worker skill.
    pub hard_task_mode: HardTaskMode,
    /// When true, ground truth is published exactly for the hard tasks
    /// (S_Adult's gold subset is concentrated on the hard, adult-rated
    /// pages) instead of a `truth_fraction` random sample.
    pub truth_only_on_hard: bool,
    /// Optional override for the `count` most participatory workers: they
    /// draw their parameters from this model instead of `worker_model`.
    ///
    /// This reproduces a structure the paper observes on S_Adult: the
    /// per-worker average accuracy is mediocre-but-okay (0.65) while every
    /// *method* scores ≈36%, which requires the heavy workers (who
    /// contribute most answers under the long tail) to be substantially
    /// worse than the light majority.
    pub heavy_worker_model: Option<(usize, WorkerModel)>,
}

impl SimulatorConfig {
    /// A small sane default for tests: 50 decision-making tasks, 10
    /// workers, redundancy 3, balanced truth, decent one-coin workers.
    pub fn small_decision() -> Self {
        Self {
            name: "SmallDecision".into(),
            task_type: TaskType::DecisionMaking,
            num_tasks: 50,
            num_workers: 10,
            redundancy: 3,
            truth_prior: vec![0.5, 0.5],
            worker_model: WorkerModel::OneCoin {
                alpha: 8.0,
                beta: 2.0,
            },
            spammer_fraction: 0.0,
            zipf_exponent: 1.0,
            truth_fraction: 1.0,
            numeric_task_offset_std: 0.0,
            hard_task_fraction: 0.0,
            hard_task_accuracy: 0.5,
            hard_task_mode: HardTaskMode::Flatten,
            truth_only_on_hard: false,
            heavy_worker_model: None,
        }
    }
}

/// Per-worker latent parameters drawn at simulation start; retrievable for
/// tests that check the estimators recover them.
#[derive(Debug, Clone)]
pub enum WorkerParams {
    /// One-coin accuracy.
    OneCoin {
        /// Probability of answering correctly.
        accuracy: f64,
    },
    /// Per-class diagonal accuracies.
    ClassConditional {
        /// `diag[j] = Pr(answer j | truth j)`.
        diag: Vec<f64>,
    },
    /// A full per-worker confusion matrix.
    ConfusionMatrix {
        /// `rows[j][k] = Pr(answer k | truth j)`.
        rows: Vec<Vec<f64>>,
    },
    /// Numeric bias and noise.
    Numeric {
        /// Additive bias.
        bias: f64,
        /// Noise standard deviation.
        sigma: f64,
    },
    /// Uniformly random answers.
    Spammer,
}

/// The simulator: holds the config and drawn worker parameters, and
/// produces [`Dataset`]s.
#[derive(Debug)]
pub struct CrowdSimulator {
    config: SimulatorConfig,
    workers: Vec<WorkerParams>,
    zipf_weights: Vec<f64>,
    rng: StdRng,
}

impl CrowdSimulator {
    /// Create a simulator, drawing per-worker latent parameters from the
    /// configured model.
    ///
    /// # Panics
    /// Panics on inconsistent configuration (zero tasks/workers, empty or
    /// mis-sized truth prior, redundancy exceeding the worker count).
    pub fn new(config: SimulatorConfig, seed: u64) -> Self {
        assert!(config.num_tasks > 0, "need at least one task");
        assert!(config.num_workers > 0, "need at least one worker");
        assert!(
            config.redundancy <= config.num_workers,
            "redundancy {} cannot exceed worker count {} (a worker answers a task at most once)",
            config.redundancy,
            config.num_workers
        );
        assert!(
            (0.0..=1.0).contains(&config.spammer_fraction),
            "spammer_fraction in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.truth_fraction),
            "truth_fraction in [0,1]"
        );
        match config.task_type {
            TaskType::Numeric => assert_eq!(
                config.truth_prior.len(),
                2,
                "numeric truth_prior must be [lo, hi]"
            ),
            t => assert_eq!(
                config.truth_prior.len(),
                t.num_choices().expect("categorical") as usize,
                "truth_prior length must equal the number of choices"
            ),
        }

        let mut rng = StdRng::seed_from_u64(seed);

        // Zipf participation weights over a random permutation of workers
        // (so worker index does not correlate with participation). Rank 0
        // is the heaviest worker.
        let mut perm: Vec<usize> = (0..config.num_workers).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut zipf_weights = vec![0.0; config.num_workers];
        let mut rank_of = vec![0usize; config.num_workers];
        for (rank, &w) in perm.iter().enumerate() {
            zipf_weights[w] = 1.0 / ((rank + 1) as f64).powf(config.zipf_exponent);
            rank_of[w] = rank;
        }

        let workers = (0..config.num_workers)
            .map(|w| {
                let is_spammer =
                    (w as f64 + 0.5) / config.num_workers as f64 <= config.spammer_fraction;
                if is_spammer {
                    return WorkerParams::Spammer;
                }
                let model = match &config.heavy_worker_model {
                    Some((count, heavy)) if rank_of[w] < *count => heavy,
                    _ => &config.worker_model,
                };
                draw_worker_params(&mut rng, model)
            })
            .collect();

        Self {
            config,
            workers,
            zipf_weights,
            rng,
        }
    }

    /// Latent parameters of worker `w` (for tests and diagnostics).
    pub fn worker_params(&self, w: usize) -> &WorkerParams {
        &self.workers[w]
    }

    /// The configuration.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Draw one complete dataset: truths, worker assignment, answers.
    pub fn generate(&mut self) -> Dataset {
        let n = self.config.num_tasks;
        let categorical = self.config.task_type.is_categorical();

        // 1. Truths.
        let truths: Vec<f64> = if categorical {
            (0..n)
                .map(|_| sample_categorical(&mut self.rng, &self.config.truth_prior) as f64)
                .collect()
        } else {
            let (lo, hi) = (self.config.truth_prior[0], self.config.truth_prior[1]);
            (0..n).map(|_| self.rng.gen_range(lo..hi)).collect()
        };

        // Hard-task mask for categorical tasks.
        let hard: Vec<bool> = if categorical && self.config.hard_task_fraction > 0.0 {
            (0..n)
                .map(|_| self.rng.gen_range(0.0..1.0) < self.config.hard_task_fraction)
                .collect()
        } else {
            vec![false; n]
        };

        // Shared per-task offsets for numeric tasks (correlated error).
        let offsets: Vec<f64> = if categorical || self.config.numeric_task_offset_std == 0.0 {
            vec![0.0; n]
        } else {
            (0..n)
                .map(|_| sample_gaussian(&mut self.rng, 0.0, self.config.numeric_task_offset_std))
                .collect()
        };

        // 2. Assignment: each task gets `redundancy` distinct workers,
        //    drawn by Zipf weight without replacement.
        let mut builder = DatasetBuilder::new(
            self.config.name.clone(),
            self.config.task_type,
            n,
            self.config.num_workers,
        );
        for task in 0..n {
            let chosen = self.pick_workers(self.config.redundancy);
            for worker in chosen {
                let answer = self.draw_answer(worker, truths[task] + offsets[task], hard[task]);
                match answer {
                    SimAnswer::Label(l) => builder
                        .add_label(task, worker, l)
                        .expect("simulator produced valid label"),
                    SimAnswer::Numeric(v) => builder
                        .add_numeric(task, worker, v)
                        .expect("simulator produced valid numeric"),
                }
            }
        }

        // 3. Publish ground truth: either exactly the hard tasks
        //    (S_Adult's gold structure) or a random subset.
        let publish_all = self.config.truth_fraction >= 1.0 && !self.config.truth_only_on_hard;
        for task in 0..n {
            let publish = if self.config.truth_only_on_hard {
                hard[task]
            } else {
                publish_all || self.rng.gen_range(0.0..1.0) < self.config.truth_fraction
            };
            if publish {
                if categorical {
                    builder
                        .set_truth_label(task, truths[task] as u8)
                        .expect("simulator produced valid truth");
                } else {
                    builder
                        .set_truth_numeric(task, truths[task])
                        .expect("simulator produced valid truth");
                }
            }
        }

        builder.build()
    }

    /// Weighted sample of `k` distinct workers.
    fn pick_workers(&mut self, k: usize) -> Vec<usize> {
        let mut weights = self.zipf_weights.clone();
        let mut chosen = Vec::with_capacity(k);
        for _ in 0..k {
            let w = sample_categorical(&mut self.rng, &weights);
            weights[w] = 0.0;
            chosen.push(w);
        }
        chosen
    }

    fn draw_answer(&mut self, worker: usize, truth: f64, hard: bool) -> SimAnswer {
        let choices = self.config.task_type.num_choices();
        // On hard tasks the worker's correct-probability is either
        // flattened to `hard_task_accuracy` (skill erased) or scaled by
        // it (skill preserved but degraded), depending on the mode.
        if hard {
            if let Some(l) = choices {
                if !matches!(self.workers[worker], WorkerParams::Spammer) {
                    let truth_label = truth as u8;
                    let chance = 1.0 / l as f64;
                    let p_correct = match self.config.hard_task_mode {
                        HardTaskMode::Flatten => self.config.hard_task_accuracy,
                        HardTaskMode::Scale => {
                            let base = match &self.workers[worker] {
                                WorkerParams::OneCoin { accuracy } => *accuracy,
                                WorkerParams::ClassConditional { diag } => {
                                    diag[truth_label as usize]
                                }
                                WorkerParams::ConfusionMatrix { rows } => {
                                    rows[truth_label as usize][truth_label as usize]
                                }
                                _ => chance,
                            };
                            (base * self.config.hard_task_accuracy).max(chance)
                        }
                    };
                    return if self.rng.gen_range(0.0..1.0) < p_correct {
                        SimAnswer::Label(truth_label)
                    } else {
                        SimAnswer::Label(random_other_label(&mut self.rng, l, truth_label))
                    };
                }
            }
        }
        match &self.workers[worker] {
            WorkerParams::Spammer => match choices {
                Some(l) => SimAnswer::Label(self.rng.gen_range(0..l)),
                None => {
                    let (lo, hi) = (self.config.truth_prior[0], self.config.truth_prior[1]);
                    SimAnswer::Numeric(self.rng.gen_range(lo..hi))
                }
            },
            WorkerParams::OneCoin { accuracy } => {
                let l = choices.expect("one-coin worker on categorical task");
                let truth = truth as u8;
                if self.rng.gen_range(0.0..1.0) < *accuracy {
                    SimAnswer::Label(truth)
                } else {
                    SimAnswer::Label(random_other_label(&mut self.rng, l, truth))
                }
            }
            WorkerParams::ClassConditional { diag } => {
                let l = choices.expect("class-conditional worker on categorical task");
                let truth = truth as u8;
                let p_correct = diag[truth as usize];
                if self.rng.gen_range(0.0..1.0) < p_correct {
                    SimAnswer::Label(truth)
                } else {
                    SimAnswer::Label(random_other_label(&mut self.rng, l, truth))
                }
            }
            WorkerParams::ConfusionMatrix { rows } => {
                let _ = choices.expect("confusion-matrix worker on categorical task");
                let truth = truth as u8;
                let row = rows[truth as usize].clone();
                SimAnswer::Label(sample_categorical(&mut self.rng, &row) as u8)
            }
            WorkerParams::Numeric { bias, sigma } => {
                SimAnswer::Numeric(truth + bias + sample_gaussian(&mut self.rng, 0.0, *sigma))
            }
        }
    }
}

enum SimAnswer {
    Label(u8),
    Numeric(f64),
}

// ---------------------------------------------------------------------------
// Streaming generator: million-task scale, O(1) memory, seed-stable.
// ---------------------------------------------------------------------------

/// splitmix64 — the finalizer used as the per-coordinate hash of the
/// streaming generator: every drawn quantity is a pure function of
/// `(seed, purpose, coordinates)`, so the stream can be replayed from any
/// point without carrying RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Hash a purpose tag plus up to three coordinates into a u64.
fn mix(seed: u64, purpose: u64, a: u64, b: u64) -> u64 {
    splitmix64(
        seed ^ splitmix64(purpose ^ splitmix64(a).wrapping_add(b.wrapping_mul(0x9e3779b97f4a7c15))),
    )
}

/// Map a hash to a uniform f64 in `[0, 1)` (top 53 bits).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const PURPOSE_TRUTH: u64 = 0x54525554; // "TRUT"
const PURPOSE_ACC: u64 = 0x41434355; // "ACCU"
const PURPOSE_PICK: u64 = 0x5049434b; // "PICK"
const PURPOSE_ANS: u64 = 0x414e5357; // "ANSW"

/// A **streaming** crowd simulator for scale benchmarks: emits a
/// task-major `(task, worker, label)` record stream of `num_tasks ×
/// redundancy` answers in **O(1) memory** — no `Vec<AnswerRecord>`, no
/// RNG state. Every quantity (task truth, worker accuracy, per-task
/// worker picks, per-answer correctness) is a pure splitmix64 hash of
/// `(seed, purpose, coordinates)`, so:
///
/// - the stream is byte-identical across runs and platforms for a given
///   `(config, seed)` — seed-stable by construction;
/// - any subrange can be regenerated independently (the warm-resume
///   dirty-shard tests rebuild single shards from
///   [`StreamSim::task_records`]);
/// - generation never perturbs measurement: there is no shared RNG whose
///   consumption order could differ between shard counts or between the
///   two passes of a view build.
///
/// Workers answer correctly with per-worker accuracy uniform in
/// `[0.55, 0.95]`; errors spread uniformly over the other `ℓ − 1`
/// labels; each task gets `redundancy` **distinct** workers (rejection
/// sampling over the hash stream).
#[derive(Debug, Clone, Copy)]
pub struct StreamSim {
    seed: u64,
    num_tasks: usize,
    num_workers: usize,
    num_choices: u8,
    redundancy: usize,
}

impl StreamSim {
    /// Configure a stream. `redundancy` must not exceed `num_workers`
    /// (a worker answers a task at most once), and the task type is
    /// always categorical with `num_choices ≥ 2`.
    ///
    /// # Panics
    /// Panics on zero tasks/workers, `num_choices < 2`, or
    /// `redundancy > num_workers`.
    pub fn new(
        seed: u64,
        num_tasks: usize,
        num_workers: usize,
        num_choices: u8,
        redundancy: usize,
    ) -> Self {
        assert!(num_tasks > 0, "need at least one task");
        assert!(num_workers > 0, "need at least one worker");
        assert!(num_choices >= 2, "need at least two choices");
        assert!(
            redundancy >= 1 && redundancy <= num_workers,
            "redundancy {redundancy} must be in 1..={num_workers}"
        );
        Self {
            seed,
            num_tasks,
            num_workers,
            num_choices,
            redundancy,
        }
    }

    /// Number of tasks `n`.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of workers `|W|`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of categorical choices `ℓ`.
    pub fn num_choices(&self) -> u8 {
        self.num_choices
    }

    /// Total answers the stream will emit (`n × redundancy`).
    pub fn num_answers(&self) -> usize {
        self.num_tasks * self.redundancy
    }

    /// Ground truth of `task` — a pure hash, no state.
    pub fn truth(&self, task: usize) -> u8 {
        (mix(self.seed, PURPOSE_TRUTH, task as u64, 0) % self.num_choices as u64) as u8
    }

    /// Latent accuracy of `worker`, uniform in `[0.55, 0.95]` — a pure
    /// hash, no state.
    pub fn worker_accuracy(&self, worker: usize) -> f64 {
        0.55 + 0.40 * unit(mix(self.seed, PURPOSE_ACC, worker as u64, 0))
    }

    /// The `redundancy` distinct workers assigned to `task`, in pick
    /// order (rejection sampling over the hash stream — each attempt is
    /// hashed by `(task, attempt)`, duplicates skipped).
    pub fn task_workers(&self, task: usize) -> Vec<u32> {
        let mut chosen: Vec<u32> = Vec::with_capacity(self.redundancy);
        let mut attempt = 0u64;
        while chosen.len() < self.redundancy {
            let w = (mix(self.seed, PURPOSE_PICK, task as u64, attempt) % self.num_workers as u64)
                as u32;
            attempt += 1;
            if !chosen.contains(&w) {
                chosen.push(w);
            }
        }
        chosen
    }

    /// The records of one task, in emission order — the subrange-replay
    /// primitive behind shard rebuilds.
    pub fn task_records(&self, task: usize) -> Vec<(u32, u32, u8)> {
        let truth = self.truth(task);
        self.task_workers(task)
            .into_iter()
            .map(|w| {
                let u = unit(mix(self.seed, PURPOSE_ANS, task as u64, w as u64));
                let label = if u < self.worker_accuracy(w as usize) {
                    truth
                } else {
                    // Uniform over the other ℓ − 1 labels, driven by the
                    // remaining hash bits.
                    let r = (mix(self.seed, PURPOSE_ANS ^ 0xff, task as u64, w as u64)
                        % (self.num_choices as u64 - 1)) as u8;
                    if r >= truth {
                        r + 1
                    } else {
                        r
                    }
                };
                (task as u32, w, label)
            })
            .collect()
    }

    /// The full task-major record stream: `(task, worker, label)` with
    /// tasks ascending. Cloning the iterator replays the stream from the
    /// start, which is how a two-pass view build reads it twice without
    /// materialising it.
    pub fn records(&self) -> impl Iterator<Item = (u32, u32, u8)> + Clone + '_ {
        (0..self.num_tasks).flat_map(move |task| self.task_records(task))
    }

    /// Materialise the stream as a [`Dataset`] (tests and small-scale
    /// cross-checks only — this is exactly the allocation the streaming
    /// path exists to avoid).
    pub fn to_dataset(&self, name: &str) -> Dataset {
        let mut b = DatasetBuilder::new(
            name.to_string(),
            TaskType::SingleChoice {
                choices: self.num_choices,
            },
            self.num_tasks,
            self.num_workers,
        );
        for (task, worker, label) in self.records() {
            b.add_label(task as usize, worker as usize, label)
                .expect("stream sim produced valid label");
        }
        for task in 0..self.num_tasks {
            b.set_truth_label(task, self.truth(task))
                .expect("stream sim produced valid truth");
        }
        b.build()
    }
}

/// Draw latent worker parameters from a behaviour model.
fn draw_worker_params<R: Rng + ?Sized>(rng: &mut R, model: &WorkerModel) -> WorkerParams {
    match model {
        WorkerModel::OneCoin { alpha, beta } => WorkerParams::OneCoin {
            accuracy: sample_beta(rng, *alpha, *beta),
        },
        WorkerModel::ClassConditional { diag } => WorkerParams::ClassConditional {
            diag: diag.iter().map(|&(a, b)| sample_beta(rng, a, b)).collect(),
        },
        WorkerModel::ConfusionMatrix {
            base,
            concentration,
        } => {
            let rows = base
                .iter()
                .map(|row| {
                    let alpha: Vec<f64> =
                        row.iter().map(|&p| (concentration * p).max(1e-3)).collect();
                    crowd_stats::dist::sample_dirichlet(rng, &alpha)
                })
                .collect();
            WorkerParams::ConfusionMatrix { rows }
        }
        WorkerModel::Numeric {
            bias_std,
            sigma_lo,
            sigma_hi,
        } => WorkerParams::Numeric {
            bias: sample_gaussian(rng, 0.0, *bias_std),
            sigma: rng.gen_range(*sigma_lo..=*sigma_hi),
        },
    }
}

/// Uniform draw over the `l - 1` labels different from `exclude`.
fn random_other_label<R: Rng + ?Sized>(rng: &mut R, l: u8, exclude: u8) -> u8 {
    debug_assert!(l >= 2);
    let r = rng.gen_range(0..l - 1);
    if r >= exclude {
        r + 1
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = SimulatorConfig::small_decision();
        let mut sim = CrowdSimulator::new(cfg, 7);
        let d = sim.generate();
        assert_eq!(d.num_tasks(), 50);
        assert_eq!(d.num_workers(), 10);
        assert_eq!(d.num_answers(), 150);
        for task in 0..50 {
            assert_eq!(d.task_degree(task), 3);
            // Distinct workers per task.
            let mut ws: Vec<usize> = d.answers_for_task(task).map(|r| r.worker).collect();
            ws.sort_unstable();
            ws.dedup();
            assert_eq!(ws.len(), 3);
        }
        assert_eq!(d.num_truths(), 50);
    }

    #[test]
    fn deterministic_under_seed() {
        let d1 = CrowdSimulator::new(SimulatorConfig::small_decision(), 99).generate();
        let d2 = CrowdSimulator::new(SimulatorConfig::small_decision(), 99).generate();
        assert_eq!(d1.records(), d2.records());
        assert_eq!(d1.truths(), d2.truths());
        let d3 = CrowdSimulator::new(SimulatorConfig::small_decision(), 100).generate();
        assert_ne!(d1.records(), d3.records());
    }

    #[test]
    fn good_workers_mostly_agree_with_truth() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.num_tasks = 2000;
        cfg.worker_model = WorkerModel::OneCoin {
            alpha: 30.0,
            beta: 3.0,
        }; // ~0.9 accuracy
        let mut sim = CrowdSimulator::new(cfg, 3);
        let d = sim.generate();
        let mut correct = 0usize;
        for r in d.records() {
            if Some(r.answer) == d.truth(r.task) {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.num_answers() as f64;
        assert!(acc > 0.82 && acc < 0.96, "aggregate accuracy {acc}");
    }

    #[test]
    fn spammers_are_near_chance() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.num_tasks = 3000;
        cfg.num_workers = 4;
        cfg.redundancy = 4;
        cfg.spammer_fraction = 1.0;
        let mut sim = CrowdSimulator::new(cfg, 11);
        let d = sim.generate();
        let mut correct = 0usize;
        for r in d.records() {
            if Some(r.answer) == d.truth(r.task) {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.num_answers() as f64;
        assert!((acc - 0.5).abs() < 0.05, "spammer accuracy {acc}");
    }

    #[test]
    fn zipf_creates_long_tail() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.num_tasks = 2000;
        cfg.num_workers = 100;
        cfg.zipf_exponent = 1.2;
        let mut sim = CrowdSimulator::new(cfg, 5);
        let d = sim.generate();
        let mut degrees: Vec<usize> = (0..100).map(|w| d.worker_degree(w)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of workers should hold a disproportionate share.
        let total: usize = degrees.iter().sum();
        let top10: usize = degrees[..10].iter().sum();
        assert!(
            top10 as f64 > 0.35 * total as f64,
            "top-10 workers hold only {top10}/{total}"
        );
        // And many workers answer very little (long tail).
        let light = degrees.iter().filter(|&&d| d * 20 < degrees[0]).count();
        assert!(light > 30, "only {light} light workers");
    }

    #[test]
    fn numeric_workers_track_truth() {
        let cfg = SimulatorConfig {
            name: "num".into(),
            task_type: TaskType::Numeric,
            num_tasks: 500,
            num_workers: 20,
            redundancy: 5,
            truth_prior: vec![-100.0, 100.0],
            worker_model: WorkerModel::Numeric {
                bias_std: 3.0,
                sigma_lo: 5.0,
                sigma_hi: 10.0,
            },
            spammer_fraction: 0.0,
            zipf_exponent: 0.5,
            truth_fraction: 1.0,
            numeric_task_offset_std: 0.0,
            hard_task_fraction: 0.0,
            hard_task_accuracy: 0.5,
            hard_task_mode: HardTaskMode::Flatten,
            truth_only_on_hard: false,
            heavy_worker_model: None,
        };
        let mut sim = CrowdSimulator::new(cfg, 13);
        let d = sim.generate();
        let mut sq_err = 0.0;
        for r in d.records() {
            let t = d.truth(r.task).unwrap().numeric().unwrap();
            let v = r.answer.numeric().unwrap();
            sq_err += (v - t).powi(2);
        }
        let rmse = (sq_err / d.num_answers() as f64).sqrt();
        assert!(rmse > 4.0 && rmse < 14.0, "per-answer rmse {rmse}");
    }

    #[test]
    fn partial_truth_fraction_respected() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.num_tasks = 2000;
        cfg.truth_fraction = 0.25;
        let mut sim = CrowdSimulator::new(cfg, 21);
        let d = sim.generate();
        let frac = d.num_truths() as f64 / 2000.0;
        assert!((frac - 0.25).abs() < 0.05, "truth fraction {frac}");
    }

    #[test]
    fn hard_tasks_flatten_worker_skill() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.num_tasks = 4000;
        cfg.worker_model = WorkerModel::OneCoin {
            alpha: 50.0,
            beta: 1.0,
        }; // ~0.98
        cfg.hard_task_fraction = 1.0; // every task hard
        cfg.hard_task_accuracy = 0.3;
        let mut sim = CrowdSimulator::new(cfg, 17);
        let d = sim.generate();
        let mut correct = 0usize;
        for r in d.records() {
            if Some(r.answer) == d.truth(r.task) {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.num_answers() as f64;
        assert!((acc - 0.3).abs() < 0.03, "hard-task accuracy {acc}");
    }

    #[test]
    fn truth_only_on_hard_publishes_the_hard_subset() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.num_tasks = 2000;
        cfg.hard_task_fraction = 0.15;
        cfg.hard_task_accuracy = 0.3;
        cfg.truth_only_on_hard = true;
        let mut sim = CrowdSimulator::new(cfg, 23);
        let d = sim.generate();
        let frac = d.num_truths() as f64 / 2000.0;
        assert!(
            (frac - 0.15).abs() < 0.03,
            "published truth fraction {frac}"
        );
        // On the published (hard) tasks, per-answer accuracy is near the
        // hard level even though workers are skilled.
        let mut correct = 0usize;
        let mut total = 0usize;
        for r in d.records() {
            if let Some(t) = d.truth(r.task) {
                total += 1;
                if r.answer == t {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(
            acc < 0.45,
            "gold-task per-answer accuracy {acc} should be near 0.3"
        );
    }

    #[test]
    fn stream_sim_is_seed_stable_and_task_major() {
        let sim = StreamSim::new(42, 200, 37, 3, 4);
        let a: Vec<(u32, u32, u8)> = sim.records().collect();
        let b: Vec<(u32, u32, u8)> = StreamSim::new(42, 200, 37, 3, 4).records().collect();
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), sim.num_answers());
        // Task-major, tasks ascending, redundancy distinct workers each.
        let mut at = 0usize;
        for task in 0..200u32 {
            let chunk = &a[at..at + 4];
            assert!(chunk.iter().all(|r| r.0 == task));
            let mut ws: Vec<u32> = chunk.iter().map(|r| r.1).collect();
            ws.sort_unstable();
            ws.dedup();
            assert_eq!(ws.len(), 4, "task {task} workers not distinct");
            at += 4;
        }
        // A different seed moves the stream.
        let c: Vec<(u32, u32, u8)> = StreamSim::new(43, 200, 37, 3, 4).records().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn stream_sim_subrange_replay_matches_full_stream() {
        // The dirty-shard rebuild path regenerates single tasks; they
        // must be byte-identical to the corresponding slice of the full
        // stream.
        let sim = StreamSim::new(7, 100, 23, 4, 3);
        let full: Vec<(u32, u32, u8)> = sim.records().collect();
        for task in [0usize, 13, 57, 99] {
            assert_eq!(
                sim.task_records(task),
                full[task * 3..(task + 1) * 3].to_vec(),
                "task {task}"
            );
        }
    }

    #[test]
    fn stream_sim_answers_track_latent_accuracy() {
        // Aggregate per-answer accuracy must sit near the mean of the
        // latent accuracy range [0.55, 0.95] (≈0.75).
        let sim = StreamSim::new(3, 5000, 50, 2, 3);
        let mut correct = 0usize;
        for (task, _, label) in sim.records() {
            if label == sim.truth(task as usize) {
                correct += 1;
            }
        }
        let acc = correct as f64 / sim.num_answers() as f64;
        assert!((0.68..0.82).contains(&acc), "aggregate accuracy {acc}");
        // And the dataset round-trip preserves counts and truths.
        let d = sim.to_dataset("stream");
        assert_eq!(d.num_answers(), sim.num_answers());
        assert_eq!(d.num_truths(), 5000);
        assert_eq!(d.max_task_degree(), 3);
    }

    #[test]
    #[should_panic(expected = "redundancy")]
    fn rejects_redundancy_above_worker_count() {
        let mut cfg = SimulatorConfig::small_decision();
        cfg.redundancy = 11; // only 10 workers
        let _ = CrowdSimulator::new(cfg, 0);
    }
}
