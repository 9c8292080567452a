//! KOS — Karger, Oh & Shah (NIPS 2011): iterative learning on the
//! task–worker bipartite graph.
//!
//! Decision-making tasks only (Table 4). Answers are encoded as
//! `A_{iw} ∈ {+1, −1}`; task→worker and worker→task messages are iterated:
//!
//! ```text
//! x_{i→w} = Σ_{w'∈W_i \ w} A_{iw'} · y_{w'→i}
//! y_{w→i} = Σ_{i'∈T^w \ i} A_{i'w} · x_{i'→w}
//! ```
//!
//! with `y` initialised from `N(1, 1)` as in the original paper, and the
//! final estimate `v*_i = sign( Σ_{w∈W_i} A_{iw} y_{w→i} )`. The messages
//! are normalised each round to prevent magnitude blow-up (the algorithm
//! is scale-invariant).

use crowd_data::TaskType;
use crowd_stats::dist::sample_gaussian;
use crowd_stats::DMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

/// KOS belief-propagation-style message passing.
#[derive(Debug, Clone, Copy)]
pub struct Kos {
    /// Message-passing rounds (the original paper uses a small constant;
    /// 10 suffices on all benchmark datasets).
    pub rounds: usize,
}

impl Default for Kos {
    fn default() -> Self {
        Self { rounds: 10 }
    }
}

impl TruthInference for Kos {
    fn name(&self) -> &'static str {
        "KOS"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type == TaskType::DecisionMaking
    }

    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let mut rng = StdRng::seed_from_u64(options.seed);

        // Edge list with per-edge messages. sign = +1 for label 0 ('T').
        struct Edge {
            sign: f64,
            x: f64, // task → worker
            y: f64, // worker → task
        }
        let mut edges: Vec<Edge> = Vec::new();
        let mut task_edges: Vec<Vec<usize>> = vec![Vec::new(); view.n];
        let mut worker_edges: Vec<Vec<usize>> = vec![Vec::new(); view.m];
        for task in 0..view.n {
            for &(worker, label) in view.task_row(task) {
                let sign = if label == 0 { 1.0 } else { -1.0 };
                let idx = edges.len();
                edges.push(Edge {
                    sign,
                    x: 0.0,
                    y: sample_gaussian(&mut rng, 1.0, 1.0),
                });
                task_edges[task].push(idx);
                worker_edges[worker as usize].push(idx);
            }
        }

        for _ in 0..self.rounds {
            // Task → worker.
            for task in 0..view.n {
                let total: f64 = task_edges[task]
                    .iter()
                    .map(|&e| edges[e].sign * edges[e].y)
                    .sum();
                for &e in &task_edges[task] {
                    edges[e].x = total - edges[e].sign * edges[e].y;
                }
            }
            // Worker → task.
            for worker in 0..view.m {
                let total: f64 = worker_edges[worker]
                    .iter()
                    .map(|&e| edges[e].sign * edges[e].x)
                    .sum();
                for &e in &worker_edges[worker] {
                    edges[e].y = total - edges[e].sign * edges[e].x;
                }
            }
            // Normalise y-messages (scale invariance).
            let norm =
                (edges.iter().map(|e| e.y * e.y).sum::<f64>() / edges.len().max(1) as f64).sqrt();
            if norm > 1e-12 {
                for e in &mut edges {
                    e.y /= norm;
                }
            }
        }

        // Decision: sign of the aggregated worker messages. The message
        // dynamics have a global sign symmetry (y → −y flips every
        // estimate); orient the solution with the model's own
        // assumption that the average worker is better than chance, by
        // aligning the margins with the raw answer sums.
        let mut margins = vec![0.0f64; view.n];
        let mut orientation = 0.0f64;
        for task in 0..view.n {
            let score: f64 = task_edges[task]
                .iter()
                .map(|&e| edges[e].sign * edges[e].y)
                .sum();
            margins[task] = score;
            let raw: f64 = task_edges[task].iter().map(|&e| edges[e].sign).sum();
            orientation += score * raw;
        }
        if orientation < 0.0 {
            margins.iter_mut().for_each(|m| *m = -*m);
        }
        let mut truths = vec![0u8; view.n];
        for (task, &score) in margins.iter().enumerate() {
            truths[task] = if score > 0.0 {
                0
            } else if score < 0.0 {
                1
            } else {
                rng.gen_range(0..2) as u8
            };
        }

        // Worker quality proxy: mean y-message (the KOS reliability score).
        let mut quality = vec![0.0f64; view.m];
        for worker in 0..view.m {
            let es = &worker_edges[worker];
            if !es.is_empty() {
                quality[worker] = es.iter().map(|&e| edges[e].y).sum::<f64>() / es.len() as f64;
            }
        }

        // Posteriors from margins via a logistic squash (diagnostic only).
        let mut post = DMat::zeros(view.n, 2);
        for (task, &s) in margins.iter().enumerate() {
            let p = 1.0 / (1.0 + (-s).exp());
            post.row_mut(task).copy_from_slice(&[p, 1.0 - p]);
        }

        Ok(InferenceResult {
            truths: label_answers(&truths),
            worker_quality: quality.into_iter().map(WorkerQuality::Weight).collect(),
            iterations: self.rounds,
            converged: true,
            posteriors: Some(Arc::new(post)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn runs_on_toy() {
        // Message passing on a 3-worker, 6-task graph with N(1,1) message
        // initialisation is dominated by the random init — any accuracy
        // bar small enough to be stable here is also passed by a coin
        // flip, so this test checks structural invariants only. The
        // accuracy regression power lives in
        // `good_on_balanced_decision_data` (0.85 on a ~200-task
        // instance), where the signal dwarfs the init noise.
        let d = toy();
        for seed in 1..=4 {
            let r = Kos::default()
                .infer(&d, &InferenceOptions::seeded(seed))
                .unwrap();
            assert_result_sane(&d, &r);
        }
    }

    #[test]
    fn good_on_balanced_decision_data() {
        // KOS theory assumes balanced classes; use D_PosSent-like data.
        let d = crowd_data::datasets::PaperDataset::DPosSent.generate(0.2, 77);
        assert_accuracy_at_least(&Kos::default(), &d, 0.85);
    }

    #[test]
    fn f1_trails_ds_on_imbalanced_data() {
        // The paper's Table 6: KOS *accuracy* on D_Product matches MV
        // (89.6%) but its F1 (50.3%) trails D&S (71.6%) badly — the
        // balanced-class assumption hurts the minority class. Pin the F1
        // direction.
        use crate::methods::Ds;
        let d = small_decision();
        let kos = Kos::default()
            .infer(&d, &InferenceOptions::seeded(5))
            .unwrap();
        let ds = Ds.infer(&d, &InferenceOptions::seeded(5)).unwrap();
        assert!(
            f1(&d, &kos) <= f1(&d, &ds) + 0.02,
            "KOS F1 {} should not beat D&S F1 {}",
            f1(&d, &kos),
            f1(&d, &ds)
        );
    }

    #[test]
    fn rejects_single_choice_and_numeric() {
        assert!(Kos::default()
            .infer(&small_single(), &InferenceOptions::default())
            .is_err());
        assert!(Kos::default()
            .infer(&small_numeric(), &InferenceOptions::default())
            .is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let d = small_decision();
        let a = Kos::default()
            .infer(&d, &InferenceOptions::seeded(9))
            .unwrap();
        let b = Kos::default()
            .infer(&d, &InferenceOptions::seeded(9))
            .unwrap();
        assert_eq!(a.truths, b.truths);
    }
}
