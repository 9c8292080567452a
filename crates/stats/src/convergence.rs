//! Convergence detection for the iterative two-step framework.
//!
//! Algorithm 1 of the paper loops "infer truth / estimate quality" until
//! "the change of the two sets of parameters is below some defined
//! threshold (e.g. 1e-3)". Every iterative method shares this tracker so
//! they all stop under the same criterion, which is what makes the timing
//! comparisons in Table 6 apples-to-apples.

/// Tracks successive parameter vectors and reports convergence when the
/// mean absolute change drops below a threshold, or when the iteration
/// budget is exhausted.
#[derive(Debug, Clone)]
pub struct ConvergenceTracker {
    threshold: f64,
    max_iterations: usize,
    iterations: usize,
    previous: Option<Vec<f64>>,
    last_delta: f64,
    converged: bool,
}

impl ConvergenceTracker {
    /// Create a tracker with an explicit threshold and iteration cap.
    ///
    /// # Panics
    /// Panics if `threshold` is not positive or `max_iterations` is zero.
    pub fn new(threshold: f64, max_iterations: usize) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        assert!(max_iterations > 0, "max_iterations must be positive");
        Self {
            threshold,
            max_iterations,
            iterations: 0,
            previous: None,
            last_delta: f64::INFINITY,
            converged: false,
        }
    }

    /// Record the parameter vector produced by one iteration. Returns
    /// `true` if the loop should *stop* (converged or budget exhausted).
    ///
    /// The first call never stops the loop (there is nothing to compare
    /// against) unless `max_iterations == 1`.
    pub fn step(&mut self, params: &[f64]) -> bool {
        self.iterations += 1;
        match &mut self.previous {
            Some(prev) => {
                let n = params.len().max(1) as f64;
                // Parameter vectors can legitimately change length between
                // iterations (e.g. a method growing its state); compare the
                // overlapping prefix and count the rest as full change.
                let overlap = prev.len().min(params.len());
                let mut delta: f64 = prev[..overlap]
                    .iter()
                    .zip(&params[..overlap])
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                delta += (prev.len().max(params.len()) - overlap) as f64;
                self.last_delta = delta / n;
                if self.last_delta < self.threshold {
                    self.converged = true;
                }
                // Reuse the retained buffer: zero heap traffic per step
                // once the parameter length is stable (the hot-loop
                // methods call this every outer iteration).
                prev.clear();
                prev.extend_from_slice(params);
            }
            None => self.previous = Some(params.to_vec()),
        }
        self.converged || self.iterations >= self.max_iterations
    }

    /// Whether the threshold criterion was met (as opposed to hitting the
    /// iteration cap).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Iterations recorded so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Mean absolute parameter change at the last step.
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_never_converges() {
        let mut t = ConvergenceTracker::new(1e-3, 10);
        assert!(!t.step(&[1.0, 2.0]));
        assert!(!t.converged());
    }

    #[test]
    fn detects_convergence_on_stable_params() {
        let mut t = ConvergenceTracker::new(1e-3, 10);
        assert!(!t.step(&[1.0, 2.0]));
        assert!(t.step(&[1.0, 2.0]));
        assert!(t.converged());
        assert_eq!(t.iterations(), 2);
    }

    #[test]
    fn respects_iteration_cap() {
        let mut t = ConvergenceTracker::new(1e-9, 3);
        assert!(!t.step(&[0.0]));
        assert!(!t.step(&[1.0]));
        assert!(t.step(&[2.0])); // cap reached
        assert!(!t.converged());
        assert_eq!(t.iterations(), 3);
    }

    #[test]
    fn delta_is_mean_absolute_change() {
        let mut t = ConvergenceTracker::new(1e-12, 10);
        t.step(&[0.0, 0.0]);
        t.step(&[1.0, 3.0]);
        assert!((t.last_delta() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn length_change_counts_as_change() {
        let mut t = ConvergenceTracker::new(1e-3, 10);
        t.step(&[1.0]);
        assert!(!t.step(&[1.0, 1.0])); // grew: not converged
        assert!(!t.converged());
    }

    #[test]
    fn converges_below_threshold_only() {
        let mut t = ConvergenceTracker::new(0.1, 100);
        t.step(&[0.0]);
        assert!(!t.step(&[0.2])); // delta 0.2 >= 0.1
        assert!(t.step(&[0.25])); // delta 0.05 < 0.1
        assert!(t.converged());
    }
}
