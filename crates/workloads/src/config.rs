//! Workload generation knobs.

use cesim_goal::collectives::AllreduceAlgo;

/// Configuration shared by every workload generator.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Override the app's default step/iteration count entirely.
    pub steps_override: Option<usize>,
    /// Scale the app's default step count (ignored when
    /// `steps_override` is set). Values < 1 shorten runs for quick
    /// experiments; the slowdown ratios the study reports converge with
    /// relatively few steps.
    pub steps_scale: f64,
    /// Seed for the compute jitter streams.
    pub seed: u64,
    /// Allreduce expansion algorithm (ablation knob).
    pub allreduce_algo: AllreduceAlgo,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            steps_override: None,
            steps_scale: 1.0,
            seed: 0xCE51,
            allreduce_algo: AllreduceAlgo::default(),
        }
    }
}

impl WorkloadConfig {
    /// Resolve the effective step count from an app default.
    pub fn effective_steps(&self, default_steps: usize) -> usize {
        if let Some(s) = self.steps_override {
            return s.max(1);
        }
        assert!(
            self.steps_scale.is_finite() && self.steps_scale > 0.0,
            "steps_scale must be positive"
        );
        ((default_steps as f64 * self.steps_scale).round() as usize).max(1)
    }

    /// Builder-style step override.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps_override = Some(steps);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_steps_resolution() {
        let d = WorkloadConfig::default();
        assert_eq!(d.effective_steps(100), 100);
        let half = WorkloadConfig {
            steps_scale: 0.5,
            ..d
        };
        assert_eq!(half.effective_steps(100), 50);
        assert_eq!(half.effective_steps(1), 1);
        let forced = d.with_steps(7);
        assert_eq!(forced.effective_steps(100), 7);
        assert_eq!(forced.with_steps(0).effective_steps(100), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let cfg = WorkloadConfig {
            steps_scale: 0.0,
            ..WorkloadConfig::default()
        };
        cfg.effective_steps(10);
    }

    #[test]
    fn builders() {
        let c = WorkloadConfig::default().with_seed(9).with_steps(3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.steps_override, Some(3));
    }
}
