//! Per-subscriber per-request resource usage prediction.
//!
//! A URL request's resource usage is unknown at dispatch time; the paper
//! (§3.4) has the scheduler assume each dispatched request will consume "a
//! weighted average resource consumption of the past requests that belong to
//! the same queue". This module implements that estimator as an
//! exponentially-weighted moving average over completed requests, seeded
//! with the generic request cost.

use crate::resource::ResourceVector;

/// Weight of a new observation: moderately reactive, so after a shift in
/// a queue's request mix its prediction moves about nine tenths of the
/// way in ten completions.
const ALPHA: f64 = 0.2;

/// EWMA predictor of a queue's per-request resource usage.
///
/// ```rust
/// use gage_core::estimator::UsageEstimator;
/// use gage_core::resource::ResourceVector;
///
/// let mut e = UsageEstimator::default();
/// assert_eq!(e.predict().cpu_us, 10_000.0);
/// e.observe(ResourceVector::new(5_000.0, 0.0, 2_048.0));
/// // A fifth of the way from the generic request to the observation:
/// assert_eq!(e.predict().cpu_us, 9_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UsageEstimator {
    estimate: ResourceVector,
    observations: u64,
}

impl UsageEstimator {
    /// The current per-request prediction.
    pub fn predict(&self) -> ResourceVector {
        self.estimate
    }

    /// Feeds the measured usage of one completed request.
    pub fn observe(&mut self, actual: ResourceVector) {
        self.estimate = self.estimate * (1.0 - ALPHA) + actual * ALPHA;
        self.observations += 1;
    }

    /// Number of completed requests observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

impl Default for UsageEstimator {
    /// An estimator that has seen nothing yet and predicts the generic
    /// request.
    fn default() -> Self {
        UsageEstimator {
            estimate: ResourceVector::generic_request(),
            observations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_stable_workload() {
        let mut e = UsageEstimator::default();
        let actual = ResourceVector::new(1_800.0, 0.0, 6_000.0);
        for _ in 0..50 {
            e.observe(actual);
        }
        let p = e.predict();
        assert!((p.cpu_us - 1_800.0).abs() < 1.0);
        assert!(p.disk_us.abs() < 1.0);
        assert!((p.net_bytes - 6_000.0).abs() < 1.0);
        assert_eq!(e.observations(), 50);
    }

    #[test]
    fn default_prior_is_generic() {
        let e = UsageEstimator::default();
        assert_eq!(e.predict(), ResourceVector::generic_request());
    }

    #[test]
    fn variable_workload_stays_between_extremes() {
        let mut e = UsageEstimator::default();
        let small = ResourceVector::new(1_000.0, 0.0, 1_000.0);
        let big = ResourceVector::new(9_000.0, 8_000.0, 50_000.0);
        for i in 0..100 {
            e.observe(if i % 2 == 0 { small } else { big });
        }
        let p = e.predict();
        assert!(p.cpu_us > small.cpu_us && p.cpu_us < big.cpu_us);
        assert!(p.net_bytes > small.net_bytes && p.net_bytes < big.net_bytes);
    }
}
