//! Scheduler configuration.

/// How pass two of the request scheduler shares capacity left over after
/// every reservation is honoured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparePolicy {
    /// The paper's policy: "higher reservation gets larger share of spare
    /// resource" — weights proportional to reservations (§4.1, Table 2).
    #[default]
    ProportionalToReservation,
    /// The alternative the paper argues against: share by demand — weights
    /// proportional to current backlog, so heavier input load grabs more.
    /// Kept for the ablation benchmark.
    ProportionalToDemand,
    /// No spare sharing: subscribers get exactly their reservations.
    /// Kept for the ablation benchmark.
    None,
}

/// Tunables of the Gage request scheduler.
///
/// Defaults follow the paper: a 10 ms scheduling cycle, spare resource
/// shared in proportion to reservations. The queue capacity and the node
/// lookahead window are implementation parameters the paper leaves
/// unspecified; defaults were chosen so the evaluation workloads reproduce
/// the published behaviour (see `DESIGN.md` §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Scheduling cycle length in seconds (paper: 10 ms "for
    /// responsiveness").
    pub scheduling_cycle_secs: f64,
    /// Per-subscriber queue capacity, in requests.
    pub queue_capacity: usize,
    /// How much unused credit a queue may accumulate, in seconds of its
    /// reservation. Bounds post-idle bursts.
    pub balance_cap_secs: f64,
    /// How much predicted work may be outstanding on one RPN, in seconds of
    /// its capacity.
    pub node_lookahead_secs: f64,
    /// EWMA weight of the per-request usage estimator.
    pub estimator_alpha: f64,
    /// Spare-capacity sharing policy.
    pub spare_policy: SparePolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            scheduling_cycle_secs: 0.010,
            queue_capacity: 256,
            balance_cap_secs: 0.050,
            node_lookahead_secs: 0.300,
            estimator_alpha: 0.2,
            spare_policy: SparePolicy::ProportionalToReservation,
        }
    }
}

impl SchedulerConfig {
    /// Validates invariants, returning a description of the first violated
    /// one.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the offending field if any parameter is outside
    /// its legal range.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.scheduling_cycle_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("scheduling_cycle_secs must be positive");
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive");
        }
        if self.balance_cap_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("balance_cap_secs must be positive");
        }
        if self.node_lookahead_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("node_lookahead_secs must be positive");
        }
        if !(self.estimator_alpha > 0.0 && self.estimator_alpha <= 1.0) {
            return Err("estimator_alpha must be in (0, 1]");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = SchedulerConfig::default();
        c.validate().unwrap();
        assert_eq!(c.scheduling_cycle_secs, 0.010);
        assert_eq!(c.spare_policy, SparePolicy::ProportionalToReservation);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            SchedulerConfig {
                scheduling_cycle_secs: 0.0,
                ..Default::default()
            },
            SchedulerConfig {
                queue_capacity: 0,
                ..Default::default()
            },
            SchedulerConfig {
                estimator_alpha: 1.5,
                ..Default::default()
            },
            SchedulerConfig {
                estimator_alpha: f64::NAN,
                ..Default::default()
            },
            SchedulerConfig {
                node_lookahead_secs: -1.0,
                ..Default::default()
            },
            SchedulerConfig {
                balance_cap_secs: f64::NAN,
                ..Default::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should fail validation");
        }
    }
}
