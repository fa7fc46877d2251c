//! Scheduler configuration: the fixed scheduling cycle and node
//! lookahead, and the two settings callers choose differently.

/// Scheduling cycle length in seconds: the paper runs the scheduler every
/// 10 ms "for responsiveness" (§3.4). Each cycle credits every queue with
/// one cycle of its reservation.
pub const SCHEDULING_CYCLE_SECS: f64 = 0.010;

/// How much predicted work may be outstanding on one RPN, in seconds of
/// its capacity (the [`crate::node::NodeScheduler`] lookahead). The paper
/// leaves it unspecified; 300 ms lets the evaluation workloads reproduce
/// the published behaviour (see `DESIGN.md` §5). The simulator widens it
/// to cover a long accounting cycle.
pub const NODE_LOOKAHEAD_SECS: f64 = 0.300;

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

/// The request scheduler's settings.
///
/// Defaults follow the paper: spare resource shared in proportion to
/// reservations. The queue capacity is an implementation parameter the
/// paper leaves unspecified; 256 requests reproduces the published
/// behaviour (see `DESIGN.md` §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Per-subscriber queue capacity, in requests. Must be positive.
    pub queue_capacity: usize,
    /// Spare-capacity sharing policy.
    pub spare_policy: SparePolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: 256,
            spare_policy: SparePolicy::ProportionalToReservation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = SchedulerConfig::default();
        assert!(c.queue_capacity > 0);
        assert_eq!(SCHEDULING_CYCLE_SECS, 0.010);
        assert_eq!(c.spare_policy, SparePolicy::ProportionalToReservation);
    }
}
