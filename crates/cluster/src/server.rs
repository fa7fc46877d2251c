//! Work-conserving FIFO service lines — the CPU, disk and NIC models of a
//! simulated node.
//!
//! A line only tracks *time*: work offered in arrival order finishes at
//! `max(ready, busy_until) + service`, so the owner learns each item's
//! finish time the moment it offers it.

use gage_des::{SimDuration, SimTime};

/// A work-conserving FIFO service line.
///
/// An RPN offers each request to its lines as the request arrives and
/// gets the finish time straight back, so no per-item queue entry — and
/// no per-item completion event — is needed for the intermediate stages.
///
/// ```rust
/// use gage_cluster::server::BusyLine;
/// use gage_des::{SimDuration, SimTime};
///
/// let mut cpu = BusyLine::new();
/// let t0 = SimTime::ZERO;
/// assert_eq!(cpu.offer(t0, SimDuration::from_millis(2)).as_millis(), 2);
/// assert_eq!(cpu.offer(t0, SimDuration::from_millis(3)).as_millis(), 5, "waits behind the first");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusyLine {
    busy_until: SimTime,
}

impl BusyLine {
    /// Creates an idle line.
    pub fn new() -> Self {
        BusyLine::default()
    }

    /// Offers work that became ready at `ready` and takes `service`;
    /// returns its absolute finish time. Offers must come in ready order
    /// (FIFO) for the finish times to be meaningful.
    pub fn offer(&mut self, ready: SimTime, service: SimDuration) -> SimTime {
        self.busy_until = self.busy_until.max(ready) + service;
        self.busy_until
    }

    /// When the line drains, given no further arrivals.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn idle_line_starts_immediately() {
        let mut line = BusyLine::new();
        assert_eq!(line.offer(SimTime::from_millis(10), ms(5)).as_millis(), 15);
    }

    #[test]
    fn backlog_serializes() {
        let mut line = BusyLine::new();
        let t = SimTime::ZERO;
        assert_eq!(line.offer(t, ms(1)).as_millis(), 1);
        assert_eq!(line.offer(t, ms(1)).as_millis(), 2);
        assert_eq!(line.offer(t, ms(1)).as_millis(), 3);
        assert_eq!(line.busy_until().as_millis(), 3);
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut line = BusyLine::new();
        line.offer(SimTime::ZERO, ms(1));
        // Arrives long after the first finishes.
        assert_eq!(
            line.offer(SimTime::from_millis(100), ms(2)).as_millis(),
            102
        );
    }

    #[test]
    fn busy_until_follows_backlog_and_gaps() {
        let mut line = BusyLine::new();
        for (at, svc) in [(0, 5), (2, 1), (3, 4), (50, 2), (50, 2)] {
            line.offer(SimTime::from_millis(at), ms(svc));
        }
        assert_eq!(line.busy_until().as_millis(), 54);
    }
}
