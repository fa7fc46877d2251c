//! The node scheduler: tracking RPN capacity and estimated outstanding
//! load, and picking the least-loaded RPN for each dispatch.
//!
//! Paper §3.4–3.5: the RDN maintains, per RPN, its *capacity* and its
//! *estimated outstanding load* (the sum of predicted resource usage of all
//! pending requests dispatched to it). Every dispatch adds the request's
//! predicted usage to the chosen RPN's outstanding load; every accounting
//! message subtracts the RPN's reported usage.

use crate::resource::ResourceVector;
use gage_des::{SimDuration, SimTime};
use std::fmt;

/// Identifier of a back-end request processing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RpnId(pub u16);

impl fmt::Display for RpnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpn{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct RpnState {
    /// Resources the node can deliver per second (1 CPU = 1e6 µs/s, etc.).
    capacity_per_sec: ResourceVector,
    /// The in-flight budget, `capacity_per_sec × lookahead`.
    window: ResourceVector,
    /// Predicted usage of dispatched-but-unreported requests.
    outstanding: ResourceVector,
    /// `outstanding` over `window` by the bottleneck dimension, kept with
    /// every change of `outstanding` so the picks read it instead of
    /// dividing per node per dispatch.
    frac: f64,
    /// False once the report watchdog has written the node off; down
    /// nodes receive no dispatches from either pass.
    up: bool,
    /// When the node's last accounting report arrived (the watchdog's
    /// silence clock).
    last_report: SimTime,
}

impl RpnState {
    fn set_outstanding(&mut self, outstanding: ResourceVector) {
        self.outstanding = outstanding;
        self.frac = outstanding.max_fraction_of(self.window);
    }
}

/// The RDN-side view of the back-end cluster.
///
/// `lookahead_secs` bounds how much predicted work may be in flight to one
/// RPN: an RPN with `outstanding` beyond `capacity_per_sec × lookahead` is
/// considered full. This is the admission throttle that makes excess input
/// load back up into the subscriber queues (and overflow there) instead of
/// swamping the back ends.
///
/// ```rust
/// use gage_core::node::{NodeScheduler, RpnId};
/// use gage_core::resource::ResourceVector;
///
/// let cap = ResourceVector::new(1e6, 1e6, 12.5e6); // 1 CPU, 1 disk, 100 Mb/s
/// let mut nodes = NodeScheduler::new(0.1);
/// let a = nodes.add_rpn(cap);
/// let b = nodes.add_rpn(cap);
/// let pred = ResourceVector::generic_request();
/// let first = nodes.pick_least_loaded(pred).unwrap();
/// nodes.commit_dispatch(first, pred);
/// // The other node is now less loaded.
/// assert_ne!(nodes.pick_least_loaded(pred).unwrap(), first);
/// # let _ = (a, b);
/// ```
#[derive(Debug, Clone)]
pub struct NodeScheduler {
    rpns: Vec<RpnState>,
    lookahead_secs: f64,
}

impl NodeScheduler {
    /// Creates an empty cluster view with the given in-flight lookahead
    /// window (seconds of per-node capacity allowed outstanding).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead_secs` is not positive.
    pub fn new(lookahead_secs: f64) -> Self {
        assert!(lookahead_secs > 0.0, "lookahead must be positive");
        NodeScheduler {
            rpns: Vec::new(),
            lookahead_secs,
        }
    }

    /// Registers an RPN with the given per-second capacity; returns its id.
    pub fn add_rpn(&mut self, capacity_per_sec: ResourceVector) -> RpnId {
        let id = RpnId(self.rpns.len() as u16);
        let window = capacity_per_sec * self.lookahead_secs;
        self.rpns.push(RpnState {
            capacity_per_sec,
            window,
            outstanding: ResourceVector::ZERO,
            frac: ResourceVector::ZERO.max_fraction_of(window),
            up: true,
            last_report: SimTime::ZERO,
        });
        id
    }

    /// Number of registered RPNs.
    pub fn rpn_count(&self) -> usize {
        self.rpns.len()
    }

    /// The in-flight budget of one RPN (`capacity × lookahead`).
    pub fn window(&self, rpn: RpnId) -> ResourceVector {
        self.rpns[rpn.0 as usize].window
    }

    /// Current estimated outstanding load of an RPN.
    pub fn outstanding(&self, rpn: RpnId) -> ResourceVector {
        self.rpns[rpn.0 as usize].outstanding
    }

    /// Load fraction of an RPN: outstanding over window, by the bottleneck
    /// dimension.
    pub fn load_fraction(&self, rpn: RpnId) -> f64 {
        self.rpns[rpn.0 as usize].frac
    }

    /// Marks a node up or down. Down nodes are never picked; their
    /// outstanding estimate is cleared (their in-flight work is lost).
    /// Only the report watchdog in [`crate::scheduler::RequestScheduler`]
    /// flips liveness, so every transition carries its `NodeDown` or
    /// `NodeUp` trace record.
    pub(crate) fn set_up(&mut self, rpn: RpnId, up: bool) {
        let st = &mut self.rpns[rpn.0 as usize];
        st.up = up;
        if !up {
            st.set_outstanding(ResourceVector::ZERO);
        }
    }

    /// Restarts `rpn`'s silence clock at `now`. Returns false for an
    /// unregistered node.
    pub(crate) fn heard_from(&mut self, rpn: RpnId, now: SimTime) -> bool {
        let Some(st) = self.rpns.get_mut(rpn.0 as usize) else {
            return false;
        };
        st.last_report = now;
        true
    }

    /// Restarts every node's silence clock at `now`.
    pub(crate) fn restart_report_clocks(&mut self, now: SimTime) {
        for st in &mut self.rpns {
            st.last_report = now;
        }
    }

    /// The lowest-numbered up node whose last report is more than `grace`
    /// old at `now`.
    pub(crate) fn first_silent(&self, now: SimTime, grace: SimDuration) -> Option<RpnId> {
        self.rpns
            .iter()
            .position(|st| st.up && now.saturating_since(st.last_report) > grace)
            .map(|i| RpnId(i as u16))
    }

    /// True if the node is currently considered alive.
    pub fn is_up(&self, rpn: RpnId) -> bool {
        self.rpns[rpn.0 as usize].up
    }

    /// Picks the least-loaded RPN that still has room for `predicted`, or
    /// `None` if every node's window is full — the signal for the request
    /// scheduler to stop dispatching this cycle.
    pub fn pick_least_loaded(&self, predicted: ResourceVector) -> Option<RpnId> {
        let mut best: Option<(f64, RpnId)> = None;
        for (i, st) in self.rpns.iter().enumerate() {
            if !st.up || !(st.outstanding + predicted).fits_within(st.window) {
                continue;
            }
            match best {
                Some((b, _)) if b <= st.frac => {}
                _ => best = Some((st.frac, RpnId(i as u16))),
            }
        }
        best.map(|(_, id)| id)
    }

    /// Picks the least-loaded RPN regardless of window headroom. Used by
    /// the *reserved* scheduling pass: a subscriber's reservation entitles
    /// it to dispatch even when feedback is stale, so only the credit
    /// balance gates it (paper §3.4–3.5). Returns `None` only if no RPNs
    /// are registered.
    pub fn pick_least_loaded_any(&self) -> Option<RpnId> {
        let mut best: Option<(f64, RpnId)> = None;
        for (i, st) in self.rpns.iter().enumerate() {
            if !st.up {
                continue;
            }
            match best {
                Some((b, _)) if b <= st.frac => {}
                _ => best = Some((st.frac, RpnId(i as u16))),
            }
        }
        best.map(|(_, id)| id)
    }

    /// Records a dispatch: adds `predicted` to the RPN's outstanding load.
    pub fn commit_dispatch(&mut self, rpn: RpnId, predicted: ResourceVector) {
        let st = &mut self.rpns[rpn.0 as usize];
        st.set_outstanding(st.outstanding + predicted);
    }

    /// Overwrites the RPN's outstanding-load estimate with the level the
    /// node itself reported. Preferred over incremental [`NodeScheduler::settle`]:
    /// setting from ground truth each cycle keeps the estimate from
    /// drifting.
    pub fn set_outstanding(&mut self, rpn: RpnId, outstanding: ResourceVector) {
        self.rpns[rpn.0 as usize].set_outstanding(outstanding.clamped_nonnegative());
    }

    /// Applies an accounting report: removes `settled_predicted` (the
    /// predicted usage echoed back for completed requests) from the RPN's
    /// outstanding load.
    pub fn settle(&mut self, rpn: RpnId, settled_predicted: ResourceVector) {
        let st = &mut self.rpns[rpn.0 as usize];
        // Clamp: reports for work predicted before a reconfiguration must
        // not drive outstanding negative.
        st.set_outstanding((st.outstanding - settled_predicted).clamped_nonnegative());
    }

    /// Total cluster capacity per second.
    pub fn total_capacity_per_sec(&self) -> ResourceVector {
        self.rpns.iter().map(|r| r.capacity_per_sec).sum()
    }

    /// Capacity per second of the nodes currently up — what reservations
    /// can actually be honoured against. [`ResourceVector::ZERO`] when
    /// every node is down.
    pub fn live_capacity_per_sec(&self) -> ResourceVector {
        self.rpns
            .iter()
            .filter(|r| r.up)
            .map(|r| r.capacity_per_sec)
            .sum()
    }

    /// True if at least one node is up.
    pub fn any_up(&self) -> bool {
        self.rpns.iter().any(|r| r.up)
    }

    /// Ids of all RPNs.
    pub fn rpn_ids(&self) -> impl Iterator<Item = RpnId> + '_ {
        (0..self.rpns.len()).map(|i| RpnId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> ResourceVector {
        ResourceVector::new(1e6, 1e6, 12.5e6)
    }

    #[test]
    fn balances_across_nodes() {
        let mut n = NodeScheduler::new(0.1);
        let ids: Vec<RpnId> = (0..4).map(|_| n.add_rpn(cap())).collect();
        let pred = ResourceVector::generic_request();
        let mut counts = vec![0u32; 4];
        for _ in 0..8 {
            let id = n.pick_least_loaded(pred).unwrap();
            n.commit_dispatch(id, pred);
            counts[id.0 as usize] += 1;
        }
        assert_eq!(counts, vec![2, 2, 2, 2], "round-robins under equal load");
        let _ = ids;
    }

    #[test]
    fn full_window_refuses_dispatch() {
        let mut n = NodeScheduler::new(0.01); // 10ms window = 1 generic req
        let id = n.add_rpn(cap());
        let pred = ResourceVector::generic_request();
        assert_eq!(n.pick_least_loaded(pred), Some(id));
        n.commit_dispatch(id, pred);
        assert_eq!(n.pick_least_loaded(pred), None, "window exhausted");
        // A report frees the window.
        n.settle(id, pred);
        assert_eq!(n.pick_least_loaded(pred), Some(id));
    }

    #[test]
    fn settle_clamps_at_zero() {
        let mut n = NodeScheduler::new(0.1);
        let id = n.add_rpn(cap());
        n.settle(id, ResourceVector::generic_request() * 100.0);
        assert_eq!(n.outstanding(id), ResourceVector::ZERO);
        assert_eq!(n.load_fraction(id), 0.0);
    }

    #[test]
    fn unequal_nodes_prefer_bigger() {
        let mut n = NodeScheduler::new(0.1);
        let small = n.add_rpn(cap());
        let big = n.add_rpn(cap() * 4.0);
        let pred = ResourceVector::generic_request();
        // After one dispatch each, the bigger node has the lower fraction
        // and keeps winning until it equalizes.
        let mut big_count = 0;
        for _ in 0..10 {
            let id = n.pick_least_loaded(pred).unwrap();
            n.commit_dispatch(id, pred);
            if id == big {
                big_count += 1;
            }
        }
        assert!(big_count >= 7, "big node took {big_count}/10");
        let _ = small;
    }

    #[test]
    fn total_capacity_sums() {
        let mut n = NodeScheduler::new(0.1);
        n.add_rpn(cap());
        n.add_rpn(cap());
        assert_eq!(n.total_capacity_per_sec().cpu_us, 2e6);
        assert_eq!(n.rpn_count(), 2);
        assert_eq!(n.rpn_ids().count(), 2);
    }

    #[test]
    fn down_nodes_are_never_picked() {
        let mut n = NodeScheduler::new(0.1);
        let a = n.add_rpn(cap());
        let b = n.add_rpn(cap());
        n.commit_dispatch(b, ResourceVector::generic_request());
        n.set_up(a, false);
        let pred = ResourceVector::generic_request();
        assert_eq!(n.pick_least_loaded(pred), Some(b), "only the live node");
        assert_eq!(n.pick_least_loaded_any(), Some(b));
        assert!(!n.is_up(a));
        assert_eq!(
            n.outstanding(a),
            ResourceVector::ZERO,
            "in-flight work written off"
        );
        n.set_up(a, true);
        assert_eq!(n.pick_least_loaded(pred), Some(a), "recovered node rejoins");
    }

    #[test]
    fn all_down_means_no_dispatch() {
        let mut n = NodeScheduler::new(0.1);
        let a = n.add_rpn(cap());
        n.set_up(a, false);
        assert_eq!(n.pick_least_loaded(ResourceVector::generic_request()), None);
        assert_eq!(n.pick_least_loaded_any(), None);
    }

    #[test]
    fn oversized_request_never_fits() {
        let mut n = NodeScheduler::new(0.001);
        n.add_rpn(cap());
        let huge = ResourceVector::generic_request() * 1000.0;
        assert_eq!(n.pick_least_loaded(huge), None);
    }

    #[test]
    fn live_capacity_tracks_up_nodes() {
        let mut n = NodeScheduler::new(0.1);
        let a = n.add_rpn(cap());
        let b = n.add_rpn(cap() * 3.0);
        assert_eq!(n.live_capacity_per_sec().cpu_us, 4e6);
        n.set_up(a, false);
        assert_eq!(n.live_capacity_per_sec().cpu_us, 3e6);
        assert_eq!(
            n.total_capacity_per_sec().cpu_us,
            4e6,
            "total ignores liveness"
        );
        assert!(n.any_up());
        n.set_up(b, false);
        assert_eq!(n.live_capacity_per_sec(), ResourceVector::ZERO);
        assert!(!n.any_up());
        n.set_up(a, true);
        assert_eq!(n.live_capacity_per_sec().cpu_us, 1e6);
    }

    /// Property test: under randomized churn — `set_up(false)`/`set_up(true)`
    /// cycles interleaved with dispatches, settles and report re-anchors —
    /// the scheduler never picks a down node and never leaves any
    /// outstanding estimate negative.
    #[test]
    fn churn_never_picks_down_or_goes_negative() {
        // Deterministic xorshift so the "random" schedule replays exactly.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut n = NodeScheduler::new(0.1);
        let ids: Vec<RpnId> = (0..5).map(|_| n.add_rpn(cap())).collect();
        let pred = ResourceVector::generic_request();
        for step in 0..5_000u64 {
            let node = ids[(next() % ids.len() as u64) as usize];
            match next() % 10 {
                // Churn: flip liveness both ways, weighted toward recovery
                // so the cluster is rarely fully dark.
                0 => n.set_up(node, false),
                1 | 2 => n.set_up(node, true),
                // Dispatch through both picking paths.
                3..=5 => {
                    if let Some(id) = n.pick_least_loaded(pred) {
                        assert!(n.is_up(id), "step {step}: picked down node {id}");
                        n.commit_dispatch(id, pred);
                    }
                }
                6 => {
                    if let Some(id) = n.pick_least_loaded_any() {
                        assert!(n.is_up(id), "step {step}: picked down node {id}");
                        n.commit_dispatch(id, pred);
                    }
                }
                // Settle more than could be outstanding (stale reports).
                7 => n.settle(node, pred * (next() % 8) as f64),
                // Report re-anchor, occasionally with a stale negative-ish
                // vector that must be clamped.
                _ => {
                    let level = pred * (next() % 4) as f64 - pred;
                    n.set_outstanding(node, level);
                }
            }
            for &id in &ids {
                assert!(
                    n.outstanding(id).all_nonnegative(),
                    "step {step}: node {id} outstanding went negative: {:?}",
                    n.outstanding(id)
                );
            }
        }
        // Convergence: after churn ends and all nodes recover, dispatching
        // works again everywhere.
        for &id in &ids {
            n.set_up(id, true);
        }
        assert!(n.any_up());
        assert!(n.pick_least_loaded(pred).is_some());
    }

    /// The cached window and load fraction track every change of the
    /// outstanding estimate: after each step of a seeded schedule of
    /// dispatches, settles, re-anchors and liveness flips over unequal
    /// nodes, `load_fraction` equals `outstanding / (capacity × lookahead)`
    /// bit for bit, and both picks equal a scan that recomputes it.
    #[test]
    fn cached_fractions_match_a_recomputing_scan() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lookahead = 0.07;
        let caps: Vec<ResourceVector> = [1.0, 3.0, 0.5, 2.0, 1.0, 1.5]
            .iter()
            .map(|&k| ResourceVector::new(1e6 * k, 2e6 / k, 12.5e6))
            .collect();
        let mut n = NodeScheduler::new(lookahead);
        let ids: Vec<RpnId> = caps.iter().map(|&c| n.add_rpn(c)).collect();
        let scan = |n: &NodeScheduler, predicted: Option<ResourceVector>| {
            let mut best: Option<(f64, RpnId)> = None;
            for (&id, &cap) in ids.iter().zip(&caps) {
                let window = cap * lookahead;
                let out = n.outstanding(id);
                let fits = predicted.is_none_or(|p| (out + p).fits_within(window));
                let frac = out.max_fraction_of(window);
                if n.is_up(id) && fits && best.is_none_or(|(b, _)| frac < b) {
                    best = Some((frac, id));
                }
            }
            best.map(|(_, id)| id)
        };
        let unit = ResourceVector::new(4_000.0, 1_500.0, 20_000.0);
        for step in 0..20_000u64 {
            let node = ids[(next() % ids.len() as u64) as usize];
            let pred = unit * (1 + next() % 5) as f64;
            match next() % 12 {
                0 => n.set_up(node, false),
                1 | 2 => n.set_up(node, true),
                3..=5 => {
                    if let Some(id) = n.pick_least_loaded(pred) {
                        n.commit_dispatch(id, pred);
                    }
                }
                6 | 7 => {
                    if let Some(id) = n.pick_least_loaded_any() {
                        n.commit_dispatch(id, pred);
                    }
                }
                8 | 9 => n.settle(node, pred),
                _ => n.set_outstanding(node, unit * (next() % 40) as f64 - unit),
            }
            for (&id, &cap) in ids.iter().zip(&caps) {
                let window = cap * lookahead;
                assert_eq!(n.window(id), window, "step {step}");
                let frac = n.outstanding(id).max_fraction_of(window);
                assert_eq!(n.load_fraction(id).to_bits(), frac.to_bits(), "step {step}");
            }
            assert_eq!(
                n.pick_least_loaded(pred),
                scan(&n, Some(pred)),
                "step {step}"
            );
            assert_eq!(n.pick_least_loaded_any(), scan(&n, None), "step {step}");
        }
    }
}
