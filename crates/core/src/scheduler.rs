//! Gage's request scheduler: weighted round-robin with multi-resource
//! credit balances and reservation-proportional spare sharing.
//!
//! The scheduler is invoked once per *scheduling cycle* (paper §3.4, 10 ms).
//! Each cycle runs two passes:
//!
//! 1. **Reserved pass** — visiting queues cyclically, each queue's balance
//!    is credited with `reservation × elapsed`, then requests are dispatched
//!    (to the least-loaded RPN with room) until the balance goes negative or
//!    the queue empties. Per-request costs are *predicted* by the
//!    subscriber's [`UsageEstimator`].
//! 2. **Spare pass** — whatever node capacity remains is handed to still
//!    backlogged queues in proportion to their reservations (the paper's
//!    "higher reservation gets larger share of spare resource" policy;
//!    alternatives are available for ablation via
//!    `SparePolicy` in [`crate::config`]).
//!
//! The scheduler is generic over the request payload `R`, so the simulated
//! cluster threads packet-level state through it while the tokio variant
//! threads live sockets.

use crate::accounting::{SubscriberAccount, UsageReport};
use crate::config::{SchedulerConfig, SparePolicy};
use crate::estimator::UsageEstimator;
use crate::node::{NodeScheduler, RpnId};
use crate::queue::SubscriberQueues;
use crate::resource::{Grps, ResourceVector};
use crate::subscriber::{SubscriberId, SubscriberRegistry};
use gage_obs::{TraceEvent, Tracer};

/// Request payloads that can stamp a run-wide request id into trace
/// records.
///
/// The scheduler is generic over its request payload `R`; to thread
/// per-request identity into its `Enqueue`/`Drop`/`Dispatch` emissions it
/// asks the payload for a scalar tag. Payload types without a natural id
/// (unit, borrowed strings in doc examples) return 0. That is not
/// anonymous: 0 is an ordinary request id, so the span reconstructor
/// rejects a dump whose records for id 0 have no `req_arrival` before them.
pub trait TraceTag {
    /// The request's run-wide id for trace records.
    fn trace_tag(&self) -> u64;
}

impl TraceTag for u64 {
    fn trace_tag(&self) -> u64 {
        *self
    }
}

impl TraceTag for u32 {
    fn trace_tag(&self) -> u64 {
        u64::from(*self)
    }
}

impl TraceTag for usize {
    fn trace_tag(&self) -> u64 {
        *self as u64
    }
}

impl TraceTag for () {
    fn trace_tag(&self) -> u64 {
        0
    }
}

impl TraceTag for &str {
    fn trace_tag(&self) -> u64 {
        0
    }
}

/// One dispatch decision: which request goes to which RPN, with the
/// prediction the accounting books were charged with.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch<R> {
    /// The queue the request came from.
    pub subscriber: SubscriberId,
    /// The node chosen by the node scheduler.
    pub rpn: RpnId,
    /// Predicted resource usage booked for this request.
    pub predicted: ResourceVector,
    /// Whether the dispatch was funded by the reservation or by spare
    /// capacity.
    pub funded_by_spare: bool,
    /// The request payload.
    pub request: R,
}

/// Per-subscriber lifetime counters exposed for measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriberCounters {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests dropped at enqueue (queue full).
    pub dropped: u64,
    /// Requests dispatched to RPNs.
    pub dispatched: u64,
    /// Requests whose completion was reported back.
    pub completed: u64,
}

/// The RDN's request scheduler (see module docs).
///
/// ```rust
/// use gage_core::prelude::*;
/// use gage_obs::Tracer;
///
/// let mut reg = SubscriberRegistry::new();
/// let gold = reg.register("gold.example.com", Grps(100.0)).unwrap();
/// let mut sched: RequestScheduler<u32> = RequestScheduler::new(
///     &reg,
///     SchedulerConfig::default(),
///     NodeScheduler::new(0.1),
/// );
/// sched.nodes_mut().add_rpn(ResourceVector::new(1e6, 1e6, 12.5e6));
/// let mut tracer = Tracer::disabled();
/// sched.enqueue(gold, 7, &mut tracer).unwrap();
/// let dispatches = sched.run_cycle(0.010, &mut tracer);
/// assert_eq!(dispatches.len(), 1);
/// assert_eq!(dispatches[0].request, 7);
/// ```
#[derive(Debug)]
pub struct RequestScheduler<R> {
    cfg: SchedulerConfig,
    reservations: Vec<Grps>,
    queues: SubscriberQueues<R>,
    accounts: Vec<SubscriberAccount>,
    estimators: Vec<UsageEstimator>,
    nodes: NodeScheduler,
    /// Where the reserved pass starts, advanced each cycle for long-term
    /// fairness among equal reservations.
    rr_cursor: usize,
    /// Fractional spare-dispatch credit per subscriber (weighted
    /// round-robin deficit counters).
    spare_deficit: Vec<f64>,
    completed: Vec<u64>,
    /// Cycles run since construction, for `SchedCycle` records.
    cycles: u64,
    /// Scratch weight-per-subscriber buffer for the spare pass, kept
    /// across cycles so the 10 ms tick never touches the allocator.
    spare_weights: Vec<f64>,
    /// Graceful-degradation multiplier applied to every reservation this
    /// cycle: 1.0 while live capacity covers the sum of reservations,
    /// proportionally less when nodes are down (0.0 if all are).
    degrade_scale: f64,
}

impl<R: TraceTag> RequestScheduler<R> {
    /// Builds a scheduler for the subscribers in `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (see
    /// [`SchedulerConfig::validate`]); configuration is programmer input.
    pub fn new(registry: &SubscriberRegistry, cfg: SchedulerConfig, nodes: NodeScheduler) -> Self {
        // Construction-time validation of programmer-supplied config,
        // not on the per-request path.
        cfg.validate().expect("invalid scheduler config"); // lint:allow(hot-path-panic)
        let n = registry.len();
        // Accounts must span however many RPNs get added later; size arrays
        // lazily via ensure_rpn_arrays on dispatch instead.
        RequestScheduler {
            reservations: registry.iter().map(|s| s.reservation).collect(),
            queues: SubscriberQueues::new(n, cfg.queue_capacity),
            accounts: (0..n).map(|_| SubscriberAccount::new(0)).collect(),
            estimators: (0..n)
                .map(|_| {
                    UsageEstimator::new(ResourceVector::generic_request(), cfg.estimator_alpha)
                })
                .collect(),
            nodes,
            cfg,
            rr_cursor: 0,
            spare_deficit: vec![0.0; n],
            spare_weights: vec![0.0; n],
            completed: vec![0; n],
            cycles: 0,
            degrade_scale: 1.0,
        }
    }

    /// The node scheduler (e.g. to register RPNs).
    pub fn nodes_mut(&mut self) -> &mut NodeScheduler {
        &mut self.nodes
    }

    /// Read-only view of the node scheduler.
    pub fn nodes(&self) -> &NodeScheduler {
        &self.nodes
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.reservations.len()
    }

    /// Queues a classified request for `sub`, tracing an `Enqueue` (or,
    /// when full, a `Drop`) record into `tracer`.
    ///
    /// # Errors
    ///
    /// Returns the request back if `sub`'s queue is full — the caller owns
    /// the drop (sending a RST, counting it, …).
    pub fn enqueue(&mut self, sub: SubscriberId, request: R, tracer: &mut Tracer) -> Result<(), R> {
        let req = request.trace_tag();
        match self.queues.enqueue(sub, request) {
            Ok(_) => {
                tracer.emit(TraceEvent::Enqueue {
                    sub: sub.0,
                    req,
                    backlog: self.queues.len(sub) as u32,
                });
                Ok(())
            }
            Err(request) => {
                tracer.emit(TraceEvent::Drop { sub: sub.0, req });
                Err(request)
            }
        }
    }

    /// Puts a dispatched-but-undelivered request back at the *front* of
    /// `sub`'s queue (it keeps its place in line), tracing as
    /// [`RequestScheduler::enqueue`] does. Pair with
    /// [`RequestScheduler::void_dispatch`] to refund the booking first.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full — the bounced request
    /// becomes an ordinary drop the caller owns.
    pub fn requeue(&mut self, sub: SubscriberId, request: R, tracer: &mut Tracer) -> Result<(), R> {
        let req = request.trace_tag();
        match self.queues.requeue_front(sub, request) {
            Ok(_) => {
                tracer.emit(TraceEvent::Enqueue {
                    sub: sub.0,
                    req,
                    backlog: self.queues.len(sub) as u32,
                });
                Ok(())
            }
            Err(request) => {
                tracer.emit(TraceEvent::Drop { sub: sub.0, req });
                Err(request)
            }
        }
    }

    /// Undoes the accounting of a dispatch that never reached its node
    /// (e.g. the node crashed with the request in flight): refunds the
    /// subscriber's balance, retires the in-flight prediction and frees the
    /// node window. The request itself can then be re-queued.
    pub fn void_dispatch(&mut self, sub: SubscriberId, rpn: RpnId, predicted: ResourceVector) {
        self.ensure_rpn_arrays();
        let Some(acc) = self.accounts.get_mut(sub.0 as usize) else {
            return; // unknown subscriber: nothing was booked
        };
        acc.balance += predicted;
        if let Some(est) = acc.estimated.get_mut(rpn.0 as usize) {
            *est = (*est - predicted).clamped_nonnegative();
        }
        acc.dispatched = acc.dispatched.saturating_sub(1);
        self.nodes.settle(rpn, predicted);
    }

    /// The reservation multiplier applied in the last cycle (1.0 = full
    /// capacity, <1.0 = degraded, 0.0 = no live nodes).
    pub fn degrade_scale(&self) -> f64 {
        self.degrade_scale
    }

    /// Scheduling cycles run since construction — the window clock the
    /// conformance auditor maps violation intervals onto (each cycle also
    /// stamps its number into its `SchedCycle` trace record).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current backlog of `sub`'s queue.
    pub fn backlog(&self, sub: SubscriberId) -> usize {
        self.queues.len(sub)
    }

    /// Current credit balance of `sub`.
    pub fn balance(&self, sub: SubscriberId) -> ResourceVector {
        self.accounts[sub.0 as usize].balance
    }

    /// Current per-request usage prediction for `sub`.
    pub fn predicted_usage(&self, sub: SubscriberId) -> ResourceVector {
        self.estimators[sub.0 as usize].predict()
    }

    /// Lifetime counters for `sub`.
    pub fn counters(&self, sub: SubscriberId) -> SubscriberCounters {
        let i = sub.0 as usize;
        SubscriberCounters {
            accepted: self.queues.accepted(sub),
            dropped: self.queues.dropped(sub),
            dispatched: self.accounts[i].dispatched,
            completed: self.completed[i],
        }
    }

    /// The GRPS reservation currently in force for `sub`.
    pub fn reservation(&self, sub: SubscriberId) -> Grps {
        self.reservations[sub.0 as usize]
    }

    /// Replaces `sub`'s reservation. Shard ownership changes between peer
    /// RDNs are expressed this way: a non-owner holds the subscriber at
    /// `Grps(0.0)` (no reserved credit accrues, spare weight zero), the
    /// owner at the registered value. If the new owner's reservation sum
    /// exceeds its capacity share, the next cycle's graceful-degradation
    /// pass rescales proportionally — the same machinery that covers RPN
    /// crashes.
    pub fn set_reservation(&mut self, sub: SubscriberId, reservation: Grps) {
        self.reservations[sub.0 as usize] = reservation;
    }

    /// Drains and returns every request queued for `sub`, front first.
    /// Emits no trace records: the caller owns the requests' fate
    /// (migration to a peer scheduler, a refusal, …) and traces that.
    pub fn drain_queue(&mut self, sub: SubscriberId) -> Vec<R> {
        let mut out = Vec::with_capacity(self.queues.len(sub));
        while let Some(r) = self.queues.dequeue(sub) {
            out.push(r);
        }
        out
    }

    fn ensure_rpn_arrays(&mut self) {
        let n = self.nodes.rpn_count();
        for acc in &mut self.accounts {
            if acc.estimated.len() < n {
                acc.estimated.resize(n, ResourceVector::ZERO);
            }
        }
    }

    /// Runs one scheduling cycle. `elapsed_secs` is the time since the
    /// previous cycle (normally the scheduling cycle length; the first call
    /// may pass the cycle length too).
    ///
    /// Returns the dispatch decisions in order. The caller must deliver each
    /// request to its RPN and later feed completions back via
    /// [`RequestScheduler::on_report`]. Each dispatch, any reservation
    /// rescale and a per-cycle summary are traced into `tracer`.
    pub fn run_cycle(&mut self, elapsed_secs: f64, tracer: &mut Tracer) -> Vec<Dispatch<R>> {
        let mut dispatches = Vec::new();
        self.run_cycle_into(elapsed_secs, &mut dispatches, tracer);
        dispatches
    }

    /// As [`RequestScheduler::run_cycle`], but appends the decisions to a
    /// caller-held buffer. The 10 ms tick calls this with one long-lived
    /// `Vec` so the steady state allocates nothing per cycle.
    pub fn run_cycle_into(
        &mut self,
        elapsed_secs: f64,
        dispatches: &mut Vec<Dispatch<R>>,
        tracer: &mut Tracer,
    ) {
        assert!(elapsed_secs >= 0.0, "time cannot run backwards");
        self.ensure_rpn_arrays();
        let n = self.reservations.len();
        if n == 0 {
            return;
        }
        let start_len = dispatches.len();

        // ---- Graceful degradation ----
        // When live capacity no longer covers the sum of reservations
        // (nodes down), scale every reservation by the same factor so the
        // shortfall is shared proportionally — relative isolation (Table 1)
        // survives partial failure instead of starving whichever queue the
        // round-robin visits last. Recomputed every cycle, so reservations
        // restore themselves the moment a node rejoins.
        let scale = if self.nodes.any_up() {
            let demand: ResourceVector = self
                .reservations
                .iter()
                .map(|r| r.per_second())
                .fold(ResourceVector::ZERO, |a, b| a + b);
            let over = demand.max_fraction_of(self.nodes.live_capacity_per_sec());
            if over > 1.0 {
                1.0 / over
            } else {
                1.0
            }
        } else {
            0.0
        };
        if (scale - self.degrade_scale).abs() > 1e-9 {
            tracer.emit(TraceEvent::ReservationScale { scale });
        }
        self.degrade_scale = scale;

        // ---- Pass 1: reserved credit ----
        for step in 0..n {
            let i = (self.rr_cursor + step) % n;
            let sub = SubscriberId(i as u32);
            let reservation = self.reservations[i].per_second() * scale;
            let cap = reservation * self.cfg.balance_cap_secs;
            {
                let acc = &mut self.accounts[i];
                acc.balance = (acc.balance + reservation * elapsed_secs).capped_at(cap);
            }
            // Dispatch while the balance is non-negative (the dispatch that
            // drives it negative is still permitted, per the paper). The
            // reserved pass is *not* gated by node in-flight windows: the
            // reservation entitles the queue to its rate even when usage
            // feedback is stale — only the spare pass is capacity-gated.
            loop {
                if self.queues.is_empty(sub) || self.accounts[i].balance.any_negative() {
                    break;
                }
                let predicted = self.estimators[i].predict();
                let Some(rpn) = self.nodes.pick_least_loaded_any() else {
                    break; // no RPNs registered
                };
                let Some(request) = self.queues.dequeue(sub) else {
                    break; // checked non-empty above, but never panic here
                };
                self.accounts[i].book_dispatch(rpn, predicted);
                self.nodes.commit_dispatch(rpn, predicted);
                tracer.emit(TraceEvent::Dispatch {
                    sub: sub.0,
                    req: request.trace_tag(),
                    rpn: rpn.0,
                    spare: false,
                    predicted_cpu_us: predicted.cpu_us,
                    balance_cpu_us: self.accounts[i].balance.cpu_us,
                });
                dispatches.push(Dispatch {
                    subscriber: sub,
                    rpn,
                    predicted,
                    funded_by_spare: false,
                    request,
                });
            }
        }
        self.rr_cursor = (self.rr_cursor + 1) % n;

        // ---- Pass 2: spare capacity ----
        if self.cfg.spare_policy != SparePolicy::None {
            self.run_spare_pass(dispatches, tracer);
        }

        // One summary record per cycle; the per-queue backlog scan only
        // happens when a ring is actually attached.
        if tracer.is_enabled() {
            let new = &dispatches[start_len..];
            let spare = new.iter().filter(|d| d.funded_by_spare).count() as u32;
            let backlog: usize = (0..n)
                .map(|i| self.queues.len(SubscriberId(i as u32)))
                .sum();
            tracer.emit(TraceEvent::SchedCycle {
                cycle: self.cycles,
                dispatched: new.len() as u32,
                spare,
                backlog: backlog as u32,
            });
        }
        self.cycles += 1;
    }

    /// Deficit-weighted round-robin distribution of leftover node capacity
    /// among backlogged queues. Weights per [`SparePolicy`]; deficit
    /// counters carry across cycles (and are spent largest-first), so the
    /// long-run spare share is proportional to the weights even when only a
    /// fraction of a slot is free per cycle.
    fn run_spare_pass(&mut self, dispatches: &mut Vec<Dispatch<R>>, tracer: &mut Tracer) {
        // The weight buffer lives on the scheduler and is loaned to the
        // pass, so the early returns below cannot leak it back to the
        // allocator each cycle.
        let mut weights = std::mem::take(&mut self.spare_weights);
        weights.resize(self.reservations.len(), 0.0);
        self.spare_pass_rounds(dispatches, &mut weights, tracer);
        self.spare_weights = weights;
    }

    fn spare_pass_rounds(
        &mut self,
        dispatches: &mut Vec<Dispatch<R>>,
        weights: &mut [f64],
        tracer: &mut Tracer,
    ) {
        let n = self.reservations.len();
        loop {
            // Backlogged queues and their weights. Empty queues forfeit any
            // accumulated spare credit (standard DRR reset).
            let mut max_w = 0.0f64;
            for (i, w_slot) in weights.iter_mut().enumerate() {
                *w_slot = 0.0;
                let sub = SubscriberId(i as u32);
                if self.queues.is_empty(sub) {
                    self.spare_deficit[i] = 0.0;
                    continue;
                }
                let w = match self.cfg.spare_policy {
                    SparePolicy::ProportionalToReservation => self.reservations[i].0,
                    SparePolicy::ProportionalToDemand => self.queues.len(sub) as f64,
                    SparePolicy::None => 0.0,
                };
                *w_slot = w;
                max_w = max_w.max(w);
            }
            if max_w <= 0.0 {
                return; // nothing backlogged (or all weights zero)
            }

            // Accrue one round of credit, scaled so the heaviest queue earns
            // exactly one slot per round. Carried credit is capped so a
            // long capacity-starved queue cannot burst far beyond its
            // proportional share later.
            for (deficit, &w) in self.spare_deficit.iter_mut().zip(weights.iter()) {
                if w > 0.0 {
                    *deficit = (*deficit + w / max_w).min(16.0);
                }
            }

            // Spend: always from the largest accumulated deficit, so queues
            // that lost out in earlier capacity-starved cycles catch up.
            let mut any = false;
            loop {
                let winner = (0..n)
                    .filter(|&i| {
                        self.spare_deficit[i] >= 1.0
                            && !self.queues.is_empty(SubscriberId(i as u32))
                    })
                    .max_by(|&a, &b| self.spare_deficit[a].total_cmp(&self.spare_deficit[b]));
                let Some(i) = winner else { break };
                let sub = SubscriberId(i as u32);
                let predicted = self.estimators[i].predict();
                let Some(rpn) = self.nodes.pick_least_loaded(predicted) else {
                    return; // cluster full: spare exhausted, deficits persist
                };
                let Some(request) = self.queues.dequeue(sub) else {
                    break; // checked non-empty above, but never panic here
                };
                self.accounts[i].book_dispatch(rpn, predicted);
                self.nodes.commit_dispatch(rpn, predicted);
                self.spare_deficit[i] -= 1.0;
                any = true;
                tracer.emit(TraceEvent::Dispatch {
                    sub: sub.0,
                    req: request.trace_tag(),
                    rpn: rpn.0,
                    spare: true,
                    predicted_cpu_us: predicted.cpu_us,
                    balance_cpu_us: self.accounts[i].balance.cpu_us,
                });
                dispatches.push(Dispatch {
                    subscriber: sub,
                    rpn,
                    predicted,
                    funded_by_spare: true,
                    request,
                });
            }
            if !any {
                return;
            }
        }
    }

    /// Applies an RPN accounting message: reconciles balances, retires
    /// in-flight predictions, frees node windows and updates estimators.
    pub fn on_report(&mut self, report: &UsageReport) {
        self.ensure_rpn_arrays();
        for line in &report.per_subscriber {
            let i = line.subscriber.0 as usize;
            if i >= self.accounts.len() {
                continue; // unknown subscriber: ignore the line
            }
            self.accounts[i].apply_usage(report.rpn, line);
            self.completed[i] += u64::from(line.completed);
            if line.completed > 0 {
                // Feed the estimator the average per-request usage, once per
                // completed request (bounded to keep report handling O(1)-ish).
                let avg = line.actual * (1.0 / f64::from(line.completed));
                for _ in 0..line.completed.min(32) {
                    self.estimators[i].observe(avg);
                }
            }
        }
        // Re-anchor the node's outstanding estimate to the level the node
        // itself reported (plus nothing for in-flight dispatches — the
        // propagation delay is far below a scheduling cycle).
        self.nodes
            .set_outstanding(report.rpn, report.outstanding_predicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::SubscriberUsage;

    fn capacity() -> ResourceVector {
        // 1 CPU, 1 disk channel, 100 Mb/s NIC.
        ResourceVector::new(1e6, 1e6, 12.5e6)
    }

    fn registry(reservations: &[f64]) -> SubscriberRegistry {
        let mut reg = SubscriberRegistry::new();
        for (i, &r) in reservations.iter().enumerate() {
            reg.register(format!("site{i}.example.com"), Grps(r))
                .unwrap();
        }
        reg
    }

    fn scheduler(reservations: &[f64], rpns: usize) -> RequestScheduler<u64> {
        let reg = registry(reservations);
        let mut s =
            RequestScheduler::new(&reg, SchedulerConfig::default(), NodeScheduler::new(0.1));
        for _ in 0..rpns {
            s.nodes_mut().add_rpn(capacity());
        }
        s
    }

    /// Feeds `completed` completions for `sub` on `rpn`, with actual usage
    /// equal to the prediction that was booked (perfect estimator case).
    /// The node reports `remaining` predicted requests still outstanding.
    fn complete_with_backlog(
        s: &mut RequestScheduler<u64>,
        sub: SubscriberId,
        rpn: RpnId,
        n: u32,
        remaining: u32,
    ) {
        let pred = s.predicted_usage(sub);
        s.on_report(&UsageReport {
            rpn,
            total: pred * f64::from(n),
            outstanding_predicted: pred * f64::from(remaining),
            per_subscriber: vec![SubscriberUsage {
                subscriber: sub,
                actual: pred * f64::from(n),
                settled_predicted: pred * f64::from(n),
                completed: n,
            }],
        });
    }

    /// Completion with nothing left outstanding on the node.
    fn complete(s: &mut RequestScheduler<u64>, sub: SubscriberId, rpn: RpnId, n: u32) {
        complete_with_backlog(s, sub, rpn, n, 0);
    }

    #[test]
    fn empty_scheduler_is_quiet() {
        let mut t = Tracer::disabled();
        let mut s = scheduler(&[], 1);
        assert!(s.run_cycle(0.01, &mut t).is_empty());
    }

    #[test]
    fn dispatches_within_reservation() {
        let mut t = Tracer::disabled();
        let mut s = scheduler(&[100.0], 4);
        let sub = SubscriberId(0);
        for r in 0..10 {
            s.enqueue(sub, r, &mut t).unwrap();
        }
        let d = s.run_cycle(0.010, &mut t);
        // 100 GRPS * 10ms = 1 request of credit; spare pass drains the rest
        // because the cluster has plenty of headroom.
        assert!(!d.is_empty());
        let reserved = d.iter().filter(|x| !x.funded_by_spare).count();
        assert!(reserved >= 1, "at least the credited request dispatches");
        assert!(d.iter().all(|x| x.subscriber == sub));
    }

    #[test]
    fn reservation_pass_respects_balance() {
        let mut t = Tracer::disabled();
        // Tiny cluster window forces the node scheduler to be the limit.
        let reg = registry(&[100.0, 100.0]);
        let cfg = SchedulerConfig {
            spare_policy: SparePolicy::None,
            ..Default::default()
        };
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(0.5));
        s.nodes_mut().add_rpn(capacity());
        let a = SubscriberId(0);
        for r in 0..100 {
            s.enqueue(a, r, &mut t).unwrap();
        }
        // One 10ms cycle credits 1 generic request (100 GRPS * 10ms);
        // with no spare pass only ~1 dispatch (the balance may dip negative
        // once) should happen.
        let d = s.run_cycle(0.010, &mut t);
        assert!(
            (1..=2).contains(&d.len()),
            "got {} dispatches, expected 1-2",
            d.len()
        );
        assert!(s.balance(a).any_negative() || s.balance(a).all_nonnegative());
        // Next cycle restores credit and dispatches again.
        let d2 = s.run_cycle(0.010, &mut t);
        assert!(!d2.is_empty());
    }

    #[test]
    fn isolation_under_overload() {
        let mut t = Tracer::disabled();
        // Two subscribers, single RPN, no spare sharing: the overloaded one
        // cannot steal from the idle-but-reserved one.
        let reg = registry(&[50.0, 50.0]);
        let cfg = SchedulerConfig {
            spare_policy: SparePolicy::None,
            ..Default::default()
        };
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(1.0));
        s.nodes_mut().add_rpn(capacity());
        let hog = SubscriberId(0);
        let meek = SubscriberId(1);

        let mut hog_dispatched = 0u64;
        let mut meek_dispatched = 0u64;
        // Simulate 1 second: hog floods, meek trickles at its entitled rate.
        for cycle in 0u64..100 {
            for r in 0..20 {
                let _ = s.enqueue(hog, cycle * 100 + r, &mut t);
            }
            if cycle % 2 == 0 {
                s.enqueue(meek, 10_000 + cycle, &mut t).unwrap();
            }
            let d = s.run_cycle(0.010, &mut t);
            for x in &d {
                if x.subscriber == hog {
                    hog_dispatched += 1;
                } else {
                    meek_dispatched += 1;
                }
                complete(&mut s, x.subscriber, x.rpn, 1);
            }
        }
        // Both got their ~50 GRPS worth: hog ≈ 50 dispatches (credit-bound),
        // meek ≈ its 50 offered requests.
        assert!(
            (40..=60).contains(&hog_dispatched),
            "hog got {hog_dispatched}, expected ≈50"
        );
        assert!(
            (40..=60).contains(&meek_dispatched),
            "meek got {meek_dispatched}, expected ≈50"
        );
    }

    #[test]
    fn spare_split_proportional_to_reservation() {
        let mut t = Tracer::disabled();
        // Paper Table 2: both overloaded; extra throughput splits ∝ 250:200.
        // The cluster completes exactly 5 generic requests per 10ms cycle
        // (500 GRPS), just above the 450 GRPS total reservation, so spare
        // capacity exists but is contended.
        let reg = registry(&[250.0, 200.0]);
        let cfg = SchedulerConfig::default();
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(0.05));
        let rpn = s.nodes_mut().add_rpn(capacity()); // window = 5 generic reqs
        let a = SubscriberId(0);
        let b = SubscriberId(1);
        let mut served = [0u64; 2];
        let mut next_id = 0u64;
        let mut in_flight: std::collections::VecDeque<SubscriberId> =
            std::collections::VecDeque::new();
        for _ in 0..500 {
            // Keep both heavily backlogged (800/s offered each).
            for _ in 0..8 {
                let _ = s.enqueue(a, next_id, &mut t);
                let _ = s.enqueue(b, next_id + 1, &mut t);
                next_id += 2;
            }
            let d = s.run_cycle(0.010, &mut t);
            for x in &d {
                served[x.subscriber.0 as usize] += 1;
                in_flight.push_back(x.subscriber);
            }
            // The cluster finishes 5 requests per cycle, FIFO.
            for _ in 0..5 {
                if let Some(sub) = in_flight.pop_front() {
                    complete(&mut s, sub, rpn, 1);
                }
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        // site1 = 250 + 50·(250/450) ≈ 277.8; site2 = 200 + 50·(200/450)
        // ≈ 222.2; ratio = 1.25.
        let expected = 277.78 / 222.22;
        assert!(
            (ratio - expected).abs() / expected < 0.10,
            "served ratio {ratio:.3}, expected ≈{expected:.3} (served {served:?})"
        );
        // Total throughput pinned at the cluster's 500 GRPS (±10%).
        let total = served[0] + served[1];
        assert!(
            (2_250..=2_750).contains(&total),
            "total served {total}, expected ≈2500"
        );
    }

    #[test]
    fn spare_policy_none_strictly_caps() {
        let mut t = Tracer::disabled();
        let reg = registry(&[100.0]);
        let cfg = SchedulerConfig {
            spare_policy: SparePolicy::None,
            ..Default::default()
        };
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(1.0));
        s.nodes_mut().add_rpn(capacity() * 10.0); // cluster far bigger than need
        let sub = SubscriberId(0);
        let mut served = 0u64;
        let mut next = 0u64;
        for _ in 0..100 {
            for _ in 0..10 {
                let _ = s.enqueue(sub, next, &mut t);
                next += 1;
            }
            let d = s.run_cycle(0.010, &mut t);
            served += d.len() as u64;
            for x in &d {
                complete(&mut s, x.subscriber, x.rpn, 1);
            }
        }
        // 1 second at 100 GRPS: ~100 served despite huge spare capacity.
        assert!(
            (90..=115).contains(&served),
            "served {served}, expected ≈100"
        );
    }

    #[test]
    fn drops_happen_at_queue_overflow() {
        let mut t = Tracer::disabled();
        let reg = registry(&[10.0]);
        let cfg = SchedulerConfig {
            queue_capacity: 4,
            ..Default::default()
        };
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(0.1));
        s.nodes_mut().add_rpn(capacity());
        let sub = SubscriberId(0);
        for r in 0..10 {
            let _ = s.enqueue(sub, r, &mut t);
        }
        let c = s.counters(sub);
        assert_eq!(c.accepted, 4);
        assert_eq!(c.dropped, 6);
    }

    #[test]
    fn report_updates_estimator_and_frees_windows() {
        let mut t = Tracer::disabled();
        let mut s = scheduler(&[100.0], 1);
        let sub = SubscriberId(0);
        s.enqueue(sub, 1, &mut t).unwrap();
        let d = s.run_cycle(0.010, &mut t);
        assert_eq!(d.len(), 1);
        let rpn = d[0].rpn;
        assert!(s.nodes().outstanding(rpn).cpu_us > 0.0);

        // Report actual usage far below generic.
        let actual = ResourceVector::new(1_800.0, 0.0, 6_000.0);
        s.on_report(&UsageReport {
            rpn,
            total: actual,
            outstanding_predicted: ResourceVector::ZERO,
            per_subscriber: vec![SubscriberUsage {
                subscriber: sub,
                actual,
                settled_predicted: d[0].predicted,
                completed: 1,
            }],
        });
        assert_eq!(s.nodes().outstanding(rpn), ResourceVector::ZERO);
        assert!(s.predicted_usage(sub).cpu_us < ResourceVector::generic_request().cpu_us);
        assert_eq!(s.counters(sub).completed, 1);
    }

    #[test]
    fn unknown_subscriber_in_report_ignored() {
        let mut s = scheduler(&[10.0], 1);
        s.on_report(&UsageReport {
            rpn: RpnId(0),
            total: ResourceVector::ZERO,
            outstanding_predicted: ResourceVector::ZERO,
            per_subscriber: vec![SubscriberUsage {
                subscriber: SubscriberId(99),
                actual: ResourceVector::generic_request(),
                settled_predicted: ResourceVector::generic_request(),
                completed: 1,
            }],
        });
        // No panic, no counter movement.
        assert_eq!(s.counters(SubscriberId(0)).completed, 0);
    }

    #[test]
    fn tracer_records_scheduler_activity() {
        let reg = registry(&[100.0]);
        let cfg = SchedulerConfig {
            queue_capacity: 4,
            ..Default::default()
        };
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(0.1));
        s.nodes_mut().add_rpn(capacity());
        let mut t = Tracer::enabled(256);
        let sub = SubscriberId(0);
        for r in 0..6 {
            let _ = s.enqueue(sub, r, &mut t); // two overflow the 4-slot queue
        }
        let d = s.run_cycle(0.010, &mut t);
        let kinds: Vec<&'static str> = t.ring().unwrap().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "enqueue").count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == "drop").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "dispatch").count(), d.len());
        assert_eq!(kinds.last(), Some(&"sched_cycle"));
    }

    #[test]
    fn degraded_reservations_scale_proportionally() {
        // Two equal subscribers, two nodes, no spare sharing. With one node
        // down, live capacity (100 GRPS) covers only half the 200 GRPS of
        // reservations — both queues must degrade to ~50 GRPS each instead
        // of one starving.
        let reg = registry(&[100.0, 100.0]);
        let cfg = SchedulerConfig {
            spare_policy: SparePolicy::None,
            ..Default::default()
        };
        let mut s: RequestScheduler<u64> =
            RequestScheduler::new(&reg, cfg, NodeScheduler::new(1.0));
        let up = s.nodes_mut().add_rpn(capacity());
        let down = s.nodes_mut().add_rpn(capacity());
        let a = SubscriberId(0);
        let b = SubscriberId(1);
        let run_1s = |s: &mut RequestScheduler<u64>| {
            let mut t = Tracer::disabled();
            let mut got = [0u64; 2];
            let mut next = 0u64;
            for _ in 0..100 {
                for _ in 0..3 {
                    let _ = s.enqueue(a, next, &mut t);
                    let _ = s.enqueue(b, next + 1, &mut t);
                    next += 2;
                }
                for x in s.run_cycle(0.010, &mut t) {
                    got[x.subscriber.0 as usize] += 1;
                    complete(s, x.subscriber, x.rpn, 1);
                }
            }
            got
        };
        let healthy = run_1s(&mut s);
        assert!((s.degrade_scale() - 1.0).abs() < 1e-9);
        assert!(
            healthy.iter().all(|&g| (90..=115).contains(&g)),
            "healthy {healthy:?}, expected ≈100 each"
        );

        s.nodes_mut().set_up(down, false);
        let degraded = run_1s(&mut s);
        assert!(
            (s.degrade_scale() - 0.5).abs() < 1e-6,
            "scale {}",
            s.degrade_scale()
        );
        assert!(
            degraded.iter().all(|&g| (40..=62).contains(&g)),
            "degraded {degraded:?}, expected ≈50 each (proportional share)"
        );
        let ratio = degraded[0] as f64 / degraded[1] as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "relative isolation broke: {degraded:?}"
        );

        // Rejoin restores full reservations the next cycle.
        s.nodes_mut().set_up(down, true);
        let restored = run_1s(&mut s);
        assert!((s.degrade_scale() - 1.0).abs() < 1e-9);
        assert!(
            restored.iter().all(|&g| (90..=115).contains(&g)),
            "restored {restored:?}, expected ≈100 each"
        );
        let _ = up;
    }

    #[test]
    fn all_nodes_down_freezes_reserved_credit() {
        let mut t = Tracer::disabled();
        let mut s = scheduler(&[100.0], 1);
        let rpn = RpnId(0);
        s.nodes_mut().set_up(rpn, false);
        let sub = SubscriberId(0);
        for r in 0..5 {
            s.enqueue(sub, r, &mut t).unwrap();
        }
        for _ in 0..50 {
            assert!(
                s.run_cycle(0.010, &mut t).is_empty(),
                "no live node, no dispatch"
            );
        }
        assert_eq!(s.degrade_scale(), 0.0);
        assert!(
            s.balance(sub).cpu_us <= 0.0,
            "no credit hoarded during a full outage"
        );
        // Recovery drains the backlog again.
        s.nodes_mut().set_up(rpn, true);
        let mut drained = 0;
        for _ in 0..50 {
            drained += s.run_cycle(0.010, &mut t).len();
        }
        assert_eq!(drained, 5);
    }

    #[test]
    fn void_and_requeue_round_trip() {
        let mut t = Tracer::disabled();
        let mut s = scheduler(&[100.0], 2);
        let sub = SubscriberId(0);
        s.enqueue(sub, 42, &mut t).unwrap();
        let d = s.run_cycle(0.010, &mut t);
        assert_eq!(d.len(), 1);
        let balance_after = s.balance(sub);
        let rpn = d[0].rpn;
        assert!(s.nodes().outstanding(rpn).cpu_us > 0.0);

        // The node crashed with the dispatch in flight: refund + requeue.
        s.void_dispatch(sub, rpn, d[0].predicted);
        assert_eq!(s.nodes().outstanding(rpn), ResourceVector::ZERO);
        assert_eq!(s.balance(sub), balance_after + d[0].predicted);
        assert_eq!(s.counters(sub).dispatched, 0, "booking undone");
        s.requeue(sub, d[0].request, &mut t).unwrap();
        assert_eq!(s.backlog(sub), 1);

        // The request dispatches again on a later cycle.
        let d2 = s.run_cycle(0.010, &mut t);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].request, 42);
        assert_eq!(s.counters(sub).dispatched, 1);
    }

    #[test]
    fn balance_cap_limits_idle_hoarding() {
        let mut t = Tracer::disabled();
        let mut s = scheduler(&[100.0], 4);
        let sub = SubscriberId(0);
        // 10 idle seconds.
        for _ in 0..1000 {
            let _ = s.run_cycle(0.010, &mut t);
        }
        // Burst arrives; with balance capped at 50ms of reservation the
        // reserved pass can fund at most ~5 requests + 1 cycle of credit.
        for r in 0..50 {
            s.enqueue(sub, r, &mut t).unwrap();
        }
        let d = s.run_cycle(0.010, &mut t);
        let reserved = d.iter().filter(|x| !x.funded_by_spare).count();
        assert!(
            reserved <= 8,
            "reserved burst {reserved} exceeds balance cap"
        );
    }
}
