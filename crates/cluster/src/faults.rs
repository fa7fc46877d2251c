//! Deterministic fault injection: one composable, replayable plan.
//!
//! A [`FaultPlan`] scripts every failure a run will experience — fail-stop
//! crashes *and* recoveries of RPNs, windows in which accounting reports
//! are lost, and per-link packet drop/delay — all driven by the plan's own
//! seeded RNG stream, independent of the simulation's traffic randomness.
//! Two runs with the same cluster seed and the same plan are byte-identical
//! (the chaos suite enforces this on trace dumps); changing only the plan
//! seed replays the same workload under a different fault schedule.
//!
//! The plan is the only way to inject faults: a lone crash is a one-event
//! plan (`crash_at` without a recovery) and whole-run report loss is a
//! loss window from `SimTime::ZERO` to `SimTime::MAX`.
//!
//! ```rust
//! use gage_cluster::FaultPlan;
//! use gage_des::SimTime;
//!
//! let mut plan = FaultPlan::new(7);
//! plan.crash_for(SimTime::from_secs(10), 1, gage_des::SimDuration::from_secs(4));
//! plan.report_loss(SimTime::from_secs(2), SimTime::from_secs(8), 0.25);
//! assert_eq!(plan.events().len(), 2);
//! ```

use gage_des::{SimDuration, SimRng, SimTime};

/// One scripted fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Fail-stop crash of `rpn` at `at`: in-flight work is lost, the
    /// accounting chain goes silent, packets to the node vanish.
    Crash {
        /// When the node dies.
        at: SimTime,
        /// Which node.
        rpn: u16,
    },
    /// Reboot of `rpn` at `at`: cold caches, fresh process table, the
    /// accounting chain restarts (the RDN re-admits the node on its first
    /// report — the watchdog's symmetric up-path).
    Recover {
        /// When the node comes back.
        at: SimTime,
        /// Which node.
        rpn: u16,
    },
    /// Fail-stop crash of front-end RDN `rdn` at `at`: its scheduler
    /// state, connection routes and queued requests are lost, its
    /// accounting epoch ends, and its subscriber shard fails over to a
    /// surviving peer after the watchdog grace.
    RdnCrash {
        /// When the front end dies.
        at: SimTime,
        /// Which RDN.
        rdn: u16,
    },
    /// Reboot of front-end RDN `rdn` at `at`: fresh scheduler, a new
    /// accounting epoch, and its home shard fails back at the next
    /// scheduling cycle.
    RdnRecover {
        /// When the front end comes back.
        at: SimTime,
        /// Which RDN.
        rdn: u16,
    },
}

impl FaultEvent {
    /// When the transition fires.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::RdnCrash { at, .. }
            | FaultEvent::RdnRecover { at, .. } => at,
        }
    }

    /// The node the transition targets, disambiguated by tier: RPNs and
    /// RDNs live in separate id spaces.
    fn target(&self) -> (u8, u16) {
        match *self {
            FaultEvent::Crash { rpn, .. } | FaultEvent::Recover { rpn, .. } => (0, rpn),
            FaultEvent::RdnCrash { rdn, .. } | FaultEvent::RdnRecover { rdn, .. } => (1, rdn),
        }
    }
}

/// A window during which accounting reports are dropped with probability
/// `prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Per-report loss probability inside the window.
    pub prob: f64,
}

/// A degraded RDN→RPN link: frames are dropped with `drop_prob` and
/// surviving frames take `extra_delay` longer, while the window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Affected node, or `None` for every RDN→RPN link.
    pub rpn: Option<u16>,
    /// Per-frame drop probability.
    pub drop_prob: f64,
    /// Added one-way latency for frames that survive.
    pub extra_delay: SimDuration,
}

/// A scripted, seeded schedule of faults for one cluster run. Build it with
/// the methods below (or [`FaultPlan::random_churn`] for a randomized
/// crash/recover schedule), then install it with
/// [`crate::ClusterSim::apply_fault_plan`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    loss_windows: Vec<LossWindow>,
    link_faults: Vec<LinkFault>,
    rdn_partitions: Vec<LinkFault>,
}

impl FaultPlan {
    /// An empty plan whose runtime draws (loss windows, link faults,
    /// `random_churn`) come from a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            loss_windows: Vec::new(),
            link_faults: Vec::new(),
            rdn_partitions: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scripts a fail-stop crash of `rpn` at `at`.
    pub fn crash_at(&mut self, at: SimTime, rpn: u16) -> &mut Self {
        self.events.push(FaultEvent::Crash { at, rpn });
        self
    }

    /// Scripts a reboot of `rpn` at `at`.
    pub fn recover_at(&mut self, at: SimTime, rpn: u16) -> &mut Self {
        self.events.push(FaultEvent::Recover { at, rpn });
        self
    }

    /// Scripts a crash at `at` followed by recovery `down_for` later.
    ///
    /// When a `crash_for` lands inside an existing crash/recover pair for
    /// the same node, two transitions can coincide at one instant (e.g.
    /// an earlier pair's recovery at the moment this crash fires). The
    /// plan defines **last-scheduled wins**: among same-instant
    /// transitions for one node, only the one added to the plan last is
    /// applied (see [`FaultPlan::normalized_events`]), so overlapping
    /// windows compose predictably instead of depending on event-queue
    /// tie-breaking.
    pub fn crash_for(&mut self, at: SimTime, rpn: u16, down_for: SimDuration) -> &mut Self {
        self.crash_at(at, rpn);
        self.recover_at(at + down_for, rpn)
    }

    /// Scripts a fail-stop crash of front-end RDN `rdn` at `at`.
    pub fn rdn_crash_at(&mut self, at: SimTime, rdn: u16) -> &mut Self {
        self.events.push(FaultEvent::RdnCrash { at, rdn });
        self
    }

    /// Scripts a reboot of front-end RDN `rdn` at `at`.
    pub fn rdn_recover_at(&mut self, at: SimTime, rdn: u16) -> &mut Self {
        self.events.push(FaultEvent::RdnRecover { at, rdn });
        self
    }

    /// Scripts an RDN crash at `at` followed by recovery `down_for`
    /// later. Same-instant overlaps resolve last-scheduled-wins, as for
    /// [`FaultPlan::crash_for`].
    pub fn rdn_crash_for(&mut self, at: SimTime, rdn: u16, down_for: SimDuration) -> &mut Self {
        self.rdn_crash_at(at, rdn);
        self.rdn_recover_at(at + down_for, rdn)
    }

    /// Adds an inter-RDN partition window (reusing the [`LinkFault`]
    /// shape): gossip between RDN peers is dropped with `drop_prob`
    /// (survivors delayed by `extra_delay`) while the window is active.
    /// `rdn = Some(r)` isolates every link touching RDN `r`; `None`
    /// partitions all inter-RDN links. Partitions affect only the
    /// accounting gossip — shard ownership is decided by the scripted
    /// crash schedule, never inferred from silence, so there is no
    /// split-brain (see DESIGN.md §16).
    pub fn rdn_partition(
        &mut self,
        from: SimTime,
        to: SimTime,
        rdn: Option<u16>,
        drop_prob: f64,
        extra_delay: SimDuration,
    ) -> &mut Self {
        self.rdn_partitions.push(LinkFault {
            from,
            to,
            rpn: rdn,
            drop_prob,
            extra_delay,
        });
        self
    }

    /// Adds a report-loss window: reports sent in `[from, to)` are dropped
    /// with probability `prob` (drawn from the plan's RNG stream).
    pub fn report_loss(&mut self, from: SimTime, to: SimTime, prob: f64) -> &mut Self {
        self.loss_windows.push(LossWindow { from, to, prob });
        self
    }

    /// Adds a degraded-link window on the RDN→`rpn` link (`None` = all
    /// links): frames dropped with `drop_prob`, survivors delayed by
    /// `extra_delay`.
    pub fn link_fault(
        &mut self,
        from: SimTime,
        to: SimTime,
        rpn: Option<u16>,
        drop_prob: f64,
        extra_delay: SimDuration,
    ) -> &mut Self {
        self.link_faults.push(LinkFault {
            from,
            to,
            rpn,
            drop_prob,
            extra_delay,
        });
        self
    }

    /// Generates `pairs` randomized crash/recover pairs across `rpns` nodes
    /// inside `[from, to)`, from the plan's seed. Crash instants spread
    /// over the span; each outage lasts 0.5–2.5 s (clamped to end before
    /// `to`). Every crash is paired with a recovery, and crash/recover are
    /// idempotent in the simulator, so the cluster always converges to
    /// all-nodes-up after `to` no matter how the pairs interleave.
    pub fn random_churn(&mut self, rpns: u16, from: SimTime, to: SimTime, pairs: u32) -> &mut Self {
        assert!(rpns > 0, "need at least one node to churn");
        assert!(to > from, "empty churn window");
        let mut rng = SimRng::stream(self.seed, "churn");
        let span_ns = to.saturating_since(from).as_nanos();
        for i in 0..pairs {
            let rpn = rng.index(rpns as usize) as u16;
            // Spread crash instants across the window, jittered within the
            // pair's slot so same-node pairs rarely pile up.
            let slot = span_ns / u64::from(pairs.max(1));
            let at_ns = u64::from(i) * slot + rng.range_u64(0, slot.max(2) / 2);
            let at = from + SimDuration::from_nanos(at_ns);
            let down_ns = rng.range_u64(500_000_000, 2_500_000_000);
            let recover_ns = (at_ns + down_ns).min(span_ns.saturating_sub(1));
            let recover = from + SimDuration::from_nanos(recover_ns);
            self.crash_at(at, rpn);
            self.recover_at(recover.max(at), rpn);
        }
        self
    }

    /// The scripted crash/recover events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events the simulator actually applies: insertion order, minus
    /// same-instant duplicates per node — when several transitions target
    /// one node at one instant (overlapping `crash_for` windows), only
    /// the **last-scheduled** one survives. This makes overlap semantics
    /// a property of the plan, not of event-queue tie-breaking.
    pub fn normalized_events(&self) -> Vec<FaultEvent> {
        let mut out: Vec<FaultEvent> = Vec::with_capacity(self.events.len());
        for (i, ev) in self.events.iter().enumerate() {
            let shadowed = self.events[i + 1..]
                .iter()
                .any(|later| later.at() == ev.at() && later.target() == ev.target());
            if !shadowed {
                out.push(*ev);
            }
        }
        out
    }

    /// The scripted report-loss windows.
    pub fn loss_windows(&self) -> &[LossWindow] {
        &self.loss_windows
    }

    /// The scripted link-fault windows.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.link_faults
    }

    /// The scripted inter-RDN partition windows.
    pub fn rdn_partitions(&self) -> &[LinkFault] {
        &self.rdn_partitions
    }
}

/// Runtime state of an installed plan, owned by the simulation world: the
/// window tables plus the plan's live RNG stream.
#[derive(Debug)]
pub(crate) struct FaultState {
    rng: SimRng,
    loss_windows: Vec<LossWindow>,
    link_faults: Vec<LinkFault>,
    rdn_partitions: Vec<LinkFault>,
}

impl FaultState {
    /// The no-plan state: no windows, draws never happen.
    pub(crate) fn inactive() -> Self {
        FaultState {
            // A placeholder, never drawn from: `install` re-seeds it.
            rng: SimRng::stream(0, "faults"),
            loss_windows: Vec::new(),
            link_faults: Vec::new(),
            rdn_partitions: Vec::new(),
        }
    }

    /// Installs a plan's windows and re-seeds the draw stream.
    pub(crate) fn install(&mut self, plan: &FaultPlan) {
        self.rng = SimRng::stream(plan.seed, "faults");
        self.loss_windows = plan.loss_windows.clone();
        self.link_faults = plan.link_faults.clone();
        self.rdn_partitions = plan.rdn_partitions.clone();
    }

    /// The active loss probability at `now`, or `None` when no window
    /// covers it.
    pub(crate) fn report_loss_at(&self, now: SimTime) -> Option<f64> {
        self.loss_windows
            .iter()
            .find(|w| now >= w.from && now < w.to)
            .map(|w| w.prob)
    }

    /// The active (drop probability, extra delay) on the RDN→`rpn` link at
    /// `now`, or `None` when the link is healthy.
    pub(crate) fn link_fault_at(&self, now: SimTime, rpn: u16) -> Option<(f64, SimDuration)> {
        self.link_faults
            .iter()
            .find(|f| now >= f.from && now < f.to && f.rpn.is_none_or(|r| r == rpn))
            .map(|f| (f.drop_prob, f.extra_delay))
    }

    /// The active (drop probability, extra delay) on the inter-RDN link
    /// between peers `a` and `b` at `now`, or `None` when healthy. A
    /// window with `rpn = Some(r)` isolates every link touching RDN `r`;
    /// `None` partitions all inter-RDN links.
    pub(crate) fn rdn_link_fault_at(
        &self,
        now: SimTime,
        a: u16,
        b: u16,
    ) -> Option<(f64, SimDuration)> {
        self.rdn_partitions
            .iter()
            .find(|f| now >= f.from && now < f.to && f.rpn.is_none_or(|r| r == a || r == b))
            .map(|f| (f.drop_prob, f.extra_delay))
    }

    /// One Bernoulli draw from the plan's stream.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// Delivery delay of a frame crossing a link whose active fault (from
    /// [`FaultState::link_fault_at`] or [`FaultState::rdn_link_fault_at`])
    /// is `fault`: `hop` plus the fault's extra delay, or `None` when the
    /// fault's drop draw loses the frame.
    pub(crate) fn transit(
        &mut self,
        fault: Option<(f64, SimDuration)>,
        hop: SimDuration,
    ) -> Option<SimDuration> {
        match fault {
            Some((drop_prob, _)) if self.chance(drop_prob) => None,
            Some((_, extra)) => Some(hop + extra),
            None => Some(hop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let mut p = FaultPlan::new(42);
        p.crash_for(SimTime::from_secs(5), 0, SimDuration::from_secs(2))
            .report_loss(SimTime::from_secs(1), SimTime::from_secs(3), 0.5)
            .link_fault(
                SimTime::from_secs(2),
                SimTime::from_secs(4),
                Some(1),
                0.1,
                SimDuration::from_millis(5),
            );
        assert_eq!(
            p.events(),
            &[
                FaultEvent::Crash {
                    at: SimTime::from_secs(5),
                    rpn: 0
                },
                FaultEvent::Recover {
                    at: SimTime::from_secs(7),
                    rpn: 0
                },
            ]
        );
        assert_eq!(p.loss_windows().len(), 1);
        assert_eq!(p.link_faults().len(), 1);
        assert_eq!(p.seed(), 42);
    }

    #[test]
    fn random_churn_is_deterministic_and_paired() {
        let build = |seed| {
            let mut p = FaultPlan::new(seed);
            p.random_churn(3, SimTime::from_secs(5), SimTime::from_secs(20), 6);
            p.events().to_vec()
        };
        assert_eq!(build(9), build(9), "same seed, same schedule");
        assert_ne!(build(9), build(10), "different seed diverges");
        let evs = build(9);
        assert_eq!(evs.len(), 12, "each pair is a crash plus a recovery");
        for pair in evs.chunks(2) {
            let (FaultEvent::Crash { at, rpn }, FaultEvent::Recover { at: rec, rpn: r2 }) =
                (pair[0], pair[1])
            else {
                panic!("expected crash/recover pair, got {pair:?}");
            };
            assert_eq!(rpn, r2);
            assert!(rec >= at, "recovery not before crash");
            assert!(rec < SimTime::from_secs(20), "recovery inside the window");
            assert!(at >= SimTime::from_secs(5));
        }
    }

    #[test]
    fn windows_answer_membership() {
        let mut plan = FaultPlan::new(1);
        plan.report_loss(SimTime::from_secs(2), SimTime::from_secs(4), 0.7);
        plan.link_fault(
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            Some(2),
            0.2,
            SimDuration::from_millis(1),
        );
        plan.link_fault(
            SimTime::from_secs(6),
            SimTime::from_secs(7),
            None,
            1.0,
            SimDuration::ZERO,
        );
        let mut st = FaultState::inactive();
        st.install(&plan);
        assert_eq!(st.report_loss_at(SimTime::from_secs(1)), None);
        assert_eq!(st.report_loss_at(SimTime::from_secs(2)), Some(0.7));
        assert_eq!(st.report_loss_at(SimTime::from_secs(4)), None, "exclusive");
        assert_eq!(
            st.link_fault_at(SimTime::from_secs(2), 2),
            Some((0.2, SimDuration::from_millis(1)))
        );
        assert_eq!(st.link_fault_at(SimTime::from_secs(2), 0), None);
        assert_eq!(
            st.link_fault_at(SimTime::from_millis(6_500), 0),
            Some((1.0, SimDuration::ZERO)),
            "wildcard link fault hits every node"
        );
        assert!(st.chance(1.0));
        assert!(!st.chance(0.0));
    }

    #[test]
    fn overlapping_same_instant_events_resolve_last_scheduled_wins() {
        let t = SimTime::from_secs(7);
        // A crash_for whose crash lands exactly on an earlier pair's
        // recovery: the crash was scheduled later, so it wins the instant.
        let mut p = FaultPlan::new(1);
        p.crash_for(SimTime::from_secs(3), 4, SimDuration::from_secs(4)); // recovery at 7
        p.crash_for(t, 4, SimDuration::from_secs(2)); // crash at 7
        let norm = p.normalized_events();
        assert_eq!(
            norm,
            vec![
                FaultEvent::Crash {
                    at: SimTime::from_secs(3),
                    rpn: 4
                },
                FaultEvent::Crash { at: t, rpn: 4 },
                FaultEvent::Recover {
                    at: SimTime::from_secs(9),
                    rpn: 4
                },
            ],
            "the recovery at t is shadowed by the later-scheduled crash at t"
        );
        // Reversed insertion order: now the recovery is scheduled last
        // and wins the instant instead.
        let mut q = FaultPlan::new(1);
        q.crash_for(t, 4, SimDuration::from_secs(2));
        q.crash_for(SimTime::from_secs(3), 4, SimDuration::from_secs(4));
        let norm = q.normalized_events();
        assert_eq!(
            norm,
            vec![
                FaultEvent::Recover {
                    at: SimTime::from_secs(9),
                    rpn: 4
                },
                FaultEvent::Crash {
                    at: SimTime::from_secs(3),
                    rpn: 4
                },
                FaultEvent::Recover { at: t, rpn: 4 },
            ],
            "reversed insertion keeps the recovery, drops the crash"
        );
        // Raw events() is untouched by normalization.
        assert_eq!(p.events().len(), 4);
    }

    #[test]
    fn normalization_separates_rpn_and_rdn_id_spaces() {
        let t = SimTime::from_secs(5);
        let mut p = FaultPlan::new(1);
        p.crash_at(t, 1).rdn_crash_at(t, 1);
        assert_eq!(
            p.normalized_events().len(),
            2,
            "RPN 1 and RDN 1 are distinct targets; neither shadows the other"
        );
        // Different nodes at the same instant also both survive.
        let mut q = FaultPlan::new(1);
        q.rdn_crash_at(t, 0).rdn_crash_at(t, 1);
        assert_eq!(q.normalized_events().len(), 2);
    }

    #[test]
    fn rdn_partitions_answer_membership() {
        let mut plan = FaultPlan::new(1);
        plan.rdn_partition(
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            Some(1),
            1.0,
            SimDuration::ZERO,
        );
        plan.rdn_partition(
            SimTime::from_secs(6),
            SimTime::from_secs(7),
            None,
            0.5,
            SimDuration::from_millis(2),
        );
        assert_eq!(plan.rdn_partitions().len(), 2);
        let mut st = FaultState::inactive();
        st.install(&plan);
        let at = SimTime::from_secs(3);
        assert_eq!(
            st.rdn_link_fault_at(at, 0, 1),
            Some((1.0, SimDuration::ZERO)),
            "links touching RDN 1 are cut"
        );
        assert_eq!(
            st.rdn_link_fault_at(at, 1, 2),
            Some((1.0, SimDuration::ZERO))
        );
        assert_eq!(st.rdn_link_fault_at(at, 0, 2), None, "0<->2 unaffected");
        assert_eq!(st.rdn_link_fault_at(SimTime::from_secs(4), 0, 1), None);
        assert_eq!(
            st.rdn_link_fault_at(SimTime::from_millis(6_500), 0, 3),
            Some((0.5, SimDuration::from_millis(2))),
            "wildcard partition cuts every inter-RDN link"
        );
    }
}
