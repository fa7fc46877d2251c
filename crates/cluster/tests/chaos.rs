//! Chaos suite: convergence invariants under scripted and randomized
//! crash/recover schedules.
//!
//! Three invariants are enforced:
//!
//! 1. **Conservation** — every issued request terminally resolves:
//!    `offered == served + dropped + failed`, exactly, per subscriber.
//! 2. **Recovery** — after a crashed node rejoins, steady-state service
//!    returns to within 10% of its pre-crash rate.
//! 3. **Replayability** — two runs with the same seed and the same
//!    [`FaultPlan`] produce byte-identical trace dumps.

use std::collections::BTreeMap;

use gage_cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_cluster::FaultPlan;
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
use gage_obs::TraceEvent;
use gage_workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn site(host: &str, reservation: f64, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    SiteSpec {
        host: host.to_string(),
        reservation: Grps(reservation),
        trace: Trace::generate(
            host,
            ArrivalProcess::Constant { rate },
            horizon,
            &mut gen,
            &mut rng,
        ),
    }
}

/// Client timing tight enough that every fault resolves inside the run.
fn fast_retry(max_retries: u32) -> ClientRetryParams {
    ClientRetryParams {
        timeout: SimDuration::from_secs(1),
        max_retries,
        backoff: 2.0,
    }
}

/// Exact per-subscriber conservation: counts, not rates, so the assertion
/// tolerates no slack at all.
fn assert_conservation(sim: &ClusterSim) {
    for (i, m) in sim.world().metrics.iter().enumerate() {
        let offered = m.offered.total() as u64;
        let served = m.served.total() as u64;
        let dropped = m.dropped.total() as u64;
        let failed = m.failed.total() as u64;
        assert_eq!(
            offered,
            served + dropped + failed,
            "sub{i}: offered {offered} != served {served} + dropped {dropped} + failed {failed}"
        );
    }
}

/// Crash one of two nodes at t=10, recover it at t=14, no client retries:
/// the node's in-flight victims surface as `failed`, everything still
/// balances exactly, and service returns to its pre-crash rate.
#[test]
fn crash_and_rejoin_conserves_requests_and_restores_service() {
    let horizon = 30.0;
    let sites = vec![site("s.example.com", 150.0, 120.0, horizon, 3)];
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        client_retry: fast_retry(0),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    let mut plan = FaultPlan::new(1);
    plan.crash_for(SimTime::from_secs(10), 1, SimDuration::from_secs(4));
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(36));

    assert_conservation(&sim);
    let failed = sim.world().metrics[0].failed.total();
    assert!(
        failed > 0.0,
        "in-flight requests on the crashed node must fail (no retries)"
    );

    let pre = sim
        .report(SimTime::from_secs(4), SimTime::from_secs(10))
        .subscribers[0]
        .served;
    let post = sim
        .report(SimTime::from_secs(20), SimTime::from_secs(30))
        .subscribers[0]
        .served;
    assert!(
        (pre - post).abs() / pre < 0.10,
        "post-rejoin service must be within 10% of pre-crash: {pre:.1} vs {post:.1}"
    );
    assert!(
        (sim.world().degrade_scale() - 1.0).abs() < 1e-9,
        "full capacity restored after rejoin"
    );
}

/// Same crash, but with one client retry: the victims' second attempts
/// land on the surviving node, so almost none of them terminally fail —
/// and the books still balance exactly.
#[test]
fn client_retry_rescues_crash_victims() {
    let run = |max_retries: u32| {
        let horizon = 30.0;
        let sites = vec![site("s.example.com", 150.0, 120.0, horizon, 3)];
        let params = ClusterParams {
            rpn_count: 2,
            service: ServiceCostModel::generic_requests(),
            client_retry: fast_retry(max_retries),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(params, sites, 7);
        let mut plan = FaultPlan::new(1);
        plan.crash_for(SimTime::from_secs(10), 1, SimDuration::from_secs(4));
        sim.apply_fault_plan(&plan);
        sim.run_until(SimTime::from_secs(36));
        assert_conservation(&sim);
        sim.world().metrics[0].failed.total()
    };
    let failed_without = run(0);
    let failed_with = run(1);
    assert!(failed_without > 0.0);
    assert!(
        failed_with <= failed_without / 2.0,
        "one retry should rescue most crash victims: {failed_without} -> {failed_with}"
    );
}

/// A rebooted RPN starts a fresh in-service table whose handles repeat
/// the old life's, and the old life's completions are still queued when
/// it comes back. They must die on the boot-epoch check: every request
/// the new life sets up completes there, once per setup.
#[test]
fn a_rebooted_rpn_is_not_completed_by_its_old_lifes_events() {
    let sites = vec![site("s.example.com", 100.0, 300.0, 3.0, 3)];
    let params = ClusterParams {
        rpn_count: 1,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.enable_tracing(1 << 18);
    let mut plan = FaultPlan::new(1);
    plan.crash_for(SimTime::from_millis(155), 0, SimDuration::from_millis(5));
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(60));
    // (setups, completions) per request in the new life.
    let mut new_life: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    let mut rebooted = false;
    for r in sim.trace_ring().expect("tracing enabled").iter() {
        match r.event {
            TraceEvent::RpnRecover { .. } => rebooted = true,
            TraceEvent::SpliceSetup { req, .. } if rebooted => {
                new_life.entry(req).or_default().0 += 1
            }
            TraceEvent::ReqComplete { req, .. } if rebooted => {
                new_life.entry(req).or_default().1 += 1
            }
            _ => {}
        }
    }
    assert!(rebooted && !new_life.is_empty());
    let orphans: Vec<_> = new_life.iter().filter(|(_, (s, c))| s > c).collect();
    assert!(
        orphans.is_empty(),
        "set up but never completed: {orphans:?}"
    );
    assert_conservation(&sim);
}

/// Two runs with the same seed and the same plan — crash, recovery, a
/// report-loss window and a degraded link — dump byte-identical traces.
#[test]
fn same_seed_same_plan_is_byte_identical() {
    let run = || {
        let horizon = 12.0;
        let sites = vec![site("s.example.com", 120.0, 80.0, horizon, 9)];
        let params = ClusterParams {
            rpn_count: 2,
            service: ServiceCostModel::generic_requests(),
            client_retry: fast_retry(1),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(params, sites, 21);
        // Large enough that the whole run fits: the early crash/recover
        // records must still be in the ring at dump time.
        sim.enable_tracing(1 << 16);
        let mut plan = FaultPlan::new(5);
        plan.crash_for(SimTime::from_secs(4), 0, SimDuration::from_secs(2))
            .report_loss(SimTime::from_secs(1), SimTime::from_secs(10), 0.3)
            .link_fault(
                SimTime::from_secs(2),
                SimTime::from_secs(9),
                Some(1),
                0.05,
                SimDuration::from_micros(300),
            );
        sim.apply_fault_plan(&plan);
        sim.run_until(SimTime::from_secs(12));
        (
            sim.trace_dump().expect("tracing enabled"),
            sim.events_processed(),
        )
    };
    let (dump_a, events_a) = run();
    let (dump_b, events_b) = run();
    assert_eq!(events_a, events_b, "same seed, same event count");
    assert_eq!(dump_a, dump_b, "same seed + same plan must replay exactly");
    assert!(
        dump_a.contains("rpn_crash") && dump_a.contains("rpn_recover"),
        "trace must record the fault transitions"
    );
    assert!(
        dump_a.contains("node_down") && dump_a.contains("node_up"),
        "trace must record the watchdog transitions"
    );
}

/// Randomized crash/recover churn at three fixed seeds: whatever the
/// schedule, every request resolves exactly once, the cluster converges
/// back to full capacity, and tail-window service approaches the offered
/// rate again.
#[test]
fn randomized_churn_converges_at_fixed_seeds() {
    for seed in [11, 23, 47] {
        let horizon = 30.0;
        let rate = 60.0;
        let sites = vec![
            site("gold.example.com", 100.0, rate, horizon, seed),
            site("silver.example.com", 100.0, rate, horizon, seed + 100),
        ];
        let params = ClusterParams {
            rpn_count: 3,
            service: ServiceCostModel::generic_requests(),
            client_retry: fast_retry(1),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(params, sites, seed);
        let mut plan = FaultPlan::new(seed);
        plan.random_churn(3, SimTime::from_secs(5), SimTime::from_secs(20), 4);
        sim.apply_fault_plan(&plan);
        sim.run_until(SimTime::from_secs(40));

        assert_conservation(&sim);
        assert!(
            (sim.world().degrade_scale() - 1.0).abs() < 1e-9,
            "seed {seed}: all nodes must be back (or capacity whole) at the end"
        );
        // Tail window inside the traffic horizon: churn ends at 20, the
        // last rejoin settles within a couple of cycles, issues stop at 30.
        let rep = sim.report(SimTime::from_secs(24), SimTime::from_secs(29));
        for row in &rep.subscribers {
            assert!(
                row.served >= 0.85 * rate,
                "seed {seed}, {}: tail service {:.1} too far below offered {rate}",
                row.host,
                row.served
            );
        }
    }
}
