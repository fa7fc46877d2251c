//! Tests of the paper's extension features: the asymmetric RDN cluster
//! (secondary handshake offload), CGI-style dynamic requests, and failure
//! injection (report loss, RPN fail-stop with watchdog failover).

use gage_cluster::params::{ClusterParams, DynamicRequests, ServiceCostModel};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_cluster::FaultPlan;
use gage_core::resource::Grps;
use gage_des::SimTime;
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

#[test]
fn secondary_rdns_offload_handshake_cpu() {
    let run = |secondaries: usize| {
        let horizon = 15.0;
        let sites = vec![site("s.example.com", 400.0, 400.0, horizon, 1)];
        let params = ClusterParams {
            rpn_count: 5,
            secondary_rdns: secondaries,
            service: ServiceCostModel::generic_requests(),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(params, sites, 7);
        sim.run_until(SimTime::from_secs(15));
        let rep = sim.report(SimTime::from_secs(5), SimTime::from_secs(14));
        let secondary_util =
            sim.secondary_utilizations(SimTime::from_secs(5), SimTime::from_secs(14));
        (
            rep.subscribers[0].served,
            rep.rdn_utilization,
            secondary_util,
        )
    };
    let (served_alone, primary_alone, _) = run(0);
    let (served_with, primary_with, secondary_util) = run(2);

    // Same service either way; the primary sheds the handshake work.
    assert!(
        (served_alone - served_with).abs() / served_alone < 0.02,
        "service changed: {served_alone:.1} vs {served_with:.1}"
    );
    assert!(
        primary_with < primary_alone * 0.95,
        "primary CPU should drop: {primary_alone:.3} -> {primary_with:.3}"
    );
    // The shed work actually landed on the secondaries, split evenly.
    assert_eq!(secondary_util.len(), 2);
    assert!(
        secondary_util.iter().all(|&u| u > 0.001),
        "{secondary_util:?}"
    );
    let ratio = secondary_util[0] / secondary_util[1];
    assert!(
        (0.8..=1.25).contains(&ratio),
        "round-robin should balance: {secondary_util:?}"
    );
}

#[test]
fn report_loss_is_tolerated() {
    let run = |loss: f64| {
        let horizon = 25.0;
        let sites = vec![site("s.example.com", 150.0, 150.0, horizon, 3)];
        let params = ClusterParams {
            rpn_count: 2,
            service: ServiceCostModel::generic_requests(),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(params, sites, 7);
        sim.apply_fault_plan(FaultPlan::new(7).report_loss(SimTime::ZERO, SimTime::MAX, loss));
        sim.run_until(SimTime::from_secs(25));
        let rep = sim.report(SimTime::from_secs(10), SimTime::from_secs(23));
        (rep.subscribers[0].served, sim.world().lost_reports)
    };
    let (clean, lost_clean) = run(0.0);
    let (lossy, lost) = run(0.25);
    assert_eq!(lost_clean, 0);
    assert!(
        lost > 10,
        "loss injection should actually drop reports ({lost})"
    );
    assert!(
        (clean - lossy).abs() / clean < 0.05,
        "throughput must survive 25% report loss: {clean:.1} vs {lossy:.1}"
    );
}

#[test]
fn rpn_crash_fails_over_via_watchdog() {
    // Two RPNs ≈ 200 GRPS; offered 80/s fits on one node (≈100 GRPS).
    // Crash one at t=10 and verify service recovers after the watchdog
    // writes it off.
    let horizon = 40.0;
    let sites = vec![site("s.example.com", 150.0, 80.0, horizon, 5)];
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.apply_fault_plan(FaultPlan::new(7).crash_at(SimTime::from_secs(10), 1));
    sim.run_until(SimTime::from_secs(40));

    let before = sim.report(SimTime::from_secs(4), SimTime::from_secs(10));
    let after = sim.report(SimTime::from_secs(15), SimTime::from_secs(38));
    println!(
        "before {:.1} req/s, after {:.1} req/s",
        before.subscribers[0].served, after.subscribers[0].served
    );
    assert!(
        (before.subscribers[0].served - 80.0).abs() < 4.0,
        "healthy cluster serves everything: {:.1}",
        before.subscribers[0].served
    );
    // After the watchdog window (≈0.45s here) the surviving node carries
    // the full load; only requests dispatched into the void are lost.
    assert!(
        after.subscribers[0].served > 75.0,
        "post-crash steady state should recover: {:.1}",
        after.subscribers[0].served
    );
}

#[test]
fn cgi_requests_fork_burn_and_reap() {
    let horizon = 10.0;
    // Half the requests hit /cgi/ paths.
    let mut s = site("s.example.com", 300.0, 100.0, horizon, 9);
    for (i, e) in s.trace.entries.iter_mut().enumerate() {
        if i % 2 == 0 {
            e.path = format!("/cgi/render?id={i}");
        }
    }
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        dynamic: Some(DynamicRequests {
            path_prefix: "/cgi/".to_string(),
            cpu_multiplier: 3.0,
        }),
        ..Default::default()
    };
    let offered = s.trace.len() as u64;
    let mut sim = ClusterSim::new(params, vec![s], 7);
    sim.run_until(SimTime::from_secs(30));
    let w = sim.world();
    let served = w.metrics[0].served.total() as u64;
    let dropped = w.metrics[0].dropped.total() as u64;
    assert_eq!(served + dropped, offered, "conservation holds for CGI");
    // CGI children were reaped: only the per-site workers remain alive.
    for live in sim.rpn_live_processes() {
        assert_eq!(live, 1, "one worker per site per node, children reaped");
    }
    // The charging entity was billed for the children's extra CPU: mean
    // observed usage per request is well above the 1-generic static cost.
    let observed = w.metrics[0].observed_usage.total();
    let per_request = observed / served as f64;
    assert!(
        per_request > 1.5,
        "dynamic CPU must roll up to the entity: {per_request:.2} generic/request"
    );
}

#[test]
fn crash_of_all_rpns_stops_service_without_panicking() {
    let horizon = 12.0;
    let sites = vec![site("s.example.com", 100.0, 80.0, horizon, 2)];
    let params = ClusterParams {
        rpn_count: 1,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.apply_fault_plan(FaultPlan::new(7).crash_at(SimTime::from_secs(5), 0));
    sim.run_until(SimTime::from_secs(12));
    let before = sim.report(SimTime::from_secs(2), SimTime::from_secs(5));
    let after = sim.report(SimTime::from_secs(8), SimTime::from_secs(11));
    assert!(before.subscribers[0].served > 70.0);
    assert!(
        after.subscribers[0].served < 1.0,
        "no nodes, no service: {:.1}",
        after.subscribers[0].served
    );
}
