//! Cross-crate integration tests: workload generation feeding the simulated
//! cluster, conservation invariants, failure injection and facade wiring.

use gage::cluster::params::{ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::core::resource::Grps;
use gage::des::{SimDuration, SimTime};
use gage::workload::{ArrivalProcess, SpecWebGenerator, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn synthetic_site(host: &str, reservation: f64, rate: f64, horizon: f64, seed: u64) -> SiteSpec {
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
fn conservation_offered_equals_served_plus_dropped_plus_inflight() {
    // Run to quiescence: after the trace ends, everything offered must be
    // accounted for as served or dropped (nothing lost in the pipes).
    let horizon = 10.0;
    let sites = vec![
        synthetic_site("a.example.com", 100.0, 150.0, horizon, 1),
        synthetic_site("b.example.com", 50.0, 300.0, horizon, 2),
    ];
    let offered_counts: Vec<u64> = sites.iter().map(|s| s.trace.len() as u64).collect();
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    // Far past the trace end so every queue drains.
    sim.run_until(SimTime::from_secs(40));
    let w = sim.world();
    for (i, &offered) in offered_counts.iter().enumerate() {
        let served = w.metrics[i].served.total() as u64;
        let dropped = w.metrics[i].dropped.total() as u64;
        assert_eq!(
            served + dropped,
            offered,
            "site {i}: served {served} + dropped {dropped} != offered {offered}"
        );
    }
}

#[test]
fn specweb_trace_round_trips_through_the_cluster() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut gen = SpecWebGenerator::for_target_rate(50.0);
    let trace = Trace::generate(
        "shop.example.com",
        ArrivalProcess::Poisson { rate: 50.0 },
        8.0,
        &mut gen,
        &mut rng,
    );
    // Persist + reload (as the paper's clients do) before replay.
    let mut buf = Vec::new();
    trace.save_json(&mut buf).expect("serializes");
    let trace = Trace::load_json(buf.as_slice()).expect("deserializes");
    let offered = trace.len() as u64;

    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::static_files(),
        ..Default::default()
    };
    let site = SiteSpec {
        host: "shop.example.com".to_string(),
        reservation: Grps(500.0),
        trace,
    };
    let mut sim = ClusterSim::new(params, vec![site], 7);
    sim.run_until(SimTime::from_secs(30));
    let w = sim.world();
    let served = w.metrics[0].served.total() as u64;
    assert_eq!(served, offered, "lightly-loaded cluster serves everything");
    // Heavy-tailed sizes actually exercised the disk (cache misses).
    assert!(w.metrics[0].latency_ms.max() > 5.0);
}

#[test]
fn unknown_host_requests_are_counted_not_crashed() {
    let horizon = 3.0;
    let mut site = synthetic_site("real.example.com", 100.0, 50.0, horizon, 1);
    // Corrupt half the trace entries to an unregistered host.
    let ghost = site.trace.intern("ghost.example.com");
    for (i, e) in site.trace.entries.iter_mut().enumerate() {
        if i % 2 == 0 {
            e.host = ghost;
        }
    }
    let offered = site.trace.len() as u64;
    let params = ClusterParams {
        rpn_count: 1,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, vec![site], 7);
    sim.run_until(SimTime::from_secs(10));
    let w = sim.world();
    assert_eq!(w.unknown_host_drops, offered / 2);
    assert_eq!(w.metrics[0].served.total() as u64, offered - offered / 2);
}

/// Two hosted sites on 2 RPNs, where every request of site a names site
/// b's Host, so the RDN classifies it into b's queue.
fn cross_host_sites(a_rate: f64, a_horizon: f64) -> Vec<SiteSpec> {
    let mut a = synthetic_site("a.example.com", 100.0, a_rate, a_horizon, 1);
    let b_host = a.trace.intern("b.example.com");
    for e in &mut a.trace.entries {
        e.host = b_host;
    }
    let b = synthetic_site("b.example.com", 100.0, 20.0, 3.0, 2);
    vec![a, b]
}

#[test]
fn a_request_naming_another_sites_host_resolves_at_its_own_client() {
    // b serves a's requests, but the responses must reach a's clients:
    // sent to b's client table they are lost, and a's requests time out
    // and retry until they fail, each attempt dispatched again.
    let sites = cross_host_sites(20.0, 3.0);
    assert_eq!(sites[0].trace.len(), 60);
    assert_eq!(sites[1].trace.len(), 60);
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.run_until(SimTime::from_secs(80));
    let w = sim.world();
    for (i, m) in w.metrics.iter().enumerate() {
        assert_eq!(m.served.total() as u64, 60, "site {i} served");
        assert_eq!(m.failed.total() as u64, 0, "site {i} failed");
    }
    // b's own 60 plus a's 60, each dispatched once.
    assert_eq!(sim.registry().counter("sub1.dispatched"), Some(120));
}

#[test]
fn a_refused_request_naming_another_sites_host_drops_at_its_own_client() {
    // A burst from a overflows b's 4-deep queue; the RSTs must reach a's
    // clients as drops, not leave them to time out into failures.
    let sites = cross_host_sites(2_000.0, 0.1);
    let offered: Vec<u64> = sites.iter().map(|s| s.trace.len() as u64).collect();
    let mut params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    params.scheduler.queue_capacity = 4;
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.run_until(SimTime::from_secs(80));
    let w = sim.world();
    let a = &w.metrics[0];
    assert!(a.dropped.total() > 0.0, "the burst must overflow b's queue");
    for (i, m) in w.metrics.iter().enumerate() {
        assert_eq!(m.failed.total() as u64, 0, "site {i} failed");
        assert_eq!(
            (m.served.total() + m.dropped.total()) as u64,
            offered[i],
            "site {i} conservation"
        );
    }
}

#[test]
fn sub_second_accounting_cycles_do_not_change_total_throughput() {
    // The control loop's staleness changes observation lumpiness and
    // latency, not steady-state service (the reservation pass is
    // balance-driven). Paper §4.1's premise.
    let run = |acct_ms: u64| {
        let horizon = 20.0;
        let sites = vec![synthetic_site("x.example.com", 150.0, 150.0, horizon, 3)];
        let params = ClusterParams {
            rpn_count: 2,
            accounting_cycle: SimDuration::from_millis(acct_ms),
            service: ServiceCostModel::generic_requests(),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(params, sites, 7);
        sim.run_until(SimTime::from_secs(20));
        let rep = sim.report(SimTime::from_secs(8), SimTime::from_secs(18));
        rep.subscribers[0].served
    };
    let fast = run(50);
    let slow = run(2_000);
    assert!(
        (fast - slow).abs() / fast < 0.05,
        "throughput should be cycle-invariant: {fast:.1} vs {slow:.1}"
    );
}

#[test]
fn facade_reexports_cover_the_workspace() {
    // Compile-time wiring check: every crate is reachable through the
    // facade with consistent types.
    let _cost = gage::core::resource::ResourceVector::generic_request();
    let _grps = gage::core::resource::Grps(1.0);
    let _t = gage::des::SimTime::ZERO;
    let _mac = gage::net::MacAddr::from_node_id(1);
    let _mode = gage::cluster::GageMode::Enabled;
    let _cost = gage::rt::backend::BackendCost::default();
    let _mix = gage::workload::fileset::CLASS_MIX;
}
