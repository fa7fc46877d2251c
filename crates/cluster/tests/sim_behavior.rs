//! End-to-end behavioural tests of the simulated Gage cluster.

use gage_cluster::params::{
    ClusterParams, DiskPolicy, GageMode, ServiceCostModel, NETWORK, RPN_COSTS,
};
use gage_cluster::sim::{ClusterSim, SiteSpec};
use gage_core::config::{SchedulerConfig, SCHEDULING_CYCLE_SECS};
use gage_core::resource::Grps;
use gage_des::{SimDuration, SimTime};
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

fn generic_params(rpns: usize) -> ClusterParams {
    ClusterParams {
        rpn_count: rpns,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    }
}

#[test]
fn table1_shape_performance_isolation() {
    // Paper Table 1: reservations 250/150/50; inputs ≈259/161/390 on a
    // cluster whose capacity (8 RPNs × ~100 GRPS) is below total input.
    let horizon = 40.0;
    let sites = vec![
        site("site1.example.com", 250.0, 259.4, horizon, 1),
        site("site2.example.com", 150.0, 161.1, horizon, 2),
        site("site3.example.com", 50.0, 390.3, horizon, 3),
    ];
    let mut sim = ClusterSim::new(generic_params(8), sites, 7);
    sim.run_until(SimTime::from_secs(40));
    let rep = sim.report(SimTime::from_secs(20), SimTime::from_secs(38));
    println!("{}", rep.to_table());
    let s1 = &rep.subscribers[0];
    let s2 = &rep.subscribers[1];
    let s3 = &rep.subscribers[2];
    // Sites within their reservation are fully served.
    assert!(
        (s1.served - s1.offered).abs() / s1.offered < 0.03,
        "site1 served {} of {}",
        s1.served,
        s1.offered
    );
    assert!(s1.dropped < 1.0, "site1 dropped {}", s1.dropped);
    assert!(
        (s2.served - s2.offered).abs() / s2.offered < 0.03,
        "site2 served {} of {}",
        s2.served,
        s2.offered
    );
    assert!(s2.dropped < 1.0, "site2 dropped {}", s2.dropped);
    // The overloaded site gets the residual capacity and drops the rest.
    assert!(
        s3.served > 280.0 && s3.served < 390.0,
        "site3 served {}",
        s3.served
    );
    assert!(s3.dropped > 5.0, "site3 dropped {}", s3.dropped);
    // Conservation in steady state: offered ≈ served + dropped.
    assert!(
        (s3.offered - s3.served - s3.dropped).abs() / s3.offered < 0.05,
        "site3 conservation: {} vs {} + {}",
        s3.offered,
        s3.served,
        s3.dropped
    );
}

#[test]
fn table2_shape_spare_proportional_to_reservation() {
    // Paper Table 2: reservations 250/200, both overloaded; the spare is
    // split proportionally so served ratio ≈ reservation ratio.
    let horizon = 40.0;
    let sites = vec![
        site("site1.example.com", 250.0, 424.6, horizon, 1),
        site("site2.example.com", 200.0, 364.5, horizon, 2),
    ];
    // 7 RPNs ≈ 700 GRPS: well below the 789 offered, so the spare pool is
    // genuinely contended and the split policy is visible.
    let mut sim = ClusterSim::new(generic_params(7), sites, 7);
    sim.run_until(SimTime::from_secs(40));
    let rep = sim.report(SimTime::from_secs(20), SimTime::from_secs(38));
    println!("{}", rep.to_table());
    let s1 = &rep.subscribers[0];
    let s2 = &rep.subscribers[1];
    // Both serve at least their reservations.
    assert!(s1.served >= 245.0, "site1 served {}", s1.served);
    assert!(s2.served >= 195.0, "site2 served {}", s2.served);
    // Spare split ∝ 250:200.
    let spare1 = s1.served - 250.0;
    let spare2 = s2.served - 200.0;
    assert!(
        spare1 > 10.0 && spare2 > 10.0,
        "spare {spare1:.1}/{spare2:.1}"
    );
    let ratio = spare1 / spare2;
    assert!(
        (ratio - 1.25).abs() < 0.35,
        "spare ratio {ratio:.2}, expected ≈1.25 (spare {spare1:.1}/{spare2:.1})"
    );
}

#[test]
fn bypass_mode_has_no_isolation() {
    // Without Gage the overloaded site starves the reserved one: both see
    // roughly demand-proportional service under saturation.
    let horizon = 20.0;
    let sites = vec![
        site("meek.example.com", 300.0, 100.0, horizon, 1),
        site("hog.example.com", 50.0, 1_200.0, horizon, 2),
    ];
    let params = ClusterParams {
        mode: GageMode::Bypass,
        ..generic_params(4) // 400 GRPS capacity, 1300 offered
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.run_until(SimTime::from_secs(20));
    let rep = sim.report(SimTime::from_secs(10), SimTime::from_secs(18));
    println!("{}", rep.to_table());
    let meek = &rep.subscribers[0];
    // In bypass mode requests pile into RPN queues; the meek site's
    // completions are dragged down by the hog despite its big reservation.
    // (With Gage enabled, the meek site would see ≈100 req/s; see
    // gage_beats_bypass_under_overload.)
    assert!(
        meek.served < 100.0 * 0.90,
        "bypass unexpectedly preserved meek at {}",
        meek.served
    );
}

#[test]
fn gage_beats_bypass_under_overload() {
    let horizon = 20.0;
    let build = |mode| {
        let sites = vec![
            site("meek.example.com", 300.0, 100.0, horizon, 1),
            site("hog.example.com", 50.0, 1_200.0, horizon, 2),
        ];
        let params = ClusterParams {
            mode,
            ..generic_params(4)
        };
        let mut sim = ClusterSim::new(params, sites, 7);
        sim.run_until(SimTime::from_secs(20));
        sim.report(SimTime::from_secs(10), SimTime::from_secs(18))
    };
    let with_gage = build(GageMode::Enabled);
    let without = build(GageMode::Bypass);
    let meek_gage = with_gage.subscribers[0].served;
    let meek_bare = without.subscribers[0].served;
    println!("meek with Gage {meek_gage:.1}, without {meek_bare:.1}");
    assert!(
        meek_gage > 90.0,
        "Gage should protect the reserved site, served {meek_gage}"
    );
    assert!(
        meek_gage > meek_bare,
        "isolation must beat bypass ({meek_gage} vs {meek_bare})"
    );
}

#[test]
fn a_response_leaves_when_its_service_ends() {
    // A light static load never queues at an RPN, so a request waits at
    // most one scheduling cycle in the RDN queue, then only for its own
    // CPU and NIC service and the network hops. A response held for a
    // later tick takes up to a whole cycle longer.
    const SIZE: u64 = 6 << 10;
    let horizon = 10.0;
    let host = "light.example.com";
    let trace = Trace::generate(
        host,
        ArrivalProcess::Constant { rate: 20.0 },
        horizon,
        &mut SyntheticGenerator::new(SIZE, 1),
        &mut StdRng::seed_from_u64(1),
    );
    let offered = trace.entries.len() as u64;
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel {
            disk: DiskPolicy::None,
            ..ServiceCostModel::static_files()
        },
        ..Default::default()
    };
    // The response with its 200-byte header in MSS-sized data packets,
    // one ACK each, and 54 bytes of framing per data packet on the wire.
    let packets = (SIZE + 200).div_ceil(NETWORK.mss as u64);
    let cpu_us = (params.service.cpu_us(SIZE) + RPN_COSTS.per_request_us(packets, packets))
        / params.rpn_speed;
    let nic_us = (SIZE + 200 + 54 * packets) as f64 / NETWORK.rpn_egress_bytes_per_sec * 1e6;
    // The three-hop first leg, the dispatch and the response.
    let hops_ms = 5.0 * NETWORK.hop_latency.as_secs_f64() * 1e3;
    let cycle_ms = SCHEDULING_CYCLE_SECS * 1e3;
    let bound_ms = cycle_ms + (cpu_us + nic_us) / 1e3 + hops_ms;
    let sites = vec![SiteSpec {
        host: host.to_string(),
        reservation: Grps(100.0),
        trace,
    }];
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.run_until(SimTime::from_secs(horizon as u64 + 1));
    let latency = &sim.world().metrics[0].latency_ms;
    assert_eq!(latency.count(), offered, "every request is served");
    assert!(
        latency.max() <= bound_ms,
        "the slowest response took {:.2} ms, more than {cycle_ms} ms of queue \
         wait plus {:.2} ms of service and hops",
        latency.max(),
        bound_ms - cycle_ms
    );
}

#[test]
fn accounting_cycle_staleness_raises_observed_deviation() {
    use gage_cluster::metrics::deviation_for_interval;
    // One site at its reservation; compare observed-usage deviation at a
    // 1-second averaging interval for 100 ms vs 2 s accounting cycles.
    let run = |acct_ms: u64| {
        let horizon = 30.0;
        let sites = vec![site("s.example.com", 100.0, 100.0, horizon, 1)];
        let params = ClusterParams {
            accounting_cycle: SimDuration::from_millis(acct_ms),
            ..generic_params(2)
        };
        let mut sim = ClusterSim::new(params, sites, 7);
        sim.run_until(SimTime::from_secs(30));
        deviation_for_interval(
            &sim.world().metrics[0].observed_usage,
            100.0,
            SimTime::from_secs(10),
            SimTime::from_secs(30),
            SimDuration::from_secs(1),
        )
        .expect("deviation computable")
    };
    let fast = run(100);
    let slow = run(2_000);
    println!("deviation: 100ms cycle {fast:.1}%, 2s cycle {slow:.1}%");
    assert!(
        slow > fast + 20.0,
        "staleness must hurt: fast {fast:.1}% vs slow {slow:.1}%"
    );
    assert!(
        slow > 80.0,
        "2s cycle vs 1s interval should be ≈100%, got {slow:.1}%"
    );
    assert!(
        fast < 30.0,
        "fresh accounting should be accurate, got {fast:.1}%"
    );
}

#[test]
fn static_file_throughput_calibration() {
    // One RPN, static 6 KB files, saturating load: ~540 req/s with Gage.
    let horizon = 15.0;
    let mut rng = StdRng::seed_from_u64(5);
    let mut gen = SyntheticGenerator::new(6 * 1024, 1);
    let sites = vec![SiteSpec {
        host: "bulk.example.com".to_string(),
        reservation: Grps(2_000.0),
        trace: Trace::generate(
            "bulk.example.com",
            ArrivalProcess::Constant { rate: 700.0 },
            horizon,
            &mut gen,
            &mut rng,
        ),
    }];
    let params = ClusterParams {
        rpn_count: 1,
        service: ServiceCostModel::static_files(),
        scheduler: SchedulerConfig {
            queue_capacity: 2_048,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.run_until(SimTime::from_secs(15));
    let rep = sim.report(SimTime::from_secs(5), SimTime::from_secs(14));
    println!("{}", rep.to_table());
    let served = rep.subscribers[0].served;
    assert!(
        (500.0..=580.0).contains(&served),
        "one-RPN static throughput {served:.1}, expected ≈540"
    );
}

#[test]
fn deterministic_replay() {
    let horizon = 5.0;
    let build = || {
        let sites = vec![
            site("a.example.com", 100.0, 120.0, horizon, 1),
            site("b.example.com", 100.0, 120.0, horizon, 2),
        ];
        let mut sim = ClusterSim::new(generic_params(2), sites, 99);
        sim.run_until(SimTime::from_secs(5));
        let rep = sim.report(SimTime::from_secs(1), SimTime::from_secs(4));
        (
            rep.subscribers[0].served,
            rep.subscribers[1].served,
            rep.rdn_utilization,
        )
    };
    assert_eq!(build(), build(), "same seed, same result");
}

#[test]
fn observability_accessors_report_live_state() {
    let horizon = 5.0;
    let sites = vec![site("obs.example.com", 100.0, 90.0, horizon, 4)];
    let mut sim = ClusterSim::new(generic_params(2), sites, 7);
    sim.run_until(SimTime::from_secs(3));
    let (loads, subs) = sim.world().scheduler_snapshot();
    assert_eq!(loads.len(), 2);
    assert!(loads.iter().all(|l| (0.0..=2.0).contains(l)), "{loads:?}");
    assert_eq!(subs.len(), 1);
    // The estimator converged near the true generic cost.
    let pred = subs[0].2;
    assert!((9_000.0..=11_000.0).contains(&pred.cpu_us), "{pred:?}");
    assert_eq!(sim.rpn_live_processes(), vec![1, 1]);
    assert_eq!(sim.world().unknown_host_drops, 0);
    assert!(sim.world().reserved_dispatches + sim.world().spare_dispatches > 0);
}
