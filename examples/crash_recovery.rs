//! Crash-recovery sweep: how deep does the throughput dip go, and how
//! fast does service come back, as a function of the watchdog's grace
//! deadline?
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! One of two RPNs crashes at t=10 s and recovers at t=14 s (scripted by
//! a [`FaultPlan`]). For each `watchdog_grace_cycles` setting the run
//! reports the pre-crash service rate, the deepest 1-second dip during
//! the outage, the time from recovery until service is back within 5% of
//! the pre-crash rate, and the terminal failed/dropped counts. The
//! numbers in EXPERIMENTS.md ("Crash and recovery") come from this
//! binary.

use gage::cluster::metrics::rate_in_window;
use gage::cluster::params::{ClientRetryParams, ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::cluster::FaultPlan;
use gage::core::resource::Grps;
use gage::des::{SimDuration, SimTime};
use gage::workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CRASH_AT: u64 = 10;
const RECOVER_AT: u64 = 14;
const HORIZON: u64 = 30;
const RATE: f64 = 120.0;

fn run(grace_cycles: f64, max_retries: u32) -> (f64, f64, f64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let sites = vec![SiteSpec {
        host: "s.example.com".to_string(),
        reservation: Grps(150.0),
        trace: Trace::generate(
            "s.example.com",
            ArrivalProcess::Constant { rate: RATE },
            HORIZON as f64,
            &mut gen,
            &mut rng,
        ),
    }];
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        watchdog_grace_cycles: grace_cycles,
        client_retry: ClientRetryParams {
            timeout: SimDuration::from_secs(1),
            max_retries,
            backoff: 2.0,
        },
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    let mut plan = FaultPlan::new(1);
    plan.crash_for(
        SimTime::from_secs(CRASH_AT),
        1,
        SimDuration::from_secs(RECOVER_AT - CRASH_AT),
    );
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(HORIZON + 6));

    let served = &sim.world().metrics[0].served;
    let sec = |t: u64| rate_in_window(served, SimTime::from_secs(t), SimTime::from_secs(t + 1));
    let pre = rate_in_window(served, SimTime::from_secs(4), SimTime::from_secs(CRASH_AT));

    // Deepest 1-second service rate during the outage + settling window.
    let dip = (CRASH_AT..CRASH_AT + 10)
        .map(sec)
        .fold(f64::INFINITY, f64::min);

    // First 1-second window at/after the recovery instant from which
    // service stays within 5% of the pre-crash rate for 3 s straight.
    let recovered_at = (RECOVER_AT..HORIZON - 3)
        .find(|&t| (t..t + 3).all(|u| sec(u) >= 0.95 * pre))
        .map(|t| t as f64 - RECOVER_AT as f64);

    let failed = sim.world().metrics[0].failed.total() as u64;
    let dropped = sim.world().metrics[0].dropped.total() as u64;
    (pre, dip, recovered_at.unwrap_or(f64::NAN), failed, dropped)
}

/// No crash at all — just a lossy control path (25% of accounting reports
/// dropped for the whole run). Returns how often the watchdog spuriously
/// declared a live node down, and the served rate over the steady window.
fn run_lossy(grace_cycles: f64) -> (usize, f64) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let sites = vec![SiteSpec {
        host: "s.example.com".to_string(),
        reservation: Grps(150.0),
        trace: Trace::generate(
            "s.example.com",
            ArrivalProcess::Constant { rate: RATE },
            HORIZON as f64,
            &mut gen,
            &mut rng,
        ),
    }];
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::generic_requests(),
        watchdog_grace_cycles: grace_cycles,
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 7);
    sim.enable_tracing(1 << 18);
    let mut plan = FaultPlan::new(1);
    plan.report_loss(SimTime::ZERO, SimTime::from_secs(HORIZON), 0.25);
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(HORIZON));
    let trips = sim
        .trace_dump()
        .expect("tracing enabled")
        .matches("node_down")
        .count();
    let served = rate_in_window(
        &sim.world().metrics[0].served,
        SimTime::from_secs(4),
        SimTime::from_secs(HORIZON - 2),
    );
    (trips, served)
}

fn main() {
    gage_cli::run("crash_recovery", |_| Ok(()));
    println!(
        "crash at t={CRASH_AT}s, rejoin at t={RECOVER_AT}s; 2 RPNs, one site \
         offering {RATE:.0} req/s (reservation 150 GRPS)\n"
    );
    for retries in [0u32, 1] {
        println!("client retries = {retries}:");
        println!("  grace_cycles  pre(req/s)  dip(req/s)  recover(s)  failed  dropped");
        for grace in [2.0, 4.5, 8.0] {
            let (pre, dip, rec, failed, dropped) = run(grace, retries);
            println!(
                "  {grace:>12.1} {pre:>11.1} {dip:>11.1} {rec:>11.1} {failed:>7} {dropped:>8}"
            );
        }
        println!();
    }
    println!(
        "dip = deepest 1 s served-rate window during the outage;\n\
         recover = seconds after rejoin until service holds >=95% of the\n\
         pre-crash rate for 3 s straight.\n"
    );

    println!("no crash, 25% accounting-report loss for the whole run:");
    println!("  grace_cycles  spurious node_down trips  served(req/s)");
    for grace in [2.0, 4.5, 8.0] {
        let (trips, served) = run_lossy(grace);
        println!("  {grace:>12.1} {trips:>25} {served:>14.1}");
    }
    println!(
        "\nthe grace deadline trades detection latency against false\n\
         positives: every spurious trip purges live routes and rescales\n\
         reservations until the next surviving report heals it."
    );
}
