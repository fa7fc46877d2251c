//! Multi-RDN scalability sweep: aggregate throughput past the single-RDN
//! knee.
//!
//! ```text
//! cargo run --release --example multi_rdn_sweep
//! ```
//!
//! The §4.3 study tops out at 8 RPNs because one RDN's CPU hits 83% —
//! the paper's interrupt-overload knee. This sweep holds the back end at
//! 32 RPNs under saturating offered load (6 KB static files, the §4.3
//! workload) and varies the front end: 1, 2, 4 and 8 peer RDNs,
//! subscribers pinned evenly across the shards. The per-front CPU column
//! is the busiest front's utilization over the steady window; the busy
//! tracker saturates at 100%, so a 100% reading means the front is
//! charged more work than wall-clock time — on the real testbed that
//! configuration collapses; the sim keeps serving (RDN CPU is measured,
//! not a service stage) and reports the saturation instead. Four fronts
//! sit right at the per-front knee load (32/4 = one knee's worth each);
//! eight sit comfortably under it — and every multi-RDN row carries ~4x
//! the single-RDN maximum in aggregate.

use gage::cluster::params::{ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::core::config::SchedulerConfig;
use gage::core::resource::Grps;
use gage::des::SimTime;
use gage::workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RPNS: usize = 32;
const SITES: u32 = 8;
const HORIZON: u64 = 24;

fn run(rdns: usize) -> (f64, f64) {
    // Offer ~15% beyond expected capacity so the cluster saturates, split
    // evenly over eight subscribers pinned round-robin across the shards.
    let offered = 533.0 * RPNS as f64 * 1.15;
    let mut rng = StdRng::seed_from_u64(11);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let sites: Vec<SiteSpec> = (0..SITES)
        .map(|i| {
            let host = format!("bulk{i}.example.com");
            let mut trace = Trace::generate(
                &host,
                ArrivalProcess::Constant {
                    rate: offered / SITES as f64,
                },
                HORIZON as f64,
                &mut gen,
                &mut rng,
            );
            for e in &mut trace.entries {
                e.size_bytes = 6 * 1024;
            }
            SiteSpec {
                host,
                reservation: Grps(1e6 / SITES as f64),
                trace,
            }
        })
        .collect();
    let params = ClusterParams {
        rpn_count: RPNS,
        rdn_count: rdns,
        shard_overrides: (0..SITES)
            .map(|i| (i, (i as usize % rdns) as u16))
            .collect(),
        service: ServiceCostModel::static_files(),
        scheduler: SchedulerConfig {
            queue_capacity: 4_096,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, sites, 11);
    sim.run_until(SimTime::from_secs(HORIZON));
    let report = sim.report(
        SimTime::from_secs(HORIZON / 2),
        SimTime::from_secs(HORIZON - 2),
    );
    (report.total_served, report.rdn_utilization)
}

fn main() {
    gage_cli::run("multi_rdn_sweep", |_| Ok(()));
    println!(
        "multi-RDN sweep — {RPNS} RPNs, 6 KB static files, saturating load\n\
         (single-RDN knee from §4.3: 4262 req/s at 83% RDN CPU with 8 RPNs)\n"
    );
    println!("  RDNs  throughput(req/s)  per-RPN  busiest-front CPU");
    for rdns in [1usize, 2, 4, 8] {
        let (served, util) = run(rdns);
        let feasible = if util >= 0.999 { "  <- saturated" } else { "" };
        println!(
            "  {rdns:>4} {served:>18.0} {:>8.1} {:>17.1}%{feasible}",
            served / RPNS as f64,
            util * 100.0,
        );
    }
    println!(
        "\nthe front-end work is identical in every row; sharding it over\n\
         peer RDNs pulls each front back under the knee while the\n\
         aggregate throughput runs ~4x past the single-RDN maximum."
    );
}
