//! E-commerce scenario from the paper's introduction: a hosting provider
//! multiplexes many logical storefronts on one physical cluster, each with
//! its own performance contract. One tenant launches a flash sale and its
//! traffic explodes; the others' checkouts must not feel it.
//!
//! Runs the same scenario twice — with Gage and with a plain round-robin
//! front end — and prints both outcomes side by side.
//!
//! ```text
//! cargo run --release --example ecommerce_isolation
//! ```

use gage::cluster::params::{ClusterParams, GageMode, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::cluster::ClusterReport;
use gage::core::resource::Grps;
use gage::des::SimTime;
use gage::workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// (name, reserved GRPS, offered req/s) — the flash-sale tenant offers 10×
/// its contract.
const TENANTS: [(&str, f64, f64); 4] = [
    ("checkout.megastore.com", 200.0, 190.0),
    ("api.bookshop.com", 100.0, 90.0),
    ("img.gallery.com", 60.0, 55.0),
    ("flash-sale.hypebeast.com", 40.0, 400.0),
];

fn build_sites(horizon: f64) -> Vec<SiteSpec> {
    let mut rng = StdRng::seed_from_u64(99);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    TENANTS
        .iter()
        .map(|(host, reservation, rate)| SiteSpec {
            host: host.to_string(),
            reservation: Grps(*reservation),
            trace: Trace::generate(
                host,
                ArrivalProcess::Constant { rate: *rate },
                horizon,
                &mut gen,
                &mut rng,
            ),
        })
        .collect()
}

fn run(mode: GageMode) -> ClusterReport {
    let horizon = 25.0;
    let params = ClusterParams {
        rpn_count: 5, // ≈500 GRPS — under the 735 req/s offered
        mode,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, build_sites(horizon), 7);
    sim.run_until(SimTime::from_secs(25));
    sim.report(SimTime::from_secs(10), SimTime::from_secs(23))
}

fn main() {
    gage_cli::run("ecommerce_isolation", |_| Ok(()));
    println!("four tenants, 500 GRPS of cluster, 735 req/s offered (flash sale at 10x contract)\n");

    let with_gage = run(GageMode::Enabled);
    let without = run(GageMode::Bypass);

    println!(
        "{:<28} {:>9} {:>9} | {:>12} {:>14} | {:>12} {:>14}",
        "tenant",
        "reserved",
        "offered",
        "Gage served",
        "Gage p99-ish",
        "plain served",
        "plain latency"
    );
    for (i, (host, reserved, _)) in TENANTS.iter().enumerate() {
        let g = &with_gage.subscribers[i];
        let p = &without.subscribers[i];
        println!(
            "{host:<28} {reserved:>9.0} {:>9.1} | {:>12.1} {:>11.0} ms | {:>12.1} {:>11.0} ms",
            g.offered, g.served, g.mean_latency_ms, p.served, p.mean_latency_ms
        );
    }

    let well_behaved_gage: f64 = with_gage.subscribers[..3].iter().map(|s| s.served).sum();
    let well_behaved_plain: f64 = without.subscribers[..3].iter().map(|s| s.served).sum();
    println!(
        "\nwell-behaved tenants: {well_behaved_gage:.0} req/s served with Gage \
         vs {well_behaved_plain:.0} req/s with a plain dispatcher"
    );
    println!("the flash sale pays for its own excess; everyone else's contract holds.");
}
