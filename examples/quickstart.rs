//! Quickstart: host two web sites on a simulated Gage cluster and watch the
//! QoS guarantee hold while one of them gets hammered.
//!
//! ```text
//! cargo run --release --example quickstart [-- --trace trace.jsonl]
//! ```
//!
//! With `--trace PATH`, the run records every scheduler cycle, dispatch,
//! enqueue, drop, splice and accounting report into a gage-obs trace ring
//! and writes the dump to PATH (inspect it with the `tracedump` binary).
//! Same-seed runs write byte-identical dumps.

use gage::cluster::params::{ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::core::resource::Grps;
use gage::des::SimTime;
use gage::workload::{ArrivalProcess, SyntheticGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_path: Option<String> = None;
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--trace", Some(path)) => trace_path = Some(path),
            _ => {
                eprintln!("usage: quickstart [--trace PATH]");
                std::process::exit(2);
            }
        }
    }

    // Two subscribers share the cluster. "gold" reserves 150 generic
    // requests/s and offers a civilized 140/s; "spiky" reserves only 50/s
    // but floods the front door with 400/s.
    let horizon = 20.0;
    let mut rng = StdRng::seed_from_u64(42);
    let mut gen = SyntheticGenerator::new(2_000, 1);
    let sites = vec![
        SiteSpec {
            host: "gold.example.com".to_string(),
            reservation: Grps(150.0),
            trace: Trace::generate(
                "gold.example.com",
                ArrivalProcess::Constant { rate: 140.0 },
                horizon,
                &mut gen,
                &mut rng,
            ),
        },
        SiteSpec {
            host: "spiky.example.com".to_string(),
            reservation: Grps(50.0),
            trace: Trace::generate(
                "spiky.example.com",
                ArrivalProcess::Constant { rate: 400.0 },
                horizon,
                &mut gen,
                &mut rng,
            ),
        },
    ];

    // Three back-end nodes serving "generic requests" (10 ms CPU + 10 ms
    // disk + 2 KB of network each): ~300 GRPS of cluster capacity, well
    // below the 540 req/s offered.
    let params = ClusterParams {
        rpn_count: 3,
        service: ServiceCostModel::generic_requests(),
        ..Default::default()
    };

    println!("simulating 20s of a 3-node Gage cluster under overload...\n");
    let mut sim = ClusterSim::new(params, sites, 7);
    if trace_path.is_some() {
        sim.enable_tracing(1 << 16);
    }
    sim.run_until(SimTime::from_secs(20));

    let report = sim.report(SimTime::from_secs(8), SimTime::from_secs(18));
    print!("{}", report.to_table());
    println!();

    let gold = &report.subscribers[0];
    let spiky = &report.subscribers[1];
    println!(
        "gold served {:.1}/{:.1} req/s — its reservation held despite the {:.0} req/s flood next door;",
        gold.served, gold.offered, spiky.offered
    );
    println!(
        "spiky got its 50 GRPS plus all remaining spare ({:.1} served) and dropped the rest ({:.1}/s).",
        spiky.served, spiky.dropped
    );

    if let Some(path) = trace_path {
        let dump = sim.trace_dump().expect("tracing was enabled above");
        match std::fs::write(&path, dump) {
            Ok(()) => println!("\nwrote trace to {path} (pretty-print it with `tracedump {path}`)"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        println!("\nlive metrics registry:");
        print!("{}", sim.registry().to_table());
    }
}
