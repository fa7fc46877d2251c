//! Realistic-workload replay: generate a SPECWeb99-shaped trace (the
//! paper's "realistic workload"), persist it to JSON the way the paper's
//! clients "load the trace from a file", then replay it against the
//! simulated cluster and report per-class behaviour.
//!
//! ```text
//! cargo run --release --example specweb_replay
//! ```

use gage::cluster::params::{ClusterParams, ServiceCostModel};
use gage::cluster::sim::{ClusterSim, SiteSpec};
use gage::core::resource::Grps;
use gage::des::SimTime;
use gage::workload::fileset::FileId;
use gage::workload::{ArrivalProcess, SpecWebGenerator, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    gage_cli::run("specweb_replay", |_| Ok(()));
    // 1. Generate the trace: 60 req/s of SPECWeb99-shaped accesses for 20s.
    let mut rng = StdRng::seed_from_u64(2003);
    let mut gen = SpecWebGenerator::for_target_rate(60.0);
    println!(
        "file population: {} directories, {} files, {:.1} MB",
        gen.fileset().dir_count,
        gen.fileset().file_count(),
        gen.fileset().total_bytes() as f64 / 1e6
    );
    let trace = Trace::generate(
        "www.specshop.com",
        ArrivalProcess::Constant { rate: 60.0 },
        20.0,
        &mut gen,
        &mut rng,
    );

    // 2. Persist and reload, as the paper's clients do.
    let mut buf = Vec::new();
    trace.save_json(&mut buf).expect("trace serializes");
    println!(
        "trace: {} requests, {:.1} KB of JSON, mean rate {:.1}/s",
        trace.len(),
        buf.len() as f64 / 1024.0,
        trace.mean_rate()
    );
    let trace = Trace::load_json(buf.as_slice()).expect("trace reloads");

    // Class mix in the trace.
    let mut class_counts = [0u32; 4];
    let mut class_bytes = [0u64; 4];
    for e in &trace.entries {
        if let Some(id) = FileId::parse_path(&e.path) {
            class_counts[id.class as usize] += 1;
            class_bytes[id.class as usize] += e.size_bytes;
        }
    }
    println!("\nclass mix (SPECWeb99 prescribes 35/50/14/1 %):");
    for c in 0..4 {
        println!(
            "  class {c}: {:>5.1}% of requests, {:>6.1} KB mean response",
            100.0 * f64::from(class_counts[c]) / trace.len() as f64,
            class_bytes[c] as f64 / f64::from(class_counts[c].max(1)) / 1024.0
        );
    }

    // 3. Replay on a 2-node cluster with the static-file cost model (LRU
    //    page cache; misses seek the disk).
    let site = SiteSpec {
        host: "www.specshop.com".to_string(),
        reservation: Grps(600.0),
        trace,
    };
    let params = ClusterParams {
        rpn_count: 2,
        service: ServiceCostModel::static_files(),
        ..Default::default()
    };
    let mut sim = ClusterSim::new(params, vec![site], 7);
    sim.run_until(SimTime::from_secs(22));
    let report = sim.report(SimTime::from_secs(5), SimTime::from_secs(20));
    println!("\nreplay on a 2-RPN cluster:");
    print!("{}", report.to_table());
}
