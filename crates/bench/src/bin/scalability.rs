//! Regenerates §4.3: throughput vs. RPN count (1–8), per-RPN throughput
//! with/without Gage, the RDN CPU-utilization curve, and the
//! intelligent-NIC projection.

use gage_bench::common::DEFAULT_SEED;
use gage_bench::scalability;

fn main() {
    gage_cli::run("scalability", |_| Ok(()));
    println!("Scalability study — 6 KB static files, saturating offered load\n");
    let s = scalability::run(DEFAULT_SEED);
    print!("{}", scalability::render(&s));
    println!(
        "paper shape: linear 540 → 4800 req/s over 1 → 8 RPNs; RDN CPU close to\n\
         linear until ~4400 req/s, then a sharp interrupt-overload knee"
    );
}
