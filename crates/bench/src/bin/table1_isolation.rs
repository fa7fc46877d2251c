//! Regenerates the paper's Table 1 (performance isolation under excessive
//! input load).

use gage_bench::common::DEFAULT_SEED;
use gage_bench::table1;

fn main() {
    gage_cli::run("table1_isolation", |_| Ok(()));
    println!("Table 1 — QoS guarantee under excessive input loads (GRPS)");
    println!("workload: constant-rate synthetic generic requests; 8 RPNs ≈ 786 GRPS\n");
    let rows = table1::run(DEFAULT_SEED);
    print!("{}", table1::render(&rows));
}
