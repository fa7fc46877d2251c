//! Regenerates the paper's Table 2 (spare resource allocation in
//! proportion to reservations).

use gage_bench::common::DEFAULT_SEED;
use gage_bench::table2;

fn main() {
    gage_cli::run("table2_spare", |_| Ok(()));
    println!("Table 2 — spare resource allocation (GRPS)");
    println!("workload: both subscribers far beyond reservation; 8 RPNs ≈ 765 GRPS\n");
    let rows = table2::run(DEFAULT_SEED);
    print!("{}", table2::render(&rows));
    let ratio = rows[0].spare / rows[1].spare;
    println!("\nspare ratio {:.2} (reservation ratio 1.25)", ratio);
}
