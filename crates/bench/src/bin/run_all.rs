//! Runs every experiment in sequence and prints the whole evaluation — the
//! source of `EXPERIMENTS.md`'s measured columns.

use gage_bench::common::DEFAULT_SEED;
use gage_bench::{fig3, overhead, scalability, table1, table2};

fn main() {
    let seed = gage_cli::run("run_all [SEED]", |args| {
        Ok(args.free("SEED")?.unwrap_or(DEFAULT_SEED))
    });
    println!("=== Gage evaluation reproduction (seed {seed}) ===\n");

    println!("--- Table 1: performance isolation ---");
    print!("{}", table1::render(&table1::run(seed)));

    println!("\n--- Table 2: spare resource allocation ---");
    let t2 = table2::run(seed);
    print!("{}", table2::render(&t2));
    println!(
        "spare ratio {:.2} (reservations 1.25)",
        t2[0].spare / t2[1].spare
    );

    println!("\n--- Figure 3: deviation from ideal reservation ---");
    print!("{}", fig3::render(&fig3::run(seed)));

    println!("\n--- Scalability (§4.3) ---");
    print!("{}", scalability::render(&scalability::run(seed)));

    println!("\n--- Overhead analysis (§4.2) ---");
    print!("{}", overhead::render(&overhead::run(seed)));

    println!("\n(Table 3's per-operation costs are measured on this machine by");
    println!(" `cargo bench -p gage-bench --bench table3_overheads`.)");
}
