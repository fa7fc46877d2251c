//! Regenerates the paper's Figure 3 (deviation from ideal reservation vs.
//! averaging interval, for accounting cycles of 50 ms – 2 s, plus the
//! SPECWeb99-shaped realistic-workload line).

use gage_bench::common::DEFAULT_SEED;
use gage_bench::fig3;

fn main() {
    gage_cli::run("fig3_deviation", |_| Ok(()));
    println!("Figure 3 — deviation from ideal reservation (%)");
    println!("rows: averaging interval; columns: accounting cycle time\n");
    let fig = fig3::run(DEFAULT_SEED);
    print!("{}", fig3::render(&fig));
    println!(
        "\npaper landmarks: >100% at (2s cycle, 1s interval); ≤8% at ≥4s interval\n\
         with ≤500ms cycles; SPECWeb <5% at ≥4s intervals"
    );
}
