//! Regenerates §4.2's overhead analysis (the 3.06 % result).

use gage_bench::common::DEFAULT_SEED;
use gage_bench::overhead;

fn main() {
    gage_cli::run("overhead_analysis", |_| Ok(()));
    println!("Overhead analysis — cost of QoS support (paper §4.2)\n");
    let o = overhead::run(DEFAULT_SEED);
    print!("{}", overhead::render(&o));
}
