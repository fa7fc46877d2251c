//! Command-line entry point of the simulator benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload reserved --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output check failed and 2 on a usage error.

use gage_json::Json;
use simbench::workload::Workload;

const USAGE: &str = "usage: simbench --workload <reserved|overload|sharded_chaos> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let m = simbench::measure(
        args.workload,
        args.seed,
        args.workload.horizon_secs(),
        args.seconds,
        args.trace,
    );
    for line in &m.lines {
        println!("{line}");
    }
    for metric in &m.metrics {
        println!(
            "  {:<28} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let metrics = m
        .metrics
        .iter()
        .map(|metric| {
            let value = Json::obj([
                ("value", Json::from(metric.value)),
                ("unit", Json::str(metric.unit)),
            ]);
            (metric.name.clone(), value)
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::from(m.failed == 0)),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    if m.failed > 0 {
        std::process::exit(1);
    }
}
