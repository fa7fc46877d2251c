//! The open-loop load client binary.
//!
//! ```text
//! gage-client --target 127.0.0.1:8080 --host gold.local --rate 100 \
//!             --secs 10 [--size 6144]
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use gage_rt::client::{run_load, ClientConfig};

fn usage() -> ExitCode {
    eprintln!("usage: gage-client --target ADDR --host HOST --rate N --secs N [--size BYTES]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut target: Option<SocketAddr> = None;
    let mut host: Option<String> = None;
    let mut rate: f64 = 10.0;
    let mut secs: u64 = 5;
    let mut size: u64 = 6 * 1024;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--target" => target = value.parse().ok(),
            "--host" => host = Some(value),
            "--rate" => match value.parse() {
                Ok(v) => rate = v,
                Err(_) => return usage(),
            },
            "--secs" => match value.parse() {
                Ok(v) => secs = v,
                Err(_) => return usage(),
            },
            "--size" => match value.parse() {
                Ok(v) => size = v,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(target), Some(host)) = (target, host) else {
        return usage();
    };

    let duration = Duration::from_secs(secs);
    let cfg = ClientConfig {
        duration,
        size,
        ..ClientConfig::new(target, host.clone(), rate)
    };
    println!("gage-client: {rate} req/s against {host} via {target} for {secs}s");
    let stats = run_load(cfg);
    println!(
        "attempted {}  ok {}  dropped {}  errors {}",
        stats.attempted, stats.ok, stats.dropped, stats.errors
    );
    let lat = &stats.latency_ms;
    println!(
        "goodput {:.1} req/s  latency mean {:.1} ms  p50 {:.1} ms  p99 {:.1} ms  max {:.1} ms  bytes {}",
        stats.goodput(duration),
        lat.mean(),
        lat.p50(),
        lat.p99(),
        lat.max(),
        stats.bytes
    );
    ExitCode::SUCCESS
}
